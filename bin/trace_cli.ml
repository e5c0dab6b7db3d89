(* Consumer CLI for the run-trace/v1 JSONL files written by
   [renaming_cli --trace] and the fuzzer.

     trace summary run.jsonl
     trace diff a.jsonl b.jsonl

   [summary] prints the per-round totals, the busiest round and the
   largest message, cross-checked against the trace's own summary line;
   it exits 1 when the per-round records do not reconcile with the
   totals. [diff] compares two traces round record by round record
   (timing fields stripped) and exits 1 printing the first diverging
   round — two runs of the same seeded configuration must diff clean,
   whatever the domain count. Exit 2 on unreadable or malformed input
   and on usage errors. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module Tools = Repro_obs.Trace_tools
open Cmdliner

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error m -> Error m

let or_die = function
  | Ok v -> v
  | Error m ->
      Printf.eprintf "trace: %s\n" m;
      exit 2

let pos_arg p docv =
  Arg.(required & pos p (some string) None & info [] ~docv ~doc:"Trace file.")

let summary_cmd =
  let run path =
    let contents = or_die (read_file path) in
    match Tools.summarize contents with
    | Error m ->
        Printf.eprintf "trace: %s: %s\n" path m;
        exit 2
    | Ok { Tools.text; reconciled } ->
        print_string text;
        if not reconciled then begin
          Printf.eprintf
            "trace: %s: per-round records do not reconcile with the summary \
             totals\n"
            path;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Summarize one trace; exit 1 if its per-round records do not sum \
          to its recorded totals.")
    Term.(const run $ pos_arg 0 "FILE")

let diff_cmd =
  let run left_path right_path =
    let left = or_die (read_file left_path) in
    let right = or_die (read_file right_path) in
    match Tools.diff ~left ~right with
    | Tools.Identical rounds ->
        Printf.printf "identical: %d round records\n" rounds
    | Tools.Diverged { d_round; d_left; d_right } ->
        Printf.printf "traces diverge at round %d\n" d_round;
        let side label path = function
          | Some line -> Printf.printf "  %s (%s): %s\n" label path line
          | None -> Printf.printf "  %s (%s): <trace ends>\n" label path
        in
        side "left" left_path d_left;
        side "right" right_path d_right;
        exit 1
    | Tools.Summary_mismatch { s_left; s_right } ->
        Printf.printf "round records identical but summaries differ\n";
        Printf.printf "  left (%s): %s\n" left_path s_left;
        Printf.printf "  right (%s): %s\n" right_path s_right;
        exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two traces record by record (timing fields ignored); \
          exit 1 printing the first diverging round.")
    Term.(const run $ pos_arg 0 "LEFT" $ pos_arg 1 "RIGHT")

(* Cmdliner's parse errors (unknown option, missing file argument) exit
   2 like unreadable input; cmdliner has already printed the usage text
   on stderr. *)
let () =
  let info =
    Cmd.info "trace" ~version:"1.0.0"
      ~doc:"Inspect and compare run-trace/v1 JSONL run records."
  in
  match Cmd.eval (Cmd.group info [ summary_cmd; diff_cmd ]) with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
