(* Adversary-schedule fuzzer driver.

     fuzz --algo crash -n 32 --trials 500 --seed 42
     fuzz --algo byz -n 24 --trials 100 --shrink --out failing.sched
     fuzz --replay test/corpus/crash_mid_send.sched

   Campaign mode generates seeded random schedules, runs each against
   the invariant oracles and exits 1 on the first violation (after
   optional shrinking). Replay mode re-executes a schedule file and
   prints the byte-deterministic trace. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module Schedule = Repro_check.Schedule
module Oracle = Repro_check.Oracle
module Fuzzer = Repro_check.Fuzzer
module Shrink = Repro_check.Shrink
module Trace = Repro_obs.Trace
open Cmdliner

let algo_conv = Arg.enum [ ("crash", Schedule.Crash); ("byz", Schedule.Byz) ]

let algo_arg =
  Arg.(
    value
    & opt algo_conv Schedule.Crash
    & info [ "algo" ] ~docv:"ALGO" ~doc:"Algorithm to fuzz: crash or byz.")

let n_arg =
  Arg.(
    value & opt int 32
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes per trial.")

let namespace_arg =
  Arg.(
    value & opt int 0
    & info [ "N"; "namespace" ] ~docv:"NS"
        ~doc:"Original namespace size (default: 64·n).")

let trials_arg =
  Arg.(
    value & opt int 100
    & info [ "trials" ] ~docv:"T" ~doc:"Number of schedules to generate.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed (trial i uses SEED + i·7919).")

let faults_arg =
  Arg.(
    value & opt (some int) None
    & info [ "faults" ] ~docv:"F"
        ~doc:"Per-trial fault budget (default: n/4 crash, n/8 byz).")

let shrink_arg =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:"Minimize the first failing schedule with delta debugging.")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the (shrunk) failing schedule to FILE.")

let replay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay a schedule file instead of fuzzing; print the trace.")

let domains_arg =
  Arg.(
    value & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:"OCaml domains (default: the RENAMING_DOMAINS environment \
              variable, else auto for a campaign and 1 for a lone run). \
              A campaign fans its trials across $(docv) domains, one \
              shard per run; a replay or shrink run shards its rounds \
              across them. Verdicts and traces are bit-identical for \
              every value.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the trace on replay.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"On replay, also write the structured JSONL run trace \
              (run-trace/v1, see trace_cli) to FILE.")

let dump_arg =
  Arg.(
    value & opt (some int) None
    & info [ "dump-trial" ] ~docv:"I"
        ~doc:"Print the schedule of trial I for the given campaign \
              parameters (without running it) and exit; for freezing \
              schedules under test/corpus/.")

let print_verdict (v : Oracle.verdict) =
  (match v.assessment with
  | Some a -> Format.printf "%a@." Repro_renaming.Runner.pp a
  | None -> print_endline "run aborted");
  List.iter (fun m -> Printf.printf "VIOLATION: %s\n" m) v.violations

let schedule_meta (s : Schedule.t) =
  [
    ("algo", `Str (Schedule.algo_name s.algo)); ("n", `Int s.n);
    ("namespace", `Int s.namespace); ("seed", `Int s.seed);
    ("faults", `Int (Schedule.faults s));
  ]

let do_replay path quiet trace_out shards =
  match Schedule.of_file path with
  | Error m ->
      Printf.eprintf "fuzz: cannot load %s: %s\n" path m;
      exit 2
  | Ok s ->
      let jsonl =
        Option.map (fun _ -> Trace.create ~meta:(schedule_meta s) ()) trace_out
      in
      let trace, v = Fuzzer.replay ?jsonl ?shards s in
      (* Written before the verdict gates the exit code: a failing
         replay's trace is the one worth keeping. An aborted run leaves
         the recorder unfinished; the partial trace (no summary line) is
         still written. *)
      (match (trace_out, jsonl) with
      | Some p, Some t -> Trace.write_file t p
      | _ -> ());
      if quiet then print_verdict v else print_string trace;
      if Oracle.failed v then exit 1

let do_campaign config shrink out domains =
  Printf.printf "fuzzing %s: n=%d namespace=%d trials=%d seed=%d budget=%d\n%!"
    (Schedule.algo_name config.Fuzzer.algo)
    config.n config.namespace config.trials config.seed config.fault_budget;
  let reports = Fuzzer.campaign ?domains config in
  match Fuzzer.first_failure reports with
  | None ->
      Printf.printf "ok: %d trials, all invariants upheld\n" config.trials
  | Some r ->
      Printf.printf "FAILURE at trial %d (seed %d):\n" r.index
        r.schedule.Schedule.seed;
      List.iter
        (fun m -> Printf.printf "  VIOLATION: %s\n" m)
        r.verdict.Oracle.violations;
      let final =
        if shrink then begin
          let progress ~passes ~faults =
            Printf.printf "  shrink pass %d: %d fault events\n%!" passes faults
          in
          (* Shrink runs and the reproducer's run are lone runs: the
             budget goes to their shards. *)
          let still_fails s = Oracle.failed (Fuzzer.run ?shards:domains s) in
          let s = Shrink.minimize ~progress ~still_fails r.schedule in
          Printf.printf "shrunk to %d fault events\n" (Schedule.faults s);
          s
        end
        else r.schedule
      in
      print_string (Schedule.to_string final);
      (match out with
      | Some path ->
          Schedule.to_file path final;
          (* Dump the structured run trace of the reproducer next to the
             schedule: the first artefact to look at when triaging. *)
          let t = Trace.create ~meta:(schedule_meta final) () in
          ignore (Fuzzer.run ~jsonl:t ?shards:domains final);
          let tpath = path ^ ".trace.jsonl" in
          Trace.write_file t tpath;
          Printf.printf
            "written to %s (replay with --replay %s; run trace in %s)\n" path
            path tpath
      | None -> ());
      exit 1

(* Bad arguments are reported before anything runs: the problem, the
   usage line, exit 2 (the pattern of renaming_cli). *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "fuzz: %s\nUsage: fuzz [OPTION]…\n\
         Try 'fuzz --help' for more information.\n"
        msg;
      exit 2)
    fmt

(* An output file that cannot be created is reported before anything
   runs, on one line naming the path, exit 2. The probe neither
   truncates nor rewrites an existing file, and removes a file it
   created: [--out] is only written when a campaign fails. *)
let check_writable flag path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path
  | exception Sys_error m ->
      Printf.eprintf "fuzz: %s: cannot write %s\n" flag m;
      exit 2

let check_args ~n ~namespace ~trials =
  if n < 1 then usage_error "-n must be at least 1, got %d" n;
  if namespace <> 0 && namespace < n then
    usage_error "--namespace must be at least n = %d, got %d" n namespace;
  if trials < 1 then usage_error "--trials must be at least 1, got %d" trials

let main algo n namespace trials seed faults shrink out replay domains quiet
    trace dump =
  Option.iter
    (fun d ->
      if d < 1 then usage_error "--domains must be at least 1, got %d" d)
    domains;
  Option.iter (check_writable "--trace") trace;
  Option.iter (check_writable "--out") out;
  match replay with
  | Some path -> do_replay path quiet trace domains
  | None -> (
      check_args ~n ~namespace ~trials;
      let namespace = if namespace = 0 then 64 * n else namespace in
      let config =
        Fuzzer.default_config ~algo ~n ~namespace ~trials ~seed
          ?fault_budget:faults ()
      in
      match dump with
      | Some i -> print_string (Schedule.to_string (Fuzzer.generate config i))
      | None -> do_campaign config shrink out domains)

let cmd =
  let doc =
    "seeded adversary-schedule fuzzer for the renaming algorithms"
  in
  let info = Cmd.info "fuzz" ~doc in
  Cmd.v info
    Term.(
      const main $ algo_arg $ n_arg $ namespace_arg $ trials_arg $ seed_arg
      $ faults_arg $ shrink_arg $ out_arg $ replay_arg $ domains_arg
      $ quiet_arg $ trace_arg $ dump_arg)

(* Cmdliner's parse errors (unknown option, malformed value) exit 2
   like [usage_error]; cmdliner has already printed the usage text on
   stderr. *)
let () =
  Repro_renaming.Parallel.tune_gc ();
  match Cmd.eval cmd with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
