(* Driver for repro_lint (lib/lint): the determinism & domain-safety
   static-analysis pass (per-file rules D1-D5 plus the project-wide
   S/N/W families over the cross-module summary graph).

     lint [PATHS..]                 # default: lib
     lint --format json lib bin bench
     lint --format sarif lib > lint.sarif
     lint --list-rules

   Exit 0 when no finding is left (allow-suppressed findings do not fail
   the build), 1 on any unsuppressed finding (including E0 parse
   failures), 2 on usage errors / unreadable paths. [dune build @lint]
   runs this over lib, bin and bench. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module Lint = Repro_lint.Lint
module Finding = Repro_lint.Finding
module Sarif = Repro_lint.Sarif
open Cmdliner

let list_rules () =
  List.iter
    (fun (id, rejects, rationale) ->
      Printf.printf "%-3s %s\n    why: %s\n" id rejects rationale)
    Finding.rules

let run paths format list =
  if list then begin
    list_rules ();
    0
  end
  else begin
    let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
    if missing <> [] then begin
      Printf.eprintf "lint: no such path: %s\n" (String.concat ", " missing);
      exit 2
    end;
    let report = Lint.lint_project_files paths in
    (match format with
    | `Text -> print_string (Lint.project_to_text report)
    | `Json -> print_string (Lint.to_json_v2 report)
    | `Sarif -> print_string (Sarif.render report.Lint.findings));
    match report.Lint.findings with [] -> 0 | _ :: _ -> 1
  end

let paths_arg =
  Arg.(
    value
    & pos_all string [ "lib" ]
    & info [] ~docv:"PATH" ~doc:"Files or directories to lint (default: lib).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Report format: text, json (lint-report/v2), or sarif \
           (SARIF 2.1.0).")

let list_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ] ~doc:"Print the rule registry and exit.")

let () =
  let info =
    Cmd.info "lint" ~version:"2.0.0"
      ~doc:
        "Static determinism & domain-safety checks (per-file D1-D5, \
         project-wide S/N/W) over OCaml sources; exit 1 on any \
         unsuppressed finding."
  in
  let term = Term.(const run $ paths_arg $ format_arg $ list_arg) in
  (* Cmdliner's parse errors (unknown option, malformed value) are
     usage errors too: exit 2, not cmdliner's 124; cmdliner has already
     printed the usage text on stderr. *)
  match Cmd.eval' (Cmd.v info term) with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
