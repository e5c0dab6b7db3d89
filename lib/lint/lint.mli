(** repro_lint — determinism & domain-safety static analysis.

    Parses OCaml sources with compiler-libs and walks the parsetree with
    the {!Rules} pass (rules D1–D5, registry in {!Finding.rules}). Used
    by [bin/lint_cli] (wired to [dune build @lint]) and by the test
    suite. *)

type report = {
  findings : Finding.t list;  (** sorted by {!Finding.compare} *)
  files_scanned : int;
  suppressed : int;  (** findings silenced by an allow annotation *)
}

val lint_string :
  ?enabled:(string -> bool) -> filename:string -> string -> Finding.t list * int
(** Lint one compilation unit given as a string. [filename] is the
    logical path and drives the path-scoped rules (D1 exemptions, D4's
    domain-shared directories). A file that fails to parse yields a
    single non-suppressible [E0] finding. [enabled] defaults to
    all-rules-on. *)

val lint_file : ?enabled:(string -> bool) -> string -> Finding.t list * int

val lint_files : ?enabled:(string -> bool) -> string list -> report

val findings_by_rule : report -> (string * int) list
(** Per-rule finding counts, sorted by rule id. *)

val to_json : report -> string
(** Byte-stable (fixed field order) [lint-report/v1] JSON. *)

(** {2 Project-wide pass (lint v2)}

    Runs the v1 per-file rules plus the S/N/W families over the
    {!Callgraph} built from every file's {!Summary.t}. See DESIGN.md
    S25. *)

type project_report = {
  graph : Callgraph.t;
  p_findings : Finding.t list;  (** sorted by {!Finding.compare} *)
  p_files_scanned : int;
  p_suppressed : int;
  p_baseline_suppressed : int;
}

type baseline = (string * string * string) list
(** (rule, file, message) triples of findings blessed by a committed
    baseline report. *)

val lint_project :
  ?enabled:(string -> bool) ->
  ?baseline:baseline ->
  (string * string) list ->
  project_report
(** [lint_project pairs] lints the [(logical filename, source)] pairs
    as one project: filenames drive the path-scoped rules and module
    names (capitalized basenames) key the call graph. *)

val lint_project_files :
  ?enabled:(string -> bool) ->
  ?baseline:baseline ->
  string list ->
  project_report

val project_to_text : project_report -> string

val to_json_v2 : project_report -> string
(** Byte-stable [lint-report/v2] JSON: module summaries with propagated
    facts, plus the findings in v1 object layout. *)

val baseline_of_json : string -> baseline
(** Extract the baseline triples from a v1 or v2 JSON report produced
    by {!to_json} / {!to_json_v2} (fixed field order assumed). *)

val baseline_of_file : string -> baseline
