(** repro_lint — determinism & domain-safety static analysis.

    Parses OCaml sources with compiler-libs and lints them as one
    project: the per-file {!Rules} walk (D1–D5) over every file, plus
    the S/N/W families over the {!Callgraph} built from every file's
    {!Summary.t} (registry in {!Finding.rules}; DESIGN.md S22/S25). Used
    by [bin/lint_cli] (wired to [dune build @lint]) and by the test
    suite. *)

type report = {
  graph : Callgraph.t;
  findings : Finding.t list;  (** sorted by {!Finding.compare} *)
  files_scanned : int;
  suppressed : int;  (** findings silenced by an allow annotation *)
}

val lint_project : (string * string) list -> report
(** [lint_project pairs] lints the [(logical filename, source)] pairs
    as one project: filenames drive the path-scoped rules (D1
    exemptions, D3's runtime libraries, D4's domain-shared directories,
    N1's lib/net) and module names (capitalized basenames) key the call
    graph. A file that fails to parse yields a single [E0] finding,
    which no allow can suppress.
    Test-only: the lint tests lint in-memory fixtures under chosen
    logical paths through it; [lint_cli] reads files with
    {!lint_project_files}. *)

val lint_project_files : string list -> report
(** [lint_project_files paths] lints every [.ml] file under [paths]
    (directories walked in sorted order, dot-directories and [_build]
    skipped), each under its path as given. *)

val project_to_text : report -> string
(** One two-line entry per finding, then a one-line summary. *)

val to_json_v2 : report -> string
(** Byte-stable [lint-report/v2] JSON: module summaries with propagated
    facts, plus the findings. *)
