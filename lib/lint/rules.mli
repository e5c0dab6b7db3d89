(** The determinism & domain-safety rule set (D1–D5), implemented as one
    {!Ast_iterator} walk. See {!Finding.rules} for the registry and
    DESIGN.md S22 for the contract each rule enforces. *)

val path_ends_with : string -> string -> bool
(** [path_ends_with path suffix] — component-aligned suffix match on
    '/'-normalized paths; used by every path-scoped rule. *)

val path_has_dir : string -> string -> bool
(** [path_has_dir path dir] — does [path] contain directory [dir]
    (itself possibly "a/b") as a component run? *)

val run :
  filename:string ->
  comment_allows:Allowlist.t ->
  Parsetree.structure ->
  Finding.t list * int
(** [run ~filename ~comment_allows str] returns the findings (sorted by
    {!Finding.compare}) and the number of findings suppressed by an
    allow annotation. [filename] is the logical path and drives the
    path-scoped rules (D1 exemptions for lib/util/rng.ml and
    lib/obs/trace.ml, D3's runtime libraries, D4's domain-shared dirs).
    [comment_allows] is {!Allowlist.scan} of the raw text the structure
    was parsed from — the comment escape hatch, which the parser
    drops. *)
