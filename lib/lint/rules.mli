(** The determinism & domain-safety rule set (D1–D5), implemented as one
    {!Ast_iterator} walk. See {!Finding.rules} for the registry and
    DESIGN.md S22 for the contract each rule enforces. *)

type config = {
  filename : string;
      (** logical path — drives the path-scoped rules (D1 exemptions for
          lib/util/rng.ml and lib/obs/trace.ml, D4's domain-shared dirs) *)
  enabled : string -> bool;  (** per-rule-id enable predicate *)
}

val path_ends_with : string -> string -> bool
(** [path_ends_with path suffix] — component-aligned suffix match on
    '/'-normalized paths; used by every path-scoped rule. *)

val path_has_dir : string -> string -> bool
(** [path_has_dir path dir] — does [path] contain directory [dir]
    (itself possibly "a/b") as a component run? *)

val run :
  config -> source:string -> Parsetree.structure -> Finding.t list * int
(** [run config ~source str] returns the findings (sorted by
    {!Finding.compare}) and the number of findings suppressed by an
    allow annotation. [source] is the raw text the structure was parsed
    from — needed for the comment escape hatch, which the parser
    drops. *)
