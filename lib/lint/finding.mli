(** A single diagnostic emitted by the {!Rules} pass, and the rule
    registry (id, what it rejects, rationale) the pass implements. *)

type t = {
  rule : string;  (** stable rule id, e.g. ["D2"] *)
  file : string;  (** path as given to the driver *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;  (** one-line statement of the violation *)
  hint : string;  (** one-line fix hint *)
}

val compare : t -> t -> int
(** Deterministic report order: file, line, col, rule. *)

val rules : (string * string * string) list
(** [(id, rejects, rationale)] for every rule, [E0] (parse failure)
    included. *)
