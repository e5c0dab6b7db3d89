(** Minimal byte-stable SARIF 2.1.0 renderer over lint findings. *)

val add_escaped : Buffer.t -> string -> unit
(** Append a string as a JSON string literal; shared with the
    [lint-report/v2] writer in {!Lint}. *)

val render : Finding.t list -> string
(** Findings must already be sorted ({!Finding.compare}); rendering
    preserves their order. W2 renders at "note" level, every other rule
    at "error". *)
