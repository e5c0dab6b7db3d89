(** Delta-debugging shrinker for failing schedules.

    Minimizes the adversary script of a failing fuzz trial: ddmin over
    the crash- and Byzantine-event lists, then per-event weakening
    (mid-send [Subset]/[Nothing] crashes towards clean [All] crashes,
    Byzantine behaviours towards [Silence]), iterated to a fixpoint.
    The result is 1-minimal with respect to these moves: dropping any
    remaining event, or weakening it further, makes the failure
    disappear. Every candidate is judged by a full deterministic
    re-execution, so the minimized schedule is guaranteed to still
    reproduce the violation under {!Fuzzer.run}. *)

type progress = passes:int -> faults:int -> unit

val minimize :
  ?progress:progress -> still_fails:(Schedule.t -> bool) -> Schedule.t ->
  Schedule.t
(** [minimize ~still_fails s] assumes [still_fails s] (raises
    [Invalid_argument] otherwise) and returns a minimized schedule on
    which [still_fails] still holds. [progress] is invoked after each
    pass with the pass count and current fault count. *)
