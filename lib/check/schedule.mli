(** Serializable adversary schedules.

    A schedule is a complete, replayable description of one fuzz trial:
    which algorithm, how many nodes, the run seed, an explicit crash
    script (which process, which round, how much of the mid-send outbox
    still goes out) and a Byzantine behaviour script (one named behaviour
    per corrupted identity). Together with the engine's determinism this
    pins the execution down to the byte: the same schedule always
    produces the same trace, verdict and metrics — which is what lets a
    shrunk counterexample be frozen under [test/corpus/] and replayed as
    a regression test forever.

    The on-disk format is a line-oriented text file:
    {v
    # repro-fuzz schedule v1
    algo crash
    n 32
    namespace 2048
    seed 42
    crash 5 17 all
    crash 6 23 nothing
    crash 7 9 subset 12345
    byz 101 equivocate
    v} *)

type delivery =
  | All  (** clean crash: the full final-round outbox is delivered *)
  | Nothing  (** silent crash: nothing of the final round goes out *)
  | Subset of int
      (** mid-send crash: the envelopes kept are chosen by a pure hash
          of [(salt, dst)] — deterministic under replay (see
          [Engine.Crash.scripted]) *)

type crash_event = { cr_round : int; cr_victim : int; cr_delivery : delivery }

type byz_event = {
  bz_id : int;
  bz_behavior : Repro_renaming.Byz_strategies.behavior;
}

type algo = Crash | Byz

type t = {
  algo : algo;
  n : int;
  namespace : int;
  seed : int;
  crashes : crash_event list;
  byz : byz_event list;
}

val algo_name : algo -> string

val faults : t -> int
(** Total adversary expenditure the schedule scripts: crash events plus
    corrupted identities. The oracles budget decided-node counts and
    round/bit bounds against this. *)

val normalize : t -> t
(** Canonical event order (crashes by round then victim, byz by id,
    duplicates removed), so structurally equal schedules serialize to
    identical bytes. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val to_file : string -> t -> unit
val of_file : string -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
