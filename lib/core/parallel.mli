(** Deterministic multicore trial runner.

    Fans independent jobs (typically: one simulated execution per seed)
    across OCaml 5 domains. Results are placed by job index, so the
    output is {e bit-identical} for every domain count — parallelism
    changes only the wall-clock, never the numbers. *)

val default_domains : unit -> int
(** Resolution order: {!set_domains} if called; the [RENAMING_DOMAINS]
    environment variable if set to a positive integer; otherwise the
    hardware-recommended count capped at 8. Always ≥ 1. *)

val set_domains : int -> unit
(** Override the domain count for subsequent {!map} calls (process-wide,
    thread-safe). Raises [Invalid_argument] for values < 1. *)

val map : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [map count f] computes [[| f 0; …; f (count-1) |]], running the
    calls on [domains] (default {!default_domains}) domains. Jobs are
    pulled dynamically, so uneven trial lengths self-balance. [f] must
    be safe to call from any domain — engine runs are, since all run
    state is local to [Engine.run]. If any call raises, one of the
    raised exceptions is re-raised after all domains are joined. *)

val map_list : ?domains:int -> int -> (int -> 'a) -> 'a list
(** {!map} returning a list. *)

val tune_gc : unit -> unit
(** GC settings tuned for simulation workloads (roomier minor heap, more
    patient major GC — envelopes of a round otherwise get promoted by
    mid-round minor collections). Intended to be called once at startup
    by executables ([bench/main.exe] and [fuzz_cli] do); never called
    implicitly by the library. *)
