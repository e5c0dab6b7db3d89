(** Deterministic multicore trial runner.

    Fans independent jobs (typically: one simulated execution per seed)
    across OCaml 5 domains. Results are placed by job index, so the
    output is {e bit-identical} for every domain count — parallelism
    changes only the wall-clock, never the numbers. The domains come
    from one [Repro_util.Domain_pool] per call. *)

val map : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [map count f] computes [[| f 0; …; f (count-1) |]], running the
    calls on [domains] domains (at most [count]; default
    [Repro_util.Domain_pool.available], with the hardware count capped
    at 8 when no budget is set). Jobs are pulled dynamically, so uneven
    trial lengths self-balance. [f] must be safe to call from any
    domain — engine runs are, since all run state is local to
    [Engine.run], and one without [?shards] runs at one shard inside a
    multi-domain [map]. If calls raise, the lowest-indexed domain's
    exception is re-raised once every domain has finished. *)

val map_list : ?domains:int -> int -> (int -> 'a) -> 'a list
(** {!map} returning a list. *)

val tune_gc : unit -> unit
(** GC settings tuned for simulation workloads (roomier minor heap, more
    patient major GC — envelopes of a round otherwise get promoted by
    mid-round minor collections). Intended to be called once at startup
    by executables ([bench/main.exe] and [fuzz_cli] do); never called
    implicitly by the library. *)
