(** Reusable fixed-size domain pool with a barrier per job, and the
    one domain budget. The only module that spawns domains.

    Built for the sharded engine's per-round parallel phases: worker
    domains are spawned once by {!with_pool} and re-dispatched by every
    {!run} — a barrier per {e round}, not a spawn per round. The caller's
    own domain executes shard [0], so a 1-shard pool runs the job inline
    with no synchronization and no domains at all.

    Memory-ordering contract: writes made by the caller before {!run}
    are visible to every shard during the job; writes made by shards
    during the job are visible to the caller once {!run} returns. Which
    domain runs which shard index is fixed for the pool's lifetime, so
    per-shard mutable working sets are only ever touched from one
    domain. *)

type t

val budget : unit -> int option
(** The [RENAMING_DOMAINS] environment variable when it holds a positive
    integer (surrounding blanks allowed), else [None]. *)

val available : unset:int -> int
(** Domains a new pool may use from here: [1] on a domain that is
    executing a job of a multi-shard pool (its share is already
    spent, so pools never nest), else {!budget}, else [unset]. *)

val shards : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f k] exactly once for every shard index
    [k ∈ \[0, shards)], in parallel, and returns once all have finished.
    Exceptions inside [f] are caught per shard; after the barrier the
    one from the lowest shard index is re-raised (the pool remains
    usable). *)

val with_pool : shards:int -> (t -> 'a) -> 'a
(** [with_pool ~shards f] spawns a pool of [shards] shards ([shards - 1]
    worker domains), runs [f] on it, and stops and joins the workers
    even if [f] raises. Calling {!run} on the pool after that raises
    [Invalid_argument].
    @raise Invalid_argument if [shards < 1]. *)
