(** Deterministic slot partition for intra-round sharding.

    A single simulated run may be split across OCaml domains inside each
    round: recipient slots [0, n) are divided into contiguous ranges,
    one per shard. The partition is a pure function of [(n, shards)],
    byte-stable across calls and processes — the property suite in
    [test/test_shard.ml] pins disjointness, coverage and balance. *)

val count : n:int -> shards:int -> int
(** [count ~n ~shards] is the effective number of shards worth running
    for [n] slots: [shards] clamped to [[1, max 1 n]] — never more
    shards than slots, never fewer than one.
    @raise Invalid_argument if [shards < 1] or [n < 0]. *)

val range : n:int -> shards:int -> int -> (int * int)
(** [range ~n ~shards k] is the half-open slot range [(lo, hi)] owned by
    shard [k] of [shards]. Ranges are contiguous, ascending in [k],
    pairwise disjoint, cover [\[0, n)] exactly, and differ in size by at
    most one (the first [n mod shards] ranges are the larger ones).
    With [shards > n] the trailing ranges are empty.
    @raise Invalid_argument if [shards < 1], [n < 0] or [k] is outside
    [\[0, shards)]. *)

val owner : n:int -> shards:int -> int -> int
(** [owner ~n ~shards slot] is the shard [k] with
    [fst (range ~n ~shards k) <= slot < snd (range ~n ~shards k)].
    @raise Invalid_argument if [slot] is outside [\[0, n)]. *)
