(** SplitMix64: a small, fast, splittable deterministic PRNG.

    Used both as the engine's private randomness and as the paper's
    shared-randomness abstraction: every party seeded with the same value
    derives exactly the same stream, which is precisely the "nodes can
    access shared random bits" assumption of the Byzantine algorithm. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. *)

val copy : t -> t

val next : t -> int64
(** Next 64 pseudo-random bits; advances the state. *)

val next_int : t -> int
(** [Int64.to_int (next t)] — the low 63 bits as a native int — without
    boxing the [int64]: allocates nothing. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]; the
    derived stream does not overlap with [t]'s subsequent output. *)
