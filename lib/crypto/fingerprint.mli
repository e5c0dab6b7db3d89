(** Randomized fingerprints of bit-vector segments (paper Fact 3.2).

    The Byzantine-resilient algorithm has committee members agree on the
    hash of a segment [L\[l..r\]] instead of shipping the segment itself.
    We instantiate the "random hash function constructible from O(log U)
    shared random bits" as Rabin-style polynomial fingerprinting: a
    segment with bits [b_0 .. b_{m-1}] maps to [Σ b_i · x^i mod p]
    evaluated at a shared random point [x], over the Mersenne prime
    [p = 2^31 - 1] — twice, with two independent points, giving a 62-bit
    fingerprint. Two distinct equal-length segments collide only if both
    evaluation points are roots of the nonzero difference polynomial:
    probability at most [(m / (p - 3))^2] — comfortably within the
    [1/|S|^i] regime Fact 3.2 needs for union-bounding over all
    [O(f log N)] iterations. *)

type key
(** The shared hash function; derives from shared randomness, so every
    correct node holding the same seed holds the same function. *)

type t [@@immediate]
(** A fingerprint value: an immediate, so computing, storing or comparing
    one allocates nothing. *)

val key_of_seed : int -> key
(** Derive the shared hash function from the run's shared random seed. *)

val of_segment : key -> Repro_util.Bitvec.t -> Repro_util.Interval.t -> t
(** Fingerprint of [L[l..r]], low position = low-degree coefficient. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** By the first value, then the second. *)

val bits : t -> int
(** Wire size in bits (62): fingerprints ride in O(log N)-bit messages. *)

val to_int_pair : t -> int * int
(** For hashing/serialisation in tests and strategies. *)

val of_raw : int -> int -> t
(** Forge a fingerprint from raw field values, each reduced to its
    non-negative residue in [\[0, p)] (so [of_raw (-1) 0] is [of_raw (p -
    1) 0]); [to_int_pair] returns the residues. Only for simulating
    Byzantine senders, decoding and tests; honest code derives
    fingerprints with {!of_segment}. *)

val pp : Format.formatter -> t -> unit
