(** Convenience sampling layer over {!Splitmix}.

    All simulation randomness flows through values of this type so that
    every run of every experiment is reproducible from a single seed. *)

type t

val of_seed : int -> t
val split : t -> t
(** Derive an independent stream (see {!Splitmix.split}). *)

val bits64 : t -> int64
(** The next raw 64 bits of the stream.
    Test-only: the literal stream pins in [test/test_rng.ml] read
    SplitMix64's output through it. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. [int], [bool] and [bernoulli] draw through
    {!Splitmix.next_int} and allocate nothing (pinned in
    [test/test_rng.ml]); [float] allocates only its boxed result. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [min (max p 0.) 1.]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] picks [min k (length arr)]
    distinct elements, in random order. Does not modify [arr]. *)
