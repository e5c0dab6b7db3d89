(** Fixed-length bit vectors with segment operations.

    The Byzantine-resilient algorithm's identity lists [L_v] are length-[N]
    bit vectors indexed by original identities [1..N]; committee members
    hash, count and patch {e segments} [L\[l..r\]] of them. Positions in
    this module are therefore 1-based to match the paper. *)

type t

val create : int -> t
(** [create n] is the all-zeros vector of length [n]. *)

val length : t -> int
val copy : t -> t
val get : t -> int -> bool
val set : t -> int -> bool -> unit
(** Positions are 1-based; out-of-range access raises [Invalid_argument]. *)

val count : t -> Interval.t -> int
(** Number of ones within the segment (word-parallel range popcount). *)

val count_all : t -> int

val rank : t -> int -> int
(** [rank t i] is the number of ones at positions [<= i]: the paper's new
    identity of the node whose original identity is [i] (when
    [get t i = true]). *)

val iter_set : t -> Interval.t -> f:(int -> unit) -> unit
(** Apply [f] to every one-position within the segment, ascending.
    Word-parallel: zero words are skipped in one step. *)

val ones_in : t -> Interval.t -> int list
(** Positions of ones within the segment, ascending. *)

val fill_segment_with_ones : t -> Interval.t -> int -> unit
(** [fill_segment_with_ones t seg k] replaces the segment with an arbitrary
    pattern containing exactly [k] ones (the paper's dirty-interval
    patch; we put them leftmost). @raise Invalid_argument if [k] exceeds
    the segment size. *)

val segment_bytes : t -> Interval.t -> string
(** The segment's bits packed into bytes (low position first,
    LSB-first within each byte, zero-padded). Used by the ship-segments
    reconciliation ablation, whose messages carry raw segments. *)

val set_segment_bytes : t -> Interval.t -> string -> unit
(** Inverse of {!segment_bytes}: overwrite the segment from packed bytes.
    @raise Invalid_argument if the string is shorter than the segment
    needs. *)

val pp : Format.formatter -> t -> unit
