(** Closed integer intervals [\[lo, hi\]] and the binary halving tree of
    Section 2.1 of the paper.

    The crash-resilient algorithm navigates the tree whose root is
    [\[1, n\]]; a vertex labelled [I = \[l, r\]] with more than one point has
    children [bot I = \[l, (l+r)/2\]] and [top I = \[(l+r)/2 + 1, r\]]. *)

type t = private { lo : int; hi : int }

val make : int -> int -> t
(** [make lo hi]. @raise Invalid_argument if [hi < lo]. *)

val full : int -> t
(** [full n] is [\[1, n\]], the root interval. *)

val singleton : int -> t
val size : t -> int
val is_singleton : t -> bool
val point : t -> int
(** The unique element of a singleton. @raise Invalid_argument otherwise. *)

val mid : t -> int
(** The last point of {!bot}: [lo + (hi - lo) / 2]. *)

val bot : t -> t
(** Lower half, [\[l, floor((l+r)/2)\]]. Identity on singletons. *)

val top : t -> t
(** Upper half, [\[floor((l+r)/2)+1, r\]].
    @raise Invalid_argument on singletons (the upper half is empty). *)

val equal : t -> t -> bool
val contains : t -> int -> bool
val compare : t -> t -> int
(** Lexicographic on [(lo, hi)]; used to sort committee responses by the
    left endpoint as the crash algorithm's [NodeAction] requires. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
