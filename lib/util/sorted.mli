(** Membership in an ascending int array.

    The committee's member search, the pool's view filter and the NEW
    collection all look identities up in a sorted array once per
    message or candidate. The search is typed on [int], so its compares
    are inline machine compares: an untyped one compiles to the
    runtime's polymorphic [caml_equal]/[caml_lessthan] C calls. *)

val index : int array -> int -> int
(** [index a x] is the position of [x] in the strictly ascending [a],
    or [-1] when [x] is absent. Allocates nothing. *)
