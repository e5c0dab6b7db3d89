(** Round-scoped growable buffers.

    An arena value is owned by per-run protocol state (a committee
    record, a node's program closure) and reused every round: capacity
    is retained across {!Vec.clear}, so after the first busy round a
    steady-state round allocates nothing from it. Arenas are never
    global — a top-level arena under a domain-shared library would be
    cross-run (and under sharding cross-domain) mutable state, exactly
    what the D4 determinism lint rejects (see test/lint/d4_arena.ml). *)

module Vec : sig
  type 'a t
  (** A growable vector: dense prefix [0 .. length-1] of a backing
      array that only ever grows. *)

  val create : dummy:'a -> 'a t
  (** [create ~dummy] is an empty vector; [dummy] fills fresh capacity
      (it is never observable through the vector API). *)

  val length : 'a t -> int

  val data : 'a t -> 'a array
  (** The live backing array, for APIs consuming (array, len) pairs —
      e.g. the engine's sized exchange. Only indices below {!length}
      are meaningful; the reference is invalidated by the next growing
      {!push}. *)

  val push : 'a t -> 'a -> unit
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit

  val clear : 'a t -> unit
  (** Reset to empty, retaining capacity. Stale contents are kept (not
      scrubbed): consumers must never hold indices across a clear —
      the cross-round aliasing contract pinned by test/test_intern.ml. *)
end
