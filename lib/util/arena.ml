(* Round-scoped growable buffers: the backing store for per-round
   emission triples. Capacity is retained across [clear]s, so a
   steady-state round allocates nothing — the arena grows to the
   high-water mark of its owner's first busy round and then only
   reuses. Every arena is a value owned by per-run protocol state
   (created inside [program] or a committee record); there is no global
   instance, by design and by the D4 lint rule. *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int; dummy : 'a }

  let create ~dummy = { a = [||]; len = 0; dummy }
  let length v = v.len

  (* The live backing store, for APIs that take (array, len) pairs such
     as the engine's sized exchange. Indices >= [length v] are dummies
     or stale values; callers must respect their own [len]. *)
  let data v = v.a

  let reserve v n =
    if n > Array.length v.a then begin
      let cap = max n (max 8 (2 * Array.length v.a)) in
      let b = Array.make cap v.dummy in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end

  let push v x =
    if v.len = Array.length v.a then reserve v (v.len + 1);
    Array.unsafe_set v.a v.len x;
    v.len <- v.len + 1

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Arena.Vec.get";
    Array.unsafe_get v.a i

  let set v i x =
    if i < 0 || i >= v.len then invalid_arg "Arena.Vec.set";
    Array.unsafe_set v.a i x

  (* Reset to empty without shrinking. Slots keep their old contents
     (no scrubbing): the cross-round aliasing contract is that consumers
     never hold indices across a clear, pinned by test/test_intern.ml. *)
  let clear v = v.len <- 0
end
