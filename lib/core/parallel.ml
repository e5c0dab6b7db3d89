(* Deterministic multicore trial runner.

   Independent trials (one simulated execution per seed) are fanned out
   as one job of a [Domain_pool]: every shard pulls trials from a shared
   atomic counter — so domains self-balance across trials of uneven
   length — but every trial writes its result into the slot of its own
   index, which makes the output array a pure function of the per-index
   job: bit-identical regardless of how many domains ran or how the
   scheduler interleaved them. The engine keeps all run state local to
   [Engine.run], so trials on different domains never share mutable
   state, and a run inside a multi-domain fan-out takes one shard
   ([Domain_pool.available]). *)

module Pool = Repro_util.Domain_pool

let map ?domains count f =
  if count < 0 then invalid_arg "Parallel.map: negative count";
  let d =
    match domains with
    | Some d -> d
    | None ->
        Pool.available
          ~unset:(max 1 (min 8 (Domain.recommended_domain_count ())))
  in
  let results = Array.make count None in
  let next = Atomic.make 0 in
  let rec pull _ =
    let i = Atomic.fetch_and_add next 1 in
    if i < count then begin
      results.(i) <- Some (f i);
      pull 0
    end
  in
  Pool.with_pool ~shards:(max 1 (min count d)) (fun pool -> Pool.run pool pull);
  Array.map Option.get results

let map_list ?domains count f = Array.to_list (map ?domains count f)

(* The simulator's working set — a round's in-flight envelopes — lives
   until the round barrier, which spans several default-sized minor
   heaps on message-heavy rounds; every minor collection in between
   promotes the whole accumulated inbox set. A roomier per-domain minor
   heap and a more patient major GC cut that promotion churn (measured
   ~20% wall-clock on the committee-killer path). Executables opt in;
   the library never changes GC settings behind the caller's back. *)
let tune_gc () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 4 * 1024 * 1024;
      space_overhead = 400;
    }
