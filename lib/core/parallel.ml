(* Deterministic multicore trial runner.

   Independent trials (one simulated execution per seed) are fanned out
   across OCaml 5 domains. Work is pulled from a shared atomic counter —
   so domains self-balance across trials of uneven length — but every
   trial writes its result into the slot of its own index, which makes
   the output array a pure function of the per-index job: bit-identical
   regardless of how many domains ran or how the scheduler interleaved
   them. The engine keeps all run state local to [Engine.run], so trials
   on different domains never share mutable state. *)

let env_domains () =
  match Sys.getenv_opt "RENAMING_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | _ -> None)

(* 0 = not set programmatically; [set_domains] wins over the
   environment, the environment over the hardware count. *)
(* Process-wide domain-count knob: one Atomic.t written by set_domains
   before any fan-out; last-write-wins is the intended semantics and
   reads are atomic. *)
(* lint: allow D4 — deliberate global configuration knob, see above *)
let configured : int Atomic.t = Atomic.make 0

let set_domains d =
  if d < 1 then invalid_arg "Parallel.set_domains: need at least 1";
  Atomic.set configured d

let default_domains () =
  match Atomic.get configured with
  | d when d >= 1 -> d
  | _ -> (
      match env_domains () with
      | Some d -> d
      | None -> max 1 (min 8 (Domain.recommended_domain_count ())))

let map ?domains count f =
  if count < 0 then invalid_arg "Parallel.map: negative count";
  let d =
    max 1
      (min count
         (match domains with Some d -> max 1 d | None -> default_domains ()))
  in
  if d = 1 then Array.init count f
  else begin
    let results = Array.make count None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < count then begin
          results.(i) <- Some (f i);
          go ()
        end
      in
      go ()
    in
    let spawned = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain participates too; its exception (if any) must
       not leave spawned domains unjoined. *)
    let first_exn = ref None in
    let record e = if !first_exn = None then first_exn := Some e in
    (try worker () with e -> record e);
    Array.iter
      (fun dh -> try Domain.join dh with e -> record e)
      spawned;
    (match !first_exn with Some e -> raise e | None -> ());
    Array.map
      (function
        | Some x -> x
        | None ->
            invalid_arg
              "Parallel.map: result slot still empty after all workers \
               joined without raising")
      results
  end

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
