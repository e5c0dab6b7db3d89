(* Delta-debugging minimizer for failing schedules.

   Classic ddmin over the crash-event list and the byz-event list, then
   per-event simplification (weaken a mid-send Subset crash to a clean
   All crash, a Byzantine behaviour towards Silence), iterated to a
   fixpoint. The predicate is "still fails", so every intermediate
   candidate is a full deterministic re-execution — cheap at fuzzing
   sizes (n ≤ 64), and the result is a schedule where removing any
   single event makes the failure disappear. *)

type progress = passes:int -> faults:int -> unit

let no_progress ~passes:_ ~faults:_ = ()

(* ddmin on a list: find a 1-minimal sublist satisfying [still_fails
   (rebuild sublist)]. *)
let ddmin ~still_fails ~rebuild events =
  let fails evs = still_fails (rebuild evs) in
  let split chunks l =
    let len = List.length l in
    let size = max 1 ((len + chunks - 1) / chunks) in
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
          if k = size then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (k + 1) rest
    in
    go [] [] 0 l
  in
  let rec loop events chunks =
    let len = List.length events in
    if len <= 1 then events
    else
      let chunks = min chunks len in
      let parts = split chunks events in
      let complement_of i =
        List.concat (List.filteri (fun j _ -> j <> i) parts)
      in
      let rec try_subsets i =
        if i >= List.length parts then None
        else
          let part = List.nth parts i in
          if fails part then Some (part, 2)
          else
            let comp = complement_of i in
            if List.length comp < len && fails comp then
              Some (comp, max 2 (chunks - 1))
            else try_subsets (i + 1)
      in
      match try_subsets 0 with
      | Some (smaller, next_chunks) -> loop smaller next_chunks
      | None -> if chunks < len then loop events (min len (2 * chunks)) else events
  in
  if events = [] then []
  else if fails [] then []
  else loop events 2

(* Try to replace one event with a simpler variant, left to right. *)
let simplify_events ~fails ~simpler events =
  let rec go acc = function
    | [] -> (List.rev acc, false)
    | e :: rest -> (
        let try_variant v =
          let candidate = List.rev_append acc (v :: rest) in
          if fails candidate then Some v else None
        in
        match List.find_map try_variant (simpler e) with
        | Some v -> (List.rev_append acc (v :: rest), true)
        | None -> go (e :: acc) rest)
  in
  go [] events

let simpler_crash (e : Schedule.crash_event) =
  match e.cr_delivery with
  | Schedule.All -> []
  | Schedule.Nothing | Schedule.Subset _ ->
      [ { e with cr_delivery = Schedule.All } ]

let simpler_byz (e : Schedule.byz_event) =
  let module BS = Repro_renaming.Byz_strategies in
  if e.bz_behavior = BS.Silence then []
  else [ { e with bz_behavior = BS.Silence } ]

let minimize ?(progress = no_progress) ~still_fails (s : Schedule.t) =
  if not (still_fails s) then
    invalid_arg "Shrink.minimize: schedule does not fail";
  let passes = ref 0 in
  let step s =
    incr passes;
    let crashes =
      ddmin ~still_fails
        ~rebuild:(fun crashes -> Schedule.normalize { s with crashes })
        s.Schedule.crashes
    in
    let s = Schedule.normalize { s with crashes } in
    let byz =
      ddmin ~still_fails
        ~rebuild:(fun byz -> Schedule.normalize { s with byz })
        s.Schedule.byz
    in
    let s = Schedule.normalize { s with byz } in
    let crashes, c1 =
      simplify_events
        ~fails:(fun crashes ->
          still_fails (Schedule.normalize { s with crashes }))
        ~simpler:simpler_crash s.Schedule.crashes
    in
    let s = Schedule.normalize { s with crashes } in
    let byz, c2 =
      simplify_events
        ~fails:(fun byz -> still_fails (Schedule.normalize { s with byz }))
        ~simpler:simpler_byz s.Schedule.byz
    in
    let s = Schedule.normalize { s with byz } in
    progress ~passes:!passes ~faults:(Schedule.faults s);
    (s, c1 || c2)
  in
  (* Iterate to a fixpoint: a simplification can unlock further event
     removal (and vice versa); faults strictly shrink or events get
     simpler each productive pass, so this terminates quickly. *)
  let rec fix s prev_faults =
    let s', changed = step s in
    let faults = Schedule.faults s' in
    if (faults < prev_faults || changed) && !passes < 16 then fix s' faults
    else s'
  in
  fix s (Schedule.faults s)
