(* Lemma-level invariant checks for the crash-resilient algorithm,
   instrumented via the per-phase telemetry hook:

   - Lemma 2.3: at every phase end, for any alive node's interval I, the
     number of alive nodes whose intervals are subsets of I is at most
     |I| (the capacity invariant behind uniqueness).
   - Lemma 2.5: the gap between the maximum and minimum p value is at
     most one at every phase end.
   - Lemma 2.2/2.4 (progress): the minimum depth and minimum p are
     monotone, and every two phases at least one of them increases.  *)

module CR = Repro_renaming.Crash_renaming
module I = Repro_util.Interval
module Rng = Repro_util.Rng
module Ilog = Repro_util.Ilog

type snapshot = { iv : I.t; d : int; p : int }

(* phase -> (id -> snapshot) *)
let record_run ~n ~seed ~crash_of =
  let ids =
    Repro_renaming.Experiment.random_ids ~seed:(seed + 3) ~namespace:(50 * n) ~n
  in
  let phases : (int, (int, snapshot) Hashtbl.t) Hashtbl.t = Hashtbl.create 32 in
  let telemetry =
    {
      CR.on_phase_end =
        (fun ~phase ~id ~iv ~d ~p ~elected:_ ->
          let tbl =
            match Hashtbl.find_opt phases phase with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 32 in
                Hashtbl.replace phases phase tbl;
                tbl
          in
          Hashtbl.replace tbl id { iv; d; p });
    }
  in
  let res = CR.run ~telemetry ~crash:(crash_of ids) ~seed ~ids () in
  let a = Repro_renaming.Runner.assess res in
  (phases, a)

let phase_list phases =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let snapshots tbl = Hashtbl.fold (fun _ s acc -> s :: acc) tbl []

let lemma_2_3_holds tbl =
  let snaps = snapshots tbl in
  List.for_all
    (fun v ->
      let inside =
        List.length (List.filter (fun u -> Halving_tree.subset u.iv v.iv) snaps)
      in
      inside <= I.size v.iv)
    snaps

(* §2.1's structural invariant: every interval a node ever holds is a
   vertex of the halving tree rooted at [1, n], at depth <= its d. *)
let tree_invariant_holds ~n tbl =
  List.for_all
    (fun s ->
      match Halving_tree.depth_in_tree ~n s.iv with
      | Some depth -> depth <= max s.d (Ilog.ceil_log2 (max 2 n))
      | None -> false)
    (snapshots tbl)

let lemma_2_5_holds tbl =
  let snaps = snapshots tbl in
  match snaps with
  | [] -> true
  | _ ->
      let ps = List.map (fun s -> s.p) snaps in
      let pmax = List.fold_left max min_int ps in
      let pmin = List.fold_left min max_int ps in
      pmax - pmin <= 1

(* Definition 2.1: d is tracked for active nodes that have not yet
   determined their identity (non-singleton interval); p for all active
   nodes. Once every survivor is decided the progress claims are
   vacuous. *)
let mins tbl =
  let snaps = snapshots tbl in
  let undecided = List.filter (fun s -> not (I.is_singleton s.iv)) snaps in
  let d_min =
    List.fold_left (fun acc s -> min acc s.d) max_int undecided
  in
  let p_min = List.fold_left (fun acc s -> min acc s.p) max_int snaps in
  (d_min, p_min, undecided <> [])

let progress_holds phases =
  let seq = phase_list phases in
  let rec check = function
    | (_, t1) :: ((_, t2) :: _ as rest) ->
        let d1, p1, live1 = mins t1 and d2, p2, live2 = mins t2 in
        (* monotonicity of both minima (alive sets only shrink) *)
        (not (live1 && live2) || d2 >= d1) && p2 >= p1 && check rest
    | _ -> true
  in
  let rec two_phase_gain = function
    | (_, t1) :: ((_, _) :: ((_, t3) :: _ as _rest3) as rest) ->
        let d1, p1, live1 = mins t1 and d3, p3, live3 = mins t3 in
        ((not (live1 && live3)) || d3 + p3 >= d1 + p1 + 1)
        && two_phase_gain rest
    | _ -> true
  in
  check seq && two_phase_gain seq

let adversaries ~seed n =
  [
    ("none", fun _ -> fun _ -> CR.Net.Orders []);
    ( "random",
      fun _ ->
        CR.Net.Crash.random ~rng:(Rng.of_seed seed) ~f:(n / 3)
          ~horizon:(9 * max 1 (Ilog.ceil_log2 n))
          () );
    ( "killer",
      fun _ ->
        CR.Net.Crash.committee_killer ~rng:(Rng.of_seed seed) ~budget:(n / 2)
          () );
    ( "killer-partial",
      fun _ ->
        CR.Net.Crash.committee_killer ~rng:(Rng.of_seed seed) ~budget:(n / 2)
          ~partial:true () );
  ]

let test_capacity_invariant () =
  List.iter
    (fun (name, adversary) ->
      let phases, a = record_run ~n:32 ~seed:5 ~crash_of:adversary in
      Alcotest.(check bool) (name ^ ": run correct") true a.correct;
      List.iter
        (fun (k, tbl) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: lemma 2.3 at phase %d" name k)
            true (lemma_2_3_holds tbl))
        (phase_list phases))
    (adversaries ~seed:41 32)

let test_p_gap_invariant () =
  List.iter
    (fun (name, adversary) ->
      let phases, _ = record_run ~n:32 ~seed:6 ~crash_of:adversary in
      List.iter
        (fun (k, tbl) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: lemma 2.5 at phase %d" name k)
            true (lemma_2_5_holds tbl))
        (phase_list phases))
    (adversaries ~seed:42 32)

let test_progress () =
  List.iter
    (fun (name, adversary) ->
      let phases, _ = record_run ~n:32 ~seed:7 ~crash_of:adversary in
      Alcotest.(check bool)
        (name ^ ": two-phase progress (Lemmas 2.2/2.4)")
        true (progress_holds phases))
    (adversaries ~seed:43 32)

let qcheck_lemmas =
  QCheck.Test.make ~name:"crash lemmas 2.3/2.5 under random adversaries"
    ~count:60
    (QCheck.make
       ~print:(fun (n, f, partial, seed) ->
         Printf.sprintf "n=%d f=%d partial=%b seed=%d" n f partial seed)
       QCheck.Gen.(
         let* n = int_range 4 32 in
         let* f = int_range 0 (n - 1) in
         let* partial = bool in
         let* seed = int_range 0 50_000 in
         return (n, f, partial, seed)))
    (fun (n, f, partial, seed) ->
      let crash_of _ =
        CR.Net.Crash.random ~rng:(Rng.of_seed seed) ~f
          ~horizon:(9 * max 1 (Ilog.ceil_log2 n))
          ~mid_send_prob:(if partial then 1. else 0.25)
          ()
      in
      let phases, a = record_run ~n ~seed ~crash_of in
      a.correct
      && List.for_all
           (fun (_, tbl) ->
             lemma_2_3_holds tbl && lemma_2_5_holds tbl
             && tree_invariant_holds ~n tbl)
           (phase_list phases))

(* Lemmas 2.6/2.7: the number of nodes that ever joined the committee is
   O(2^p̂·log n), and forcing p̂ >= 3 costs the adversary Ω(2^p̂·log n)
   crashes. Statistical check over killer-adversary runs: committee
   membership is read off the telemetry's elected flags. *)
let test_committee_size_vs_escalation () =
  let n = 64 in
  List.iter
    (fun budget ->
      let ids =
        Repro_renaming.Experiment.random_ids ~seed:(budget + 70)
          ~namespace:(50 * n) ~n
      in
      let ever_elected = Hashtbl.create 64 in
      let p_max = ref 0 in
      let telemetry =
        {
          CR.on_phase_end =
            (fun ~phase:_ ~id ~iv:_ ~d:_ ~p ~elected ->
              if elected then Hashtbl.replace ever_elected id ();
              p_max := max !p_max p);
        }
      in
      let crash =
        CR.Net.Crash.committee_killer
          ~rng:(Rng.of_seed (budget + 71))
          ~budget ()
      in
      let res = CR.run ~telemetry ~ids ~crash ~seed:(budget + 72) () in
      let a = Repro_renaming.Runner.assess res in
      Alcotest.(check bool) "correct" true a.correct;
      let committee_total = Hashtbl.length ever_elected in
      let log_n = float_of_int (Ilog.ceil_log2 n) in
      (* Lemma 2.6 (with the experiment constant 3 in place of 256):
         total members ever <= min(C·2^p̂·log n, n) for a generous C. *)
      let cap =
        Float.min (float_of_int n)
          (12. *. (2. ** float_of_int !p_max) *. log_n)
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "budget %d: committee-ever %d within cap %.0f (p̂=%d, Lemma 2.6)"
           budget committee_total cap !p_max)
        true
        (float_of_int committee_total <= cap);
      (* Lemma 2.7 contrapositive at test scale: escalation requires
         spending — p̂ can only exceed 0 if the adversary crashed
         someone. *)
      if !p_max > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "budget %d: escalation to p̂=%d cost crashes" budget
             !p_max)
          true (a.crash_cost > 0))
    [ 0; 8; 24; 48 ]

let suite =
  ( "lemmas_crash",
    [
      Alcotest.test_case "lemma 2.3 capacity invariant" `Quick
        test_capacity_invariant;
      Alcotest.test_case "lemma 2.5 p-gap invariant" `Quick test_p_gap_invariant;
      Alcotest.test_case "lemmas 2.2/2.4 progress" `Quick test_progress;
      Alcotest.test_case "lemmas 2.6/2.7 committee size vs escalation" `Quick
        test_committee_size_vs_escalation;
      QCheck_alcotest.to_alcotest qcheck_lemmas;
    ] )
