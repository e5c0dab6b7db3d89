(* Committee-path equivalence: the flattened incremental committee
   (struct-of-arrays + Bitvec + delta maintenance) and the linear-scan
   reference must be observation-equivalent
   everywhere — identical verdicts, identical billed sizes, identical
   emission order, identical escalation-counter evolution — on {e any}
   inbox. On well-formed inboxes that is the strength-reduction claim; on
   malformed ones (overlapping groups, forged ids, duplicate sources,
   absurd depths) it holds because the fast path detects the violation
   and answers through the scan.

   Two layers: fixture tests drive one committee member directly through
   [Crash_renaming.For_tests] (including inboxes no honest engine run
   produces), and metamorphic tests replay full executions — no-fault and
   a frozen corpus crash schedule — under both paths, requiring
   byte-identical run traces and metrics. *)

module CR = Repro_renaming.Crash_renaming
module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Schedule = Repro_check.Schedule
module Trace = Repro_obs.Trace
module I = Repro_util.Interval

let paths = [ CR.Incremental; CR.Linear_scan ]

let path_name = function
  | CR.Incremental -> "incremental"
  | CR.Linear_scan -> "scan"

let verdict_triple =
  let pp ppf (dst, msg, bits) =
    Format.fprintf ppf "(%d, %a, %d)" dst CR.Msg.pp msg bits
  in
  Alcotest.testable pp (fun a b -> a = b)

let status ~id ?(src = -1) ~lo ~hi ~d ~p () =
  let src = if src = -1 then id else src in
  (src, CR.Msg.Status { id; iv = I.make lo hi; d; p })

(* Both paths on the same rounds; [Linear_scan] is the reference. *)
let check_paths_agree name ~ids rounds =
  let reference = CR.For_tests.committee_verdicts ~path:CR.Linear_scan ~pv:0 ~ids rounds in
  List.iter
    (fun path ->
      let got = CR.For_tests.committee_verdicts ~path ~pv:0 ~ids rounds in
      Alcotest.(check (list (list verdict_triple)))
        (Printf.sprintf "%s: %s vs scan" name (path_name path))
        reference got;
      (* billed sizes must be the real wire sizes, whichever path
         produced them *)
      List.iter
        (List.iter (fun (_, msg, bits) ->
             Alcotest.(check int)
               (Printf.sprintf "%s: %s billed = Msg.bits" name
                  (path_name path))
               (CR.Msg.bits msg) bits))
        got;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s final pv" name (path_name path))
        (CR.For_tests.state_pv ~path:CR.Linear_scan ~pv:0 ~ids rounds)
        (CR.For_tests.state_pv ~path ~pv:0 ~ids rounds))
    paths;
  reference

let ids8 = [| 3; 5; 9; 12; 17; 20; 28; 31 |]

(* A well-formed multi-phase descent: everyone halves from the root,
   depths diverge, reporters vanish and reappear, escalations climb —
   the incremental path exercises rebuilds (d_min moves), delta
   adds/removals (d_min holds) and group pruning. *)
let test_well_formed_descent () =
  let rounds =
    [
      (* phase 1: all report the root *)
      Array.to_list
        (Array.map (fun id -> status ~id ~lo:1 ~hi:8 ~d:0 ~p:0 () |> Fun.id) ids8);
      (* phase 2: split into the two halves; same d_min, new groups *)
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:9 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:12 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:17 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:20 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:28 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:31 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
      ];
      (* phase 3: depths diverge (mixed d), two reporters vanish, one
         escalates p *)
      [
        status ~id:3 ~lo:1 ~hi:2 ~d:2 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:2 ~d:2 ~p:0 ();
        status ~id:9 ~lo:3 ~hi:4 ~d:2 ~p:1 ();
        status ~id:17 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:20 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:31 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
      ];
      (* phase 4: the vanished return, d_min moves up, singletons at the
         minimum depth appear *)
      [
        status ~id:3 ~lo:1 ~hi:1 ~d:3 ~p:0 ();
        status ~id:5 ~lo:2 ~hi:2 ~d:3 ~p:0 ();
        status ~id:9 ~lo:3 ~hi:4 ~d:2 ~p:1 ();
        status ~id:12 ~lo:3 ~hi:4 ~d:2 ~p:1 ();
        status ~id:17 ~lo:5 ~hi:6 ~d:2 ~p:0 ();
        status ~id:20 ~lo:5 ~hi:6 ~d:2 ~p:0 ();
        status ~id:28 ~lo:7 ~hi:8 ~d:2 ~p:2 ();
        status ~id:31 ~lo:7 ~hi:8 ~d:2 ~p:0 ();
      ];
    ]
  in
  let reference = check_paths_agree "descent" ~ids:ids8 rounds in
  (* sanity on the reference itself: one verdict per status, in inbox
     order *)
  List.iter2
    (fun inbox out ->
      Alcotest.(check int) "one verdict per status" (List.length inbox)
        (List.length out);
      Alcotest.(check (list int))
        "verdicts in inbox order"
        (List.map fst inbox)
        (List.map (fun (dst, _, _) -> dst) out))
    rounds reference

(* The linear fallback triggers — paths must still agree. Each fixture
   violates one fast-path precondition. *)
let test_disjointness_violation_falls_back () =
  (* two overlapping non-singleton intervals at the minimum depth: the
     halving-tree invariant an honest run never breaks *)
  let rounds =
    [
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:3 ~hi:6 ~d:1 ~p:0 ();
        status ~id:9 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
      ];
    ]
  in
  ignore (check_paths_agree "overlapping groups" ~ids:ids8 rounds);
  (* same-lo different-hi *)
  ignore
    (check_paths_agree "same lo, different hi" ~ids:ids8
       [
         [
           status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
           status ~id:5 ~lo:1 ~hi:6 ~d:1 ~p:0 ();
         ];
       ]);
  (* containment: a min-depth interval strictly inside another *)
  ignore
    (check_paths_agree "nested groups" ~ids:ids8
       [
         [
           status ~id:3 ~lo:1 ~hi:8 ~d:1 ~p:0 ();
           status ~id:5 ~lo:2 ~hi:3 ~d:1 ~p:0 ();
         ];
       ])

let test_forged_and_duplicated_sources_fall_back () =
  (* id field disagrees with the transport source *)
  ignore
    (check_paths_agree "forged id" ~ids:ids8
       [
         [
           status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
           status ~id:99 ~src:5 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
         ];
       ]);
  (* one source reports twice *)
  ignore
    (check_paths_agree "duplicate source" ~ids:ids8
       [
         [
           status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
           status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
           status ~id:5 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
         ];
       ]);
  (* a source outside the participant set *)
  ignore
    (check_paths_agree "unknown source" ~ids:ids8
       [
         [
           status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
           status ~id:4 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
         ];
       ]);
  (* sources out of order *)
  ignore
    (check_paths_agree "descending sources" ~ids:ids8
       [
         [
           status ~id:5 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
           status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
         ];
       ]);
  (* depth beyond the histogram cap *)
  ignore
    (check_paths_agree "huge depth" ~ids:ids8
       [ [ status ~id:3 ~lo:1 ~hi:8 ~d:(1 lsl 21) ~p:0 () ] ]);
  (* escalation beyond the cap *)
  ignore
    (check_paths_agree "huge p" ~ids:ids8
       [ [ status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:(1 lsl 21) () ] ])

(* A malformed round in the middle of a well-formed sequence: the
   incremental path must drop its persistent state, answer by scan, and
   resume incrementally without contaminating later rounds. *)
let test_recovery_after_fallback () =
  let well_formed lo_split =
    [
      status ~id:3 ~lo:1 ~hi:lo_split ~d:1 ~p:0 ();
      status ~id:5 ~lo:1 ~hi:lo_split ~d:1 ~p:0 ();
      status ~id:9 ~lo:(lo_split + 1) ~hi:8 ~d:1 ~p:0 ();
      status ~id:12 ~lo:(lo_split + 1) ~hi:8 ~d:1 ~p:0 ();
    ]
  in
  let rounds =
    [
      well_formed 4;
      (* poison: overlapping min-depth groups *)
      [
        status ~id:3 ~lo:1 ~hi:5 ~d:1 ~p:0 ();
        status ~id:5 ~lo:2 ~hi:6 ~d:1 ~p:0 ();
      ];
      well_formed 4;
      well_formed 2;
    ]
  in
  ignore (check_paths_agree "poisoned mid-sequence" ~ids:ids8 rounds)

let test_empty_and_degenerate () =
  (* no statuses at all (committee hears nothing) *)
  ignore (check_paths_agree "empty inbox" ~ids:ids8 [ []; [] ]);
  (* only singletons at the minimum depth *)
  ignore
    (check_paths_agree "all singletons" ~ids:ids8
       [
         [
           status ~id:3 ~lo:1 ~hi:1 ~d:3 ~p:0 ();
           status ~id:5 ~lo:2 ~hi:2 ~d:3 ~p:1 ();
         ];
       ]);
  (* single participant *)
  ignore
    (check_paths_agree "single node" ~ids:[| 7 |]
       [ [ status ~id:7 ~lo:1 ~hi:1 ~d:0 ~p:0 () ] ])

(* Randomized differential fixture: arbitrary status rounds — mostly
   tree-shaped, occasionally corrupted — through both paths. The
   property needs no well-formedness precondition precisely because
   fallback-on-violation is part of the contract. *)
let qcheck_paths_agree =
  let open QCheck in
  let gen =
    Gen.(
      let* nrounds = int_range 1 5 in
      let* rounds =
        list_repeat nrounds
          (let* reporters =
             List.fold_right
               (fun id acc ->
                 let* acc = acc in
                 let* keep = bool in
                 return (if keep then id :: acc else acc))
               (Array.to_list ids8) (return [])
           in
           List.fold_right
             (fun id acc ->
               let* acc = acc in
               let* d = int_range 0 3 in
               let* index = int_range 0 ((1 lsl d) - 1) in
               let iv =
                 match I.tree_vertex_at ~n:8 ~depth:d ~index with
                 | Some iv -> iv
                 | None -> I.full 8
               in
               let* p = int_range 0 2 in
               let* corrupt = int_range 0 19 in
               let entry =
                 match corrupt with
                 | 0 ->
                     (* forged id *)
                     (id, CR.Msg.Status { id = id + 1; iv; d; p })
                 | 1 ->
                     (* off-tree interval *)
                     ( id,
                       CR.Msg.Status { id; iv = I.make 2 6; d; p } )
                 | 2 -> (id, CR.Msg.Status { id; iv; d = 1 lsl 21; p })
                 | _ -> (id, CR.Msg.Status { id; iv; d; p })
               in
               return (entry :: acc))
             reporters (return []))
      in
      return rounds)
  in
  let print rounds =
    String.concat " | "
      (List.map
         (fun pairs ->
           String.concat ";"
             (List.map
                (fun (src, m) ->
                  Printf.sprintf "%d<-%s" src
                    (Format.asprintf "%a" CR.Msg.pp m))
                pairs))
         rounds)
  in
  Test.make ~name:"all committee paths agree on random rounds" ~count:300
    (make ~print gen) (fun rounds ->
      let out path = CR.For_tests.committee_verdicts ~path ~pv:0 ~ids:ids8 rounds in
      let reference = out CR.Linear_scan in
      out CR.Incremental = reference
      && List.for_all
           (List.for_all (fun (_, msg, bits) -> CR.Msg.bits msg = bits))
           reference)

(* {1 Metamorphic full-run equivalence}

   Whole executions under each committee path must be byte-identical:
   same run-trace JSONL (per-round metrics rows, size histogram, crash
   and decide events), same assessment. Exercised no-fault and under the
   frozen corpus crash schedule — replayed through [Scripted_crashes],
   the same injection point the fuzzer uses — for both committee-based
   protocols. *)

let corpus_schedule () =
  match Schedule.of_file "corpus/crash_mid_send.sched" with
  | Error m -> Alcotest.failf "corpus schedule: %s" m
  | Ok s -> s

let run_with_path ~protocol ~n ~namespace ~adversary ~seed path =
  let t =
    Trace.create
      ~meta:[ ("algo", `Str (E.crash_protocol_name protocol)) ]
      ()
  in
  let a =
    E.run_crash ~trace:t ~committee_path:path ~protocol ~n ~namespace
      ~adversary ~seed ()
  in
  (Trace.contents t, a)

let check_runs_identical name ~protocol ~n ~namespace ~adversary ~seed =
  let tr_ref, a_ref =
    run_with_path ~protocol ~n ~namespace ~adversary ~seed CR.Linear_scan
  in
  Alcotest.(check bool) (name ^ ": reference run correct") true
    a_ref.Runner.correct;
  List.iter
    (fun path ->
      let tr, a =
        run_with_path ~protocol ~n ~namespace ~adversary ~seed path
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s trace bytes" name (path_name path))
        tr_ref tr;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s: %s assignments" name (path_name path))
        a_ref.Runner.assignments a.Runner.assignments;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s bits" name (path_name path))
        a_ref.Runner.bits a.Runner.bits;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s messages" name (path_name path))
        a_ref.Runner.messages a.Runner.messages)
    [ CR.Incremental ];
  a_ref

let test_full_runs_no_fault () =
  List.iter
    (fun protocol ->
      ignore
        (check_runs_identical
           (E.crash_protocol_name protocol ^ " no-fault")
           ~protocol ~n:32 ~namespace:2048 ~adversary:E.No_crash ~seed:42))
    [ E.This_work_crash; E.Halving_baseline ]

let test_full_runs_corpus_schedule () =
  let s = corpus_schedule () in
  Alcotest.(check int) "corpus schedule shape" 32 s.Schedule.n;
  let adversary =
    E.Scripted_crashes
      (List.map
         (fun (c : Schedule.crash_event) ->
           ( c.cr_round,
             c.cr_victim,
             match c.cr_delivery with
             | Schedule.All -> `All
             | Schedule.Nothing -> `Nothing
             | Schedule.Subset salt -> `Subset salt ))
         s.Schedule.crashes)
  in
  List.iter
    (fun protocol ->
      let a =
        check_runs_identical
          (E.crash_protocol_name protocol ^ " corpus schedule")
          ~protocol ~n:s.Schedule.n ~namespace:s.Schedule.namespace
          ~adversary ~seed:s.Schedule.seed
      in
      (* the schedule must actually bite — otherwise this test would
         silently degrade into a second no-fault run *)
      Alcotest.(check bool)
        (E.crash_protocol_name protocol ^ ": schedule crashes nodes")
        true (a.Runner.crashed > 0))
    [ E.This_work_crash; E.Halving_baseline ]

let suite =
  ( "committee-paths",
    [
      Alcotest.test_case "well-formed descent" `Quick test_well_formed_descent;
      Alcotest.test_case "disjointness violation falls back" `Quick
        test_disjointness_violation_falls_back;
      Alcotest.test_case "forged/duplicated sources fall back" `Quick
        test_forged_and_duplicated_sources_fall_back;
      Alcotest.test_case "recovery after fallback" `Quick
        test_recovery_after_fallback;
      Alcotest.test_case "empty and degenerate inboxes" `Quick
        test_empty_and_degenerate;
      QCheck_alcotest.to_alcotest qcheck_paths_agree;
      Alcotest.test_case "full runs byte-identical (no fault)" `Quick
        test_full_runs_no_fault;
      Alcotest.test_case "full runs byte-identical (corpus schedule)" `Quick
        test_full_runs_corpus_schedule;
    ] )
