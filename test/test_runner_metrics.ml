module Runner = Repro_renaming.Runner
module Metrics = Repro_sim.Metrics
module Engine = Repro_sim.Engine

let mk_result outcomes =
  { Engine.outcomes; metrics = Metrics.create () }

let test_assess_clean () =
  let a =
    Runner.assess
      (mk_result
         [ (10, Engine.Decided 2); (20, Engine.Decided 1); (30, Engine.Decided 3) ])
  in
  Alcotest.(check bool) "unique" true a.unique;
  Alcotest.(check bool) "strong" true a.strong;
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check bool) "not order preserving (10->2 but 20->1)" false
    a.order_preserving;
  Alcotest.(check (list (pair int int))) "sorted by original"
    [ (10, 2); (20, 1); (30, 3) ] a.assignments

let test_assess_duplicate () =
  let a =
    Runner.assess
      (mk_result [ (1, Engine.Decided 1); (2, Engine.Decided 1) ])
  in
  Alcotest.(check bool) "duplicate detected" false a.unique;
  Alcotest.(check bool) "hence incorrect" false a.correct

let test_assess_not_strong () =
  let a =
    Runner.assess
      (mk_result [ (1, Engine.Decided 1); (2, Engine.Decided 5) ])
  in
  Alcotest.(check bool) "unique still" true a.unique;
  Alcotest.(check bool) "5 outside [1,2]" false a.strong

let test_assess_mixed_outcomes () =
  let a =
    Runner.assess
      (mk_result
         [
           (1, Engine.Decided 1);
           (2, Engine.Crashed 4);
           (3, Engine.Byzantine);
           (4, Engine.Unfinished);
         ])
  in
  Alcotest.(check int) "decided" 1 a.decided;
  Alcotest.(check int) "crashed" 1 a.crashed;
  Alcotest.(check int) "byzantine" 1 a.byzantine;
  Alcotest.(check int) "unfinished" 1 a.unfinished;
  Alcotest.(check bool) "unfinished means incorrect" false a.correct;
  Alcotest.(check int) "n counts everyone" 4 a.n

let test_assess_order_preserving () =
  let a =
    Runner.assess
      (mk_result
         [ (5, Engine.Decided 1); (9, Engine.Decided 2); (70, Engine.Decided 3) ])
  in
  Alcotest.(check bool) "order preserving" true a.order_preserving

let test_metrics_accounting () =
  let m = Metrics.create () in
  Metrics.add_honest_bulk m ~msgs:1 ~bits:10;
  Metrics.add_honest_bulk m ~msgs:1 ~bits:20;
  Metrics.end_round m;
  Metrics.add_byz m ~bits:99;
  Metrics.add_honest_bulk m ~msgs:1 ~bits:5;
  Metrics.end_round m;
  Metrics.record_crash m;
  Alcotest.(check int) "honest messages" 3 m.honest_messages;
  Alcotest.(check int) "honest bits" 35 m.honest_bits;
  Alcotest.(check int) "byz messages" 1 m.byz_messages;
  Alcotest.(check int) "byz bits" 99 m.byz_bits;
  Alcotest.(check int) "rounds" 2 m.rounds;
  Alcotest.(check int) "crashes" 1 m.crashes;
  (* Round 2 carried 1 honest + 1 byz message: the total profile counts
     both (the byz message used to be dropped from the per-round rows). *)
  Alcotest.(check (array int)) "per-round profile (honest + byz)" [| 2; 2 |]
    (Metrics.messages_by_round m);
  let column f = Array.map f (Metrics.per_round m) in
  Alcotest.(check (array int)) "honest messages by round" [| 2; 1 |]
    (column (fun r -> r.Metrics.hmsgs));
  Alcotest.(check (array int)) "honest bits by round" [| 30; 5 |]
    (column (fun r -> r.Metrics.hbits));
  Alcotest.(check (array int)) "byz messages by round" [| 0; 1 |]
    (column (fun r -> r.Metrics.bmsgs));
  Alcotest.(check (array int)) "byz bits by round" [| 0; 99 |]
    (column (fun r -> r.Metrics.bbits));
  let row = Metrics.round_row m 1 in
  Alcotest.(check int) "row 1 hmsgs" 1 row.Metrics.hmsgs;
  Alcotest.(check int) "row 1 hbits" 5 row.Metrics.hbits;
  Alcotest.(check int) "row 1 bmsgs" 1 row.Metrics.bmsgs;
  Alcotest.(check int) "row 1 bbits" 99 row.Metrics.bbits;
  Alcotest.check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.int Alcotest.int))
    "per-round rows reconcile with totals" [] (Metrics.reconcile m);
  Alcotest.check_raises "round_row out of range"
    (Invalid_argument "Metrics.round_row: round 2 outside [0, 2)") (fun () ->
      ignore (Metrics.round_row m 2))

(* Oracle-style closure check on real executions: for a crash run and a
   Byzantine run, the per-round rows must sum to the run totals field by
   field — exactly the invariant [Metrics.reconcile] (and through it the
   fuzzer's oracle) enforces. *)
let test_reconcile_crash_run () =
  let ids = Array.init 24 (fun i -> (7 * i) + 3) in
  let res =
    Repro_renaming.Crash_renaming.run ~ids
      ~crash:
        (Repro_renaming.Crash_renaming.Net.Crash.random
           ~rng:(Repro_util.Rng.of_seed 11) ~f:5 ())
      ~seed:11 ()
  in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct" true a.Runner.correct;
  Alcotest.check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.int Alcotest.int))
    "crash run reconciles" []
    (Metrics.reconcile res.Engine.metrics);
  Alcotest.(check bool) "assessment reconciles" true (Runner.reconciles a);
  Alcotest.(check int) "messages = sum of honest rows" a.Runner.messages
    (Array.fold_left
       (fun acc (r : Metrics.round_row) -> acc + r.hmsgs)
       0
       (Metrics.per_round res.metrics))

let test_reconcile_byz_run () =
  let module E = Repro_renaming.Experiment in
  (* Split-world attackers spend byz messages every round; the rows must
     bill them round by round, not just in the totals. *)
  let a =
    E.run_byz ~protocol:E.This_work_byz ~n:16 ~namespace:1024
      ~adversary:(E.Split_world_byz 2) ~pool_probability:0.7 ~seed:5 ()
  in
  Alcotest.(check bool) "correct" true a.Runner.correct;
  Alcotest.(check bool) "byz traffic present" true (a.Runner.byz_messages > 0);
  Alcotest.(check bool) "byz run reconciles" true (Runner.reconciles a);
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 a.Runner.per_round in
  Alcotest.(check int) "byz msgs = sum of byz rows" a.Runner.byz_messages
    (sum (fun (r : Metrics.round_row) -> r.Metrics.bmsgs));
  Alcotest.(check int) "byz bits = sum of byz rows" a.Runner.byz_bits
    (sum (fun r -> r.Metrics.bbits))

let test_two_metrics_independent () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add_honest_bulk a ~msgs:1 ~bits:1;
  Metrics.end_round a;
  Metrics.end_round b;
  Alcotest.(check (array int)) "a profile" [| 1 |] (Metrics.messages_by_round a);
  Alcotest.(check (array int)) "b profile" [| 0 |] (Metrics.messages_by_round b)

let suite =
  ( "runner_metrics",
    [
      Alcotest.test_case "assess clean run" `Quick test_assess_clean;
      Alcotest.test_case "assess duplicate" `Quick test_assess_duplicate;
      Alcotest.test_case "assess not strong" `Quick test_assess_not_strong;
      Alcotest.test_case "assess mixed outcomes" `Quick
        test_assess_mixed_outcomes;
      Alcotest.test_case "assess order" `Quick test_assess_order_preserving;
      Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
      Alcotest.test_case "metrics instances independent" `Quick
        test_two_metrics_independent;
    ] )
