module FL = Repro_renaming.Flooding_renaming
module Runner = Repro_renaming.Runner
module Rng = Repro_util.Rng

let ids_of_n ?(seed = 0) n =
  Repro_renaming.Experiment.random_ids ~seed:(seed + 23) ~namespace:(40 * n) ~n

let test_no_failures () =
  let n = 20 in
  let ids = ids_of_n n in
  let res = FL.run ~params:{ rounds = `Fixed 1 } ~ids ~seed:1 () in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check bool) "order preserving" true a.order_preserving;
  Alcotest.(check (list int)) "exact [1..n]"
    (List.init n (fun i -> i + 1))
    (List.sort Int.compare (List.map snd a.assignments))

let test_tolerates_f_with_f_plus_one_rounds () =
  let n = 18 and f = 6 in
  let ids = ids_of_n n in
  let rng = Rng.of_seed 2 in
  let crash = FL.Net.Crash.random ~rng ~f ~horizon:(f + 1) () in
  let res = FL.run ~params:{ rounds = `Tolerate f } ~ids ~crash ~seed:3 () in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check bool) "order preserving" true a.order_preserving;
  Alcotest.(check int) "rounds = f+1" (f + 1) a.rounds

let test_one_round_breaks_under_mid_send_crash () =
  (* Why f+1 rounds are needed: with a single round, a mid-send crash
     splits the survivors' views and ranks can collide. This documents
     the failure mode (and that our assessment catches it). *)
  let ids = [| 10; 20; 30 |] in
  let crash obs =
    FL.Net.Orders
      (if obs.FL.Net.obs_round = 0 then
         [ { FL.Net.victim = 10; delivered = (fun e -> e.dst = 20) } ]
       else [])
  in
  let res = FL.run ~params:{ rounds = `Fixed 1 } ~ids ~crash ~seed:4 () in
  let a = Runner.assess res in
  (* Node 20 knows {10,20,30} and ranks itself 2; node 30 knows {20,30}
     and ranks itself 2 as well. *)
  Alcotest.(check bool) "collision detected" false a.unique

let test_two_rounds_fix_single_crash () =
  let ids = [| 10; 20; 30 |] in
  let crash obs =
    FL.Net.Orders
      (if obs.FL.Net.obs_round = 0 then
         [ { FL.Net.victim = 10; delivered = (fun e -> e.dst = 20) } ]
       else [])
  in
  let res = FL.run ~params:{ rounds = `Tolerate 1 } ~ids ~crash ~seed:5 () in
  let a = Runner.assess res in
  Alcotest.(check bool) "f+1 rounds restore uniqueness" true a.correct

let test_message_cost_quadratic_with_large_messages () =
  let n = 32 in
  let ids = ids_of_n n in
  let res = FL.run ~params:{ rounds = `Fixed 2 } ~ids ~seed:6 () in
  let m = res.metrics in
  Alcotest.(check int) "n² messages per round" (2 * n * n)
    m.Repro_sim.Metrics.honest_messages;
  (* Round 2 messages each carry ~n identities: Ω(n log N) bits. *)
  let avg_bits =
    float_of_int m.honest_bits /. float_of_int m.honest_messages
  in
  Alcotest.(check bool)
    (Printf.sprintf "avg bits/message %.0f = Ω(n)" avg_bits)
    true
    (avg_bits > float_of_int (n / 2))

let qcheck_flooding_correct =
  QCheck.Test.make ~name:"flooding: correct with f+1 rounds" ~count:80
    (QCheck.make
       ~print:(fun (n, f, seed) -> Printf.sprintf "n=%d f=%d seed=%d" n f seed)
       QCheck.Gen.(
         let* n = int_range 2 24 in
         let* f = int_range 0 (n - 1) in
         let* seed = int_range 0 50_000 in
         return (n, f, seed)))
    (fun (n, f, seed) ->
      let ids = ids_of_n ~seed n in
      let rng = Rng.of_seed (seed lxor 0x3c) in
      let crash = FL.Net.Crash.random ~rng ~f ~horizon:(f + 1) () in
      let res = FL.run ~params:{ rounds = `Tolerate f } ~ids ~crash ~seed () in
      let a = Runner.assess res in
      a.correct && a.order_preserving)

let suite =
  ( "flooding",
    [
      Alcotest.test_case "no failures" `Quick test_no_failures;
      Alcotest.test_case "tolerates f with f+1 rounds" `Quick
        test_tolerates_f_with_f_plus_one_rounds;
      Alcotest.test_case "1 round breaks under mid-send crash" `Quick
        test_one_round_breaks_under_mid_send_crash;
      Alcotest.test_case "2 rounds fix single crash" `Quick
        test_two_rounds_fix_single_crash;
      Alcotest.test_case "quadratic messages, large payloads" `Quick
        test_message_cost_quadratic_with_large_messages;
      QCheck_alcotest.to_alcotest qcheck_flooding_correct;
    ] )
