(* The all-to-all halving baseline is the crash algorithm with committee
   = everyone; these tests pin its cost profile and its safety under the
   ghost-status scenarios that break naive per-own-view halving. *)

module H = Repro_renaming.Halving_renaming
module Runner = Repro_renaming.Runner
module Rng = Repro_util.Rng
module Ilog = Repro_util.Ilog

let ids_of_n ?(seed = 0) n =
  Repro_renaming.Experiment.random_ids ~seed:(seed + 31) ~namespace:(40 * n) ~n

let test_no_failures () =
  let n = 21 in
  let ids = ids_of_n n in
  let a = Runner.assess (H.run ~ids ~seed:1 ()) in
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check (list int)) "exact [1..n]"
    (List.init n (fun i -> i + 1))
    (List.sort Int.compare (List.map snd a.assignments))

let test_ghost_status_scenario () =
  (* The scenario from the design discussion: a dying node delivers its
     status to a strict subset, inflating some ranks and not others. The
     verdict round's deepest-then-leftmost selection keeps survivors
     collision-free. *)
  let ids = [| 1; 2; 3; 4; 5 |] in
  (* Node 1 crashes mid-send in the status round of phase 1 (round index
     1), delivering only to nodes 2 and 3. *)
  let crash obs =
    H.Net.Orders
      (if obs.H.Net.obs_round = 1 then
         [ { H.Net.victim = 1; delivered = (fun e -> e.dst <= 3) } ]
       else [])
  in
  let a = Runner.assess (H.run ~ids ~crash ~seed:2 ()) in
  Alcotest.(check bool) "correct despite ghost status" true a.correct;
  Alcotest.(check int) "four survivors" 4 a.decided

let test_quadratic_message_profile () =
  let n = 24 in
  let ids = ids_of_n n in
  let res = H.run ~ids ~seed:3 () in
  let per_round = Repro_sim.Metrics.messages_by_round res.metrics in
  (* With committee = everyone, every round carries exactly n² messages. *)
  Array.iteri
    (fun r c ->
      Alcotest.(check int) (Printf.sprintf "round %d" r) (n * n) c)
    per_round;
  Alcotest.(check int) "rounds" (9 * Ilog.ceil_log2 n) (Array.length per_round)

let qcheck_correct_under_crashes =
  QCheck.Test.make ~name:"halving baseline: correct under crashes" ~count:80
    (QCheck.make
       ~print:(fun (n, f, partial, seed) ->
         Printf.sprintf "n=%d f=%d partial=%b seed=%d" n f partial seed)
       QCheck.Gen.(
         let* n = int_range 2 24 in
         let* f = int_range 0 (n - 1) in
         let* partial = bool in
         let* seed = int_range 0 50_000 in
         return (n, f, partial, seed)))
    (fun (n, f, partial, seed) ->
      let ids = ids_of_n ~seed n in
      let rng = Rng.of_seed (seed lxor 0x91) in
      let crash =
        H.Net.Crash.random ~rng ~f
          ~horizon:(9 * max 1 (Ilog.ceil_log2 n))
          ~mid_send_prob:(if partial then 1. else 0.)
          ()
      in
      let a = Runner.assess (H.run ~ids ~crash ~seed ()) in
      a.correct && a.decided + a.crashed = n)

let suite =
  ( "halving_baseline",
    [
      Alcotest.test_case "no failures" `Quick test_no_failures;
      Alcotest.test_case "ghost status scenario" `Quick
        test_ghost_status_scenario;
      Alcotest.test_case "quadratic message profile" `Quick
        test_quadratic_message_profile;
      QCheck_alcotest.to_alcotest qcheck_correct_under_crashes;
    ] )
