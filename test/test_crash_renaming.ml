(* End-to-end tests of Theorem 1.2's algorithm: correctness under no
   failures, random adaptive crashes (including mid-send), and the
   committee-killer strategy its competitive analysis is about. *)

module CR = Repro_renaming.Crash_renaming
module Runner = Repro_renaming.Runner
module Engine = Repro_sim.Engine
module Rng = Repro_util.Rng
module Ilog = Repro_util.Ilog

let ids_of_n ?(seed = 0) ?(namespace = 0) n =
  let namespace = if namespace = 0 then 50 * n else namespace in
  Repro_renaming.Experiment.random_ids ~seed:(seed + 17) ~namespace ~n

let test_no_failures_exact_permutation () =
  List.iter
    (fun n ->
      let ids = ids_of_n n in
      let res = CR.run ~ids ~seed:1 () in
      let a = Runner.assess res in
      Alcotest.(check bool) (Printf.sprintf "n=%d correct" n) true a.correct;
      Alcotest.(check int) (Printf.sprintf "n=%d all decide" n) n a.decided;
      let news = List.sort Int.compare (List.map snd a.assignments) in
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d exact [1..n]" n)
        (List.init n (fun i -> i + 1))
        news)
    [ 1; 2; 3; 5; 8; 16; 33; 64 ]

let test_round_bound_deterministic () =
  List.iter
    (fun n ->
      let ids = ids_of_n n in
      let res = CR.run ~ids ~seed:2 () in
      let expected = if n = 1 then 0 else 9 * Ilog.ceil_log2 n in
      Alcotest.(check int)
        (Printf.sprintf "n=%d rounds = 9·⌈log n⌉" n)
        expected res.metrics.Repro_sim.Metrics.rounds)
    [ 1; 2; 7; 32; 50 ]

let test_survivors_unique_under_targeted_crashes () =
  let n = 16 in
  let ids = ids_of_n n in
  (* Kill three specific nodes at phase boundaries. *)
  let schedule = [ (0, ids.(0)); (4, ids.(5)); (10, ids.(15)) ] in
  let res = CR.run ~ids ~seed:3 ~crash:(CR.Net.Crash.scripted (Crash_harness.targeted schedule)) () in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check int) "three crashed" 3 a.crashed;
  Alcotest.(check int) "rest decided" (n - 3) a.decided

let test_whole_initial_committee_killed () =
  (* The committee killer with a large budget forces the re-election path
     (Lemma 2.4): survivors must still all decide uniquely. *)
  let n = 32 in
  let ids = ids_of_n n in
  let rng = Rng.of_seed 4 in
  let crash = CR.Net.Crash.committee_killer ~rng ~budget:(n - 1) () in
  let res = CR.run ~ids ~seed:5 ~crash () in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check bool) "someone survived and decided" true (a.decided >= 1);
  Alcotest.(check bool) "killer actually spent crashes" true (a.crash_cost > 0)

let test_mid_send_committee_killer () =
  let n = 24 in
  let ids = ids_of_n n in
  let rng = Rng.of_seed 6 in
  let crash = CR.Net.Crash.committee_killer ~rng ~budget:12 ~partial:true () in
  let res = CR.run ~ids ~seed:7 ~crash () in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct under mid-send kills" true a.correct

let test_message_cap () =
  (* Theorem 1.2: never more than Θ(n² log n) messages, even with the
     committee saturated. Verified against the halving baseline, which is
     this algorithm with committee = everyone. *)
  let n = 32 in
  let ids = ids_of_n n in
  let res = Repro_renaming.Halving_renaming.run ~ids ~seed:8 () in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check bool)
    (Printf.sprintf "messages %d <= 9·n²·⌈log n⌉" a.messages)
    true
    (a.messages <= 9 * n * n * Ilog.ceil_log2 n)

let test_no_failure_messages_scale_quasilinearly () =
  (* With f = 0 the committee stays Θ(log n), so the committee algorithm
     must send a small fraction of what the same-structure all-to-all
     baseline sends at the same n. *)
  let n = 128 in
  let ids = ids_of_n n in
  let a = Runner.assess (CR.run ~ids ~seed:9 ()) in
  let b = Runner.assess (Repro_renaming.Halving_renaming.run ~ids ~seed:9 ()) in
  Alcotest.(check bool) "correct" true (a.correct && b.correct);
  Alcotest.(check bool)
    (Printf.sprintf "committee %d << all-to-all %d messages" a.messages
       b.messages)
    true
    (5 * a.messages < b.messages)

let test_paper_params_small_n_degenerate_to_all_committee () =
  (* With the paper's constant 256 the election probability saturates at
     1 for small n: everyone is a committee member and the run is still
     correct. *)
  let n = 12 in
  let ids = ids_of_n n in
  let res = CR.run ~params:CR.paper_params ~ids ~seed:10 () in
  let a = Runner.assess res in
  Alcotest.(check bool) "correct" true a.correct;
  Alcotest.(check int) "all decide" n a.decided

let test_message_sizes_are_logarithmic () =
  (* Every message must be O(log N) bits: check the per-message average
     of a run against a generous 4·log2 N + 16 bound. *)
  let n = 64 in
  let namespace = 100 * n in
  let ids = ids_of_n ~namespace n in
  let res = CR.run ~ids ~seed:11 () in
  let m = res.metrics in
  let avg =
    float_of_int m.Repro_sim.Metrics.honest_bits
    /. float_of_int (max 1 m.Repro_sim.Metrics.honest_messages)
  in
  Alcotest.(check bool)
    (Printf.sprintf "avg bits/message %.1f = O(log N)" avg)
    true
    (avg <= (4. *. float_of_int (Ilog.ceil_log2 namespace)) +. 16.)

let scenario_gen =
  QCheck.make
    ~print:(fun (n, f, kind, seed) ->
      Printf.sprintf "n=%d f=%d kind=%d seed=%d" n f kind seed)
    QCheck.Gen.(
      let* n = int_range 2 40 in
      let* f = int_range 0 (n - 1) in
      let* kind = int_range 0 3 in
      let* seed = int_range 0 100_000 in
      return (n, f, kind, seed))

let qcheck_always_correct =
  QCheck.Test.make
    ~name:"crash renaming: unique+strong under adaptive adversaries"
    ~count:150 scenario_gen (fun (n, f, kind, seed) ->
      let ids = ids_of_n ~seed n in
      let rng = Rng.of_seed (seed lxor 0x777) in
      let crash =
        match kind with
        | 0 ->
            CR.Net.Crash.random ~rng ~f
              ~horizon:(9 * max 1 (Ilog.ceil_log2 n))
              ()
        | 1 -> CR.Net.Crash.committee_killer ~rng ~budget:f ()
        | 2 -> CR.Net.Crash.committee_killer ~rng ~budget:f ~partial:true ()
        | _ -> CR.Net.Crash.patient_killer ~budget:f ()
      in
      let a = Runner.assess (CR.run ~ids ~seed ~crash ()) in
      a.correct
      && a.decided + a.crashed = n
      && List.for_all (fun (_, v) -> 1 <= v && v <= n) a.assignments)

(* The phase loop allocates only what the protocol needs: the runtime's
   continuation at each of a phase's three yields, a [Status] when the
   node's [(iv, d, p)] changed and the committee array when the
   membership changed. The engine's resume bracket holds everything the
   fibers allocate; the committee's own allocation, a member's record
   included, is taken out through [alloc_emit], and what is left is
   spread over every node's phases. *)
let test_phase_loop_allocation () =
  let n = 256 in
  let ids = ids_of_n n in
  let emit = ref 0. in
  let probe = Engine.alloc_probe () in
  let res =
    CR.Net.run ~ids ~alloc_probe:probe ~seed:1 ~shards:1
      ~program:(CR.program ~alloc_emit:emit CR.experiment_params)
      ()
  in
  Alcotest.(check bool) "correct" true (Runner.assess res).correct;
  let node_phases = n * CR.phases CR.experiment_params ~n in
  let per_phase =
    (probe.Engine.ap_resume -. !emit) /. float_of_int node_phases
  in
  (* 10.724 when recorded: 6 for the three continuations, the statuses
     and the committee array each node copies when the membership
     changes, and the rest per-run setup. It read 21.399 while each node
     built the committee as a list and the members' [Committee.create]
     columns (8.0, under [Max_young_wosize] at this n) were counted
     here rather than with the committee, and 47.315 when every yield
     boxed a fresh [Running k] and the phase loop built its announcement
     sweep (with its counter), committee list match and telemetry
     closures every phase. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per node-phase <= 11.8" per_phase)
    true (per_phase <= 11.8)

let suite =
  ( "crash_renaming",
    [
      Alcotest.test_case "no failures: exact [1..n]" `Quick
        test_no_failures_exact_permutation;
      Alcotest.test_case "deterministic round bound" `Quick
        test_round_bound_deterministic;
      Alcotest.test_case "targeted crashes" `Quick
        test_survivors_unique_under_targeted_crashes;
      Alcotest.test_case "whole committee killed" `Quick
        test_whole_initial_committee_killed;
      Alcotest.test_case "mid-send committee killer" `Quick
        test_mid_send_committee_killer;
      Alcotest.test_case "message cap (all-to-all committee)" `Quick
        test_message_cap;
      Alcotest.test_case "quasilinear messages at f=0" `Quick
        test_no_failure_messages_scale_quasilinearly;
      Alcotest.test_case "paper constants degenerate correctly" `Quick
        test_paper_params_small_n_degenerate_to_all_committee;
      Alcotest.test_case "message sizes O(log N)" `Quick
        test_message_sizes_are_logarithmic;
      Alcotest.test_case "phase loop allocation" `Quick
        test_phase_loop_allocation;
      QCheck_alcotest.to_alcotest qcheck_always_correct;
    ] )
