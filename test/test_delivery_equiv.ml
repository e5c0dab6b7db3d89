(* A never-firing crash adversary must be invisible.

   The engine has one delivery path: every outbox is normalized into
   the engine's per-sender buffers when the node yields, broadcasts go
   through shared per-round structure, and envelope records exist only
   where the API demands them — a crash adversary's observation and
   Byzantine inboxes. Attaching a crash adversary adds
   the observation (and, for its victims, a filter that compacts their
   buffers) but must not change a single delivered byte. These tests pin
   that for E1-style runs of all four algorithms.

   The "fast" arm attaches no adversary ([?crash] absent, which is also
   what [E.No_crash] does), so the engine never builds an observation.
   The "fallback" arm attaches one that returns [Orders \[\]] every
   round: it never orders a crash and never retires, so the engine
   builds the observation in every round of the run. Same traffic, with
   and without the crash machinery armed: everything observable must
   coincide. *)

module E = Repro_renaming.Experiment
module H = Crash_harness
module Runner = Repro_renaming.Runner
module Trace = Repro_obs.Trace
module Tools = Repro_obs.Trace_tools
module Metrics = Repro_sim.Metrics

let n = 24
let namespace = 1536
let seed = 9
(* Unobserved and observed runs of the same traffic. *)
let fast = None
let fallback = Some H.Observer

let crash_protocols =
  [ E.This_work_crash; E.Halving_baseline; E.Flooding_baseline ]

let run_traced ?shards ~protocol ~adversary () =
  let t =
    Trace.create ~meta:[ ("algo", `Str (E.crash_protocol_name protocol)) ] ()
  in
  let a =
    H.run ?shards ~trace:t ~protocol ~n ~namespace ~adversary ~seed ()
  in
  (Trace.contents t, a)

let summary_text name contents =
  match Tools.summarize contents with
  | Error m -> Alcotest.failf "%s: summarize failed: %s" name m
  | Ok { Tools.text; reconciled } ->
      Alcotest.(check bool) (name ^ ": reconciled") true reconciled;
      text

let check_same_assessment name (a : Runner.assessment)
    (b : Runner.assessment) =
  Alcotest.(check (list (pair int int)))
    (name ^ ": assignments") a.Runner.assignments b.Runner.assignments;
  Alcotest.(check int) (name ^ ": rounds") a.Runner.rounds b.Runner.rounds;
  Alcotest.(check int) (name ^ ": messages") a.Runner.messages
    b.Runner.messages;
  Alcotest.(check int) (name ^ ": bits") a.Runner.bits b.Runner.bits;
  Alcotest.(check int) (name ^ ": byz messages") a.Runner.byz_messages
    b.Runner.byz_messages;
  Alcotest.(check int) (name ^ ": byz bits") a.Runner.byz_bits
    b.Runner.byz_bits;
  Alcotest.(check bool) (name ^ ": both correct") true
    (a.Runner.correct && b.Runner.correct)

(* Traced (tap armed) runs: the full trace — per-round metrics rows,
   size histograms, crash/decide events — must be byte-identical across
   the two delivery paths, and so must the trace_cli summary rendering. *)
let test_traces_byte_identical () =
  List.iter
    (fun protocol ->
      let name = E.crash_protocol_name protocol in
      let tr_fast, a_fast = run_traced ~protocol ~adversary:fast () in
      let tr_fb, a_fb = run_traced ~protocol ~adversary:fallback () in
      Alcotest.(check string) (name ^ ": trace bytes") tr_fast tr_fb;
      Alcotest.(check string)
        (name ^ ": trace_cli summary text")
        (summary_text (name ^ " fast") tr_fast)
        (summary_text (name ^ " fallback") tr_fb);
      check_same_assessment name a_fast a_fb)
    crash_protocols

(* Untraced (no tap) runs: an unobserved run then materializes nothing
   at all; the assessment must still match the taped runs of both
   variants, and [Experiment]'s own [No_crash] run. *)
let test_tap_does_not_perturb () =
  List.iter
    (fun protocol ->
      let name = E.crash_protocol_name protocol in
      check_same_assessment
        (Printf.sprintf "%s (Experiment No_crash vs fast)" name)
        (E.run_crash ~protocol ~n ~namespace ~adversary:E.No_crash ~seed ())
        (H.run ~protocol ~n ~namespace ~adversary:fast ~seed ());
      List.iter
        (fun (variant, adversary) ->
          let plain = H.run ~protocol ~n ~namespace ~adversary ~seed () in
          let _, traced = run_traced ~protocol ~adversary () in
          check_same_assessment
            (Printf.sprintf "%s (%s, tap on/off)" name variant)
            plain traced)
        [ ("fast", fast); ("fallback", fallback) ])
    crash_protocols

(* [Metrics.reconcile] on the engine's own metrics record — not the
   assessment's derived view — must hold in both variants. Driven
   through the protocol wrappers directly: no [?crash], and a closure
   that observes every round and never retires. *)
let test_metrics_reconcile_both_paths () =
  let module CR = Repro_renaming.Crash_renaming in
  let module HR = Repro_renaming.Halving_renaming in
  let module FR = Repro_renaming.Flooding_renaming in
  let ids = Array.init n (fun i -> (i * 61) + 7) in
  let check name (res : int Repro_sim.Engine.run_result) =
    (match Metrics.reconcile res.Repro_sim.Engine.metrics with
    | [] -> ()
    | (field, rows, total) :: _ ->
        Alcotest.failf "%s: %s rows sum to %d, total %d" name field rows
          total);
    res.Repro_sim.Engine.outcomes
  in
  let pair name run_fast run_fallback =
    let o_fast = check (name ^ " fast") (run_fast ()) in
    let o_fb = check (name ^ " fallback") (run_fallback ()) in
    Alcotest.(check bool) (name ^ ": same outcomes") true (o_fast = o_fb)
  in
  pair "crash_renaming"
    (fun () -> CR.run ~ids ~seed ())
    (fun () -> CR.run ~ids ~crash:(fun _ -> CR.Net.Orders []) ~seed ());
  pair "halving_renaming"
    (fun () -> HR.run ~ids ~seed ())
    (fun () -> HR.run ~ids ~crash:(fun _ -> HR.Net.Orders []) ~seed ());
  pair "flooding_renaming"
    (fun () -> FR.run ~ids ~seed ())
    (fun () -> FR.run ~ids ~crash:(fun _ -> FR.Net.Orders []) ~seed ())

(* Sharding composes with both variants: splitting the round across
   domains must not perturb either the unobserved run or the one with
   an armed crash observer. Trace bytes are the strictest equality we
   have, so compare those across shard counts per variant. *)
let test_sharded_paths_byte_identical () =
  List.iter
    (fun protocol ->
      let name = E.crash_protocol_name protocol in
      List.iter
        (fun (variant, adversary) ->
          let tr1, a1 = run_traced ~shards:1 ~protocol ~adversary () in
          let tr4, a4 = run_traced ~shards:4 ~protocol ~adversary () in
          let tag = Printf.sprintf "%s (%s, shards 1 vs 4)" name variant in
          Alcotest.(check string) (tag ^ ": trace bytes") tr1 tr4;
          check_same_assessment tag a1 a4)
        [ ("fast", fast); ("fallback", fallback) ])
    crash_protocols

(* The Byzantine algorithm: no crash adversary, but Byzantine inboxes
   are the second sanctioned materialization point; a traced (tap armed)
   and an untraced run must agree, and the trace must reconcile. *)
let test_byzantine_tap_equivalence () =
  let run ?trace () =
    E.run_byz ?trace ~protocol:E.This_work_byz ~n:16 ~namespace:1024
      ~adversary:(E.Split_world_byz 2) ~pool_probability:0.7 ~seed:5 ()
  in
  let t =
    Trace.create ~meta:[ ("algo", `Str (E.byz_protocol_name E.This_work_byz)) ] ()
  in
  let traced = run ~trace:t () in
  let plain = run () in
  check_same_assessment "this_work_byz (tap on/off)" plain traced;
  ignore (summary_text "this_work_byz" (Trace.contents t))

let suite =
  ( "delivery-equiv",
    [
      Alcotest.test_case "fast vs fallback: byte-identical traces" `Quick
        test_traces_byte_identical;
      Alcotest.test_case "tap on/off does not perturb either path" `Quick
        test_tap_does_not_perturb;
      Alcotest.test_case "Metrics.reconcile on both paths" `Quick
        test_metrics_reconcile_both_paths;
      Alcotest.test_case "sharding preserves both paths byte-for-byte"
        `Quick test_sharded_paths_byte_identical;
      Alcotest.test_case "byzantine: tap on/off equivalence" `Quick
        test_byzantine_tap_equivalence;
    ] )
