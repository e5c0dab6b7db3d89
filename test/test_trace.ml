(* The run-trace subsystem end to end: determinism (byte-identical
   re-runs), reconciliation of per-round rows against run totals for
   every E1-table algorithm, and the Trace_tools diff/summary consumers
   trace_cli is a thin wrapper over. *)

module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Trace = Repro_obs.Trace
module Tools = Repro_obs.Trace_tools

let crash_trace ?timings ~protocol ~seed () =
  let t =
    Trace.create ?timings
      ~meta:[ ("algo", `Str (E.crash_protocol_name protocol)) ]
      ()
  in
  let a =
    E.run_crash ~trace:t ~protocol ~n:24 ~namespace:1536
      ~adversary:(E.Committee_killer 4) ~seed ()
  in
  (t, a)

let byz_trace ~protocol ~seed () =
  let t =
    Trace.create ~meta:[ ("algo", `Str (E.byz_protocol_name protocol)) ] ()
  in
  let a =
    E.run_byz ~trace:t ~protocol ~n:16 ~namespace:1024
      ~adversary:(E.Split_world_byz 2) ~pool_probability:0.7 ~seed ()
  in
  (t, a)

let test_byte_identical_reruns () =
  let t1, _ = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  let t2, _ = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  Alcotest.(check string) "same seed, byte-identical trace"
    (Trace.contents t1) (Trace.contents t2);
  let b1, _ = byz_trace ~protocol:E.This_work_byz ~seed:5 () in
  let b2, _ = byz_trace ~protocol:E.This_work_byz ~seed:5 () in
  Alcotest.(check string) "byz run too" (Trace.contents b1)
    (Trace.contents b2)

(* The trace's own record of the run must reproduce the Metrics totals
   exactly, for every algorithm E1's table compares. *)
let check_trace_reconciles name contents (a : Runner.assessment) =
  (match Tools.summarize contents with
  | Error m -> Alcotest.failf "%s: summarize failed: %s" name m
  | Ok { Tools.reconciled; _ } ->
      Alcotest.(check bool) (name ^ ": rows sum to totals") true reconciled);
  let rounds = Tools.round_lines contents in
  Alcotest.(check int) (name ^ ": one record per round") a.Runner.rounds
    (List.length rounds);
  let sum key =
    List.fold_left
      (fun acc line ->
        match Tools.int_field line key with
        | Some v -> acc + v
        | None -> Alcotest.failf "%s: round line missing %s" name key)
      0 rounds
  in
  Alcotest.(check int) (name ^ ": honest msgs") a.Runner.messages
    (sum "honest_msgs");
  Alcotest.(check int) (name ^ ": honest bits") a.Runner.bits
    (sum "honest_bits");
  Alcotest.(check int) (name ^ ": byz msgs") a.Runner.byz_messages
    (sum "byz_msgs");
  Alcotest.(check int) (name ^ ": byz bits") a.Runner.byz_bits (sum "byz_bits")

let test_reconciles_all_e1_algorithms () =
  List.iter
    (fun protocol ->
      let t, a = crash_trace ~protocol ~seed:7 () in
      check_trace_reconciles
        (E.crash_protocol_name protocol)
        (Trace.contents t) a)
    [ E.This_work_crash; E.Halving_baseline; E.Flooding_baseline ];
  List.iter
    (fun protocol ->
      let t, a = byz_trace ~protocol ~seed:13 () in
      check_trace_reconciles (E.byz_protocol_name protocol) (Trace.contents t)
        a)
    [ E.This_work_byz; E.Everyone_byz ]

let test_crash_decide_events () =
  let t, a = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  let rounds = Tools.round_lines (Trace.contents t) in
  let collect key =
    List.concat_map
      (fun line ->
        match Tools.int_list_field line key with Some l -> l | None -> [])
      rounds
  in
  Alcotest.(check int) "every crash event recorded once" a.Runner.crashed
    (List.length (collect "crashes"));
  Alcotest.(check int) "every decide event recorded once" a.Runner.decided
    (List.length (collect "decides"));
  (* The decide events carry the original identities of the deciders. *)
  Alcotest.(check (list int)) "decide ids = assessed deciders"
    (List.map fst a.Runner.assignments)
    (List.sort Int.compare (collect "decides"))

let test_diff_identical_and_diverged () =
  let t1, _ = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  let t2, _ = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  let t3, _ = crash_trace ~protocol:E.This_work_crash ~seed:4 () in
  (match Tools.diff ~left:(Trace.contents t1) ~right:(Trace.contents t2) with
  | Tools.Identical n ->
      Alcotest.(check bool) "compared all rounds" true (n > 0)
  | _ -> Alcotest.fail "same-seed traces must be identical");
  match Tools.diff ~left:(Trace.contents t1) ~right:(Trace.contents t3) with
  | Tools.Diverged { d_round; d_left; d_right } ->
      Alcotest.(check bool) "divergence round is >= 0" true (d_round >= 0);
      Alcotest.(check bool) "both sides present" true
        (d_left <> None && d_right <> None);
      Alcotest.(check bool) "sides differ" true (d_left <> d_right)
  | _ -> Alcotest.fail "different-seed traces must diverge"

let test_timings_strip_to_untimed () =
  let timed, _ = crash_trace ~timings:true ~protocol:E.This_work_crash ~seed:3 () in
  let plain, _ = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  (* A timed trace carries wall_ns/alloc_words; stripped, it must be
     structurally identical to the untimed recording of the same run. *)
  (match Tools.diff ~left:(Trace.contents timed) ~right:(Trace.contents plain)
   with
  | Tools.Identical _ -> ()
  | _ -> Alcotest.fail "diff must ignore the timing fields");
  let timed_round = List.hd (Tools.round_lines (Trace.contents timed)) in
  let plain_round = List.hd (Tools.round_lines (Trace.contents plain)) in
  Alcotest.(check bool) "timed line has wall_ns" true
    (Tools.int_field timed_round "wall_ns" <> None);
  Alcotest.(check bool) "plain line does not" true
    (Tools.int_field plain_round "wall_ns" = None)

let test_finish_twice_rejected () =
  let t, _ = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  (* run_crash already finished the trace. *)
  Alcotest.check_raises "finish is once-only"
    (Invalid_argument "Trace.finish: already finished") (fun () ->
      Trace.finish t (Repro_sim.Metrics.create ()))

let test_write_file_roundtrip () =
  let t, _ = crash_trace ~protocol:E.This_work_crash ~seed:3 () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trace_test_%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Trace.write_file t path;
      Alcotest.(check bool) "no temp left" false
        (Sys.file_exists (path ^ ".tmp"));
      let on_disk = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "file = contents" (Trace.contents t) on_disk)

(* Recording costs at most one minor word per tapped message over the
   untraced run: the tap hands over the billed size, and the round's
   size histogram is an int array, so nothing is built per message. A
   1-shard run's minor words are deterministic. *)
let test_recorder_allocation () =
  let n = 512 in
  let run trace =
    let w0 = Gc.minor_words () in
    let a =
      E.run_crash ?trace ~shards:1 ~protocol:E.This_work_crash ~n
        ~namespace:(64 * n) ~adversary:E.No_crash ~seed:42 ()
    in
    (Gc.minor_words () -. w0, a)
  in
  let untraced, a = run None in
  let traced, _ = run (Some (Trace.create ())) in
  let per_msg = (traced -. untraced) /. float_of_int a.Runner.messages in
  Alcotest.(check bool)
    (Printf.sprintf
       "%.3f extra minor words per tapped message over %d messages (limit 1)"
       per_msg a.Runner.messages)
    true (per_msg <= 1.)

let suite =
  ( "trace",
    [
      Alcotest.test_case "byte-identical re-runs" `Quick
        test_byte_identical_reruns;
      Alcotest.test_case "reconciles for every E1 algorithm" `Slow
        test_reconciles_all_e1_algorithms;
      Alcotest.test_case "crash/decide events complete" `Quick
        test_crash_decide_events;
      Alcotest.test_case "diff: identical and diverged" `Quick
        test_diff_identical_and_diverged;
      Alcotest.test_case "timings strip to the untimed trace" `Quick
        test_timings_strip_to_untimed;
      Alcotest.test_case "finish is once-only" `Quick
        test_finish_twice_rejected;
      Alcotest.test_case "write_file roundtrip" `Quick
        test_write_file_roundtrip;
      Alcotest.test_case "recorder allocation per tapped message" `Quick
        test_recorder_allocation;
    ] )
