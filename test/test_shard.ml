(* The intra-round sharding layer, bottom up: the slot-partition
   property suite ([Repro_util.Shard]), the reusable barrier pool
   ([Repro_util.Domain_pool]), and the cross-domain determinism matrix —
   every algorithm of the evaluation harness, with and without faults,
   must produce byte-identical traces and assessments for every shard
   count. The matrix is the acceptance gate for the sharded engine: a
   divergence anywhere here means a shard observed or mutated state
   outside its slot range. *)

module Shard = Repro_util.Shard
module Pool = Repro_util.Domain_pool
module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module CR = Repro_renaming.Crash_renaming
module Trace = Repro_obs.Trace
module Tools = Repro_obs.Trace_tools
module Schedule = Repro_check.Schedule

(* {2 Slot partition: property suite} *)

let arb_n_shards =
  QCheck.make
    ~print:(fun (n, shards) -> Printf.sprintf "n=%d shards=%d" n shards)
    QCheck.Gen.(pair (int_bound 300) (int_range 1 40))

(* Contiguity, coverage and balance in one pass: ranges ascend in [k],
   tile [0, n) exactly, and differ in size by at most one with the
   larger ones first. *)
let qcheck_partition =
  QCheck.Test.make ~name:"shard ranges tile [0,n) balanced" ~count:500
    arb_n_shards (fun (n, shards) ->
      let ranges = List.init shards (fun k -> Shard.range ~n ~shards k) in
      let expected_lo = ref 0 in
      let small = n / shards and big = (n / shards) + 1 in
      List.iteri
        (fun k (lo, hi) ->
          if lo <> !expected_lo then
            QCheck.Test.fail_reportf "shard %d: lo=%d, expected %d" k lo
              !expected_lo;
          let size = hi - lo in
          let want = if k < n mod shards then big else small in
          if size <> want then
            QCheck.Test.fail_reportf "shard %d: size=%d, expected %d" k size
              want;
          expected_lo := hi)
        ranges;
      !expected_lo = n)

let qcheck_owner =
  QCheck.Test.make ~name:"owner agrees with range" ~count:500 arb_n_shards
    (fun (n, shards) ->
      n = 0
      ||
      let ok = ref true in
      for slot = 0 to n - 1 do
        let k = Shard.owner ~n ~shards slot in
        let lo, hi = Shard.range ~n ~shards k in
        if not (0 <= k && k < shards && lo <= slot && slot < hi) then
          ok := false
      done;
      !ok)

let qcheck_count_clamp =
  QCheck.Test.make ~name:"count = shards clamped to [1, max 1 n]" ~count:500
    arb_n_shards (fun (n, shards) ->
      Shard.count ~n ~shards = min shards (max 1 n))

(* The partition is a pure function of [(n, shards)] — same process or
   not. Pin a literal table so a change in the split rule (e.g. moving
   the larger ranges to the back) cannot slip through as "still
   balanced". *)
let test_byte_stability () =
  let check n shards expected =
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "range table n=%d shards=%d" n shards)
      expected
      (List.init shards (fun k -> Shard.range ~n ~shards k))
  in
  check 10 4 [ (0, 3); (3, 6); (6, 8); (8, 10) ];
  check 8 3 [ (0, 3); (3, 6); (6, 8) ];
  check 7 7 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ];
  check 5 1 [ (0, 5) ];
  (* more shards than slots: trailing ranges empty, count clamps *)
  check 3 5 [ (0, 1); (1, 2); (2, 3); (3, 3); (3, 3) ];
  Alcotest.(check int) "count clamps to n" 3 (Shard.count ~n:3 ~shards:5);
  (* the degenerate universe *)
  Alcotest.(check int) "count at n=0" 1 (Shard.count ~n:0 ~shards:8);
  Alcotest.(check (pair int int))
    "range at n=0" (0, 0)
    (Shard.range ~n:0 ~shards:1 0)

let test_invalid_args () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "count shards=0" (fun () -> Shard.count ~n:5 ~shards:0);
  raises "count n<0" (fun () -> Shard.count ~n:(-1) ~shards:2);
  raises "range k<0" (fun () -> Shard.range ~n:5 ~shards:2 (-1));
  raises "range k=shards" (fun () -> Shard.range ~n:5 ~shards:2 2);
  raises "owner slot=n" (fun () -> Shard.owner ~n:5 ~shards:2 5);
  raises "owner slot<0" (fun () -> Shard.owner ~n:5 ~shards:2 (-1))

(* {2 Domain pool} *)

let test_pool_each_index_once () =
  Pool.with_pool ~shards:4 (fun p ->
      Alcotest.(check int) "shards" 4 (Pool.shards p);
      let hits = Array.make 4 0 in
      Pool.run p (fun k -> hits.(k) <- hits.(k) + 1);
      Alcotest.(check (array int)) "one hit each" [| 1; 1; 1; 1 |] hits;
      (* the pool is reusable: a second job re-dispatches the same
         domains, same indices *)
      Pool.run p (fun k -> hits.(k) <- hits.(k) + 10);
      Alcotest.(check (array int)) "reused" [| 11; 11; 11; 11 |] hits)

let test_pool_single_shard_inline () =
  Pool.with_pool ~shards:1 (fun p ->
      let caller = Domain.self () in
      let seen = ref None in
      Pool.run p (fun k -> seen := Some (k, Domain.self ()));
      match !seen with
      | Some (0, d) when d = caller -> ()
      | Some (k, _) -> Alcotest.failf "ran shard %d off the caller" k
      | None -> Alcotest.fail "job did not run")

let test_pool_lowest_exn_wins () =
  Pool.with_pool ~shards:3 (fun p ->
      (match Pool.run p (fun k -> if k >= 1 then failwith (string_of_int k)) with
      | exception Failure k ->
          Alcotest.(check string) "lowest raising index" "1" k
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | () -> Alcotest.fail "expected a failure");
      (* the barrier completed and the pool survives the exception *)
      let hits = Array.make 3 0 in
      Pool.run p (fun k -> hits.(k) <- 1);
      Alcotest.(check (array int)) "usable after exn" [| 1; 1; 1 |] hits)

(* [with_pool] shuts its pool down when the job returns and when it
   raises: a pool kept past it refuses further jobs. *)
let test_pool_shutdown () =
  let run_after name p =
    match Pool.run p (fun _ -> ()) with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail (name ^ ": run after shutdown must raise")
  in
  run_after "returned"
    (Pool.with_pool ~shards:2 (fun p ->
         Pool.run p (fun _ -> ());
         p));
  let kept = ref None in
  (match
     Pool.with_pool ~shards:2 (fun p ->
         kept := Some p;
         failwith "job")
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "the job's exception must propagate");
  Option.iter (run_after "raised") !kept

let test_engine_rejects_zero_shards () =
  let ids = Array.init 8 (fun i -> i + 1) in
  match CR.run ~ids ~shards:0 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Engine.run ~shards:0 must raise"

(* {2 Cross-domain determinism matrix} *)

(* Every matrix point runs once per shard count with a trace recorder
   attached; the shards=1 run is the reference. Byte-equality of
   [Trace.contents] covers per-round metrics rows, the on-wire size
   histogram and crash/decide events; [Tools.diff] re-checks it at the
   record level so a failure names the first diverging round; the
   assessment comparison covers assignments and the headline totals. *)

let shard_counts = [ 1; 2; 4; 7 ]

let check_same_assessment name (a : Runner.assessment) (b : Runner.assessment)
    =
  Alcotest.(check (list (pair int int)))
    (name ^ ": assignments") a.Runner.assignments b.Runner.assignments;
  Alcotest.(check int) (name ^ ": rounds") a.Runner.rounds b.Runner.rounds;
  Alcotest.(check int) (name ^ ": messages") a.Runner.messages b.Runner.messages;
  Alcotest.(check int) (name ^ ": bits") a.Runner.bits b.Runner.bits;
  Alcotest.(check int)
    (name ^ ": byz messages") a.Runner.byz_messages b.Runner.byz_messages;
  Alcotest.(check int) (name ^ ": byz bits") a.Runner.byz_bits b.Runner.byz_bits;
  Alcotest.(check bool)
    (name ^ ": correctness agrees") a.Runner.correct b.Runner.correct

let check_matrix_point name run =
  let traced shards =
    let t = Trace.create ~meta:[ ("point", `Str name) ] () in
    let a = run ~trace:t ~shards in
    (Trace.contents t, a)
  in
  let ref_trace, ref_a = traced 1 in
  let summary =
    match Tools.summarize ref_trace with
    | Error m -> Alcotest.failf "%s: summarize failed: %s" name m
    | Ok { Tools.reconciled; _ } ->
        Alcotest.(check bool) (name ^ ": trace reconciles") true reconciled
  in
  summary;
  List.iter
    (fun shards ->
      if shards <> 1 then begin
        let tag = Printf.sprintf "%s [shards=%d]" name shards in
        let tr, a = traced shards in
        (match Tools.diff ~left:ref_trace ~right:tr with
        | Tools.Identical rounds ->
            Alcotest.(check bool)
              (tag ^ ": diff saw rounds") true (rounds > 0)
        | Tools.Diverged d ->
            Alcotest.failf "%s: trace diverges at round %d" tag
              d.Tools.d_round
        | Tools.Summary_mismatch _ ->
            Alcotest.failf "%s: summaries diverge" tag);
        Alcotest.(check string) (tag ^ ": trace bytes") ref_trace tr;
        check_same_assessment tag ref_a a
      end)
    shard_counts

let corpus_schedule () =
  let path =
    let local = Filename.concat "corpus" "crash_mid_send.sched" in
    if Sys.file_exists local then local
    else Filename.concat (Filename.concat "test" "corpus") "crash_mid_send.sched"
  in
  match Schedule.of_file path with
  | Ok s -> s
  | Error m -> Alcotest.failf "cannot load corpus schedule: %s" m

let scripted_of_schedule (s : Schedule.t) =
  List.map
    (fun { Schedule.cr_round; cr_victim; cr_delivery } ->
      ( cr_round,
        cr_victim,
        match cr_delivery with
        | Schedule.All -> `All
        | Schedule.Nothing -> `Nothing
        | Schedule.Subset salt -> `Subset salt ))
    s.Schedule.crashes

let test_matrix_crash () =
  let sched = corpus_schedule () in
  let scripted = E.Scripted_crashes (scripted_of_schedule sched) in
  List.iter
    (fun protocol ->
      let pname = E.crash_protocol_name protocol in
      (* fault-free point *)
      check_matrix_point
        (pname ^ "/no-fault")
        (fun ~trace ~shards ->
          E.run_crash ~trace ~shards ~protocol ~n:24 ~namespace:1536
            ~adversary:E.No_crash ~seed:9 ());
      (* frozen mid-send corpus schedule, replayed at its own scale *)
      check_matrix_point
        (pname ^ "/corpus")
        (fun ~trace ~shards ->
          E.run_crash ~trace ~shards ~protocol ~n:sched.Schedule.n
            ~namespace:sched.Schedule.namespace ~adversary:scripted
            ~seed:sched.Schedule.seed ()))
    [ E.This_work_crash; E.Halving_baseline; E.Flooding_baseline ]

let test_matrix_byz () =
  check_matrix_point "this_work_byz/split-world"
    (fun ~trace ~shards ->
      E.run_byz ~trace ~shards ~protocol:E.This_work_byz ~n:16
        ~namespace:1024 ~adversary:(E.Split_world_byz 2)
        ~pool_probability:0.7 ~seed:5 ())

let suite =
  ( "shard",
    [
      QCheck_alcotest.to_alcotest qcheck_partition;
      QCheck_alcotest.to_alcotest qcheck_owner;
      QCheck_alcotest.to_alcotest qcheck_count_clamp;
      Alcotest.test_case "partition byte-stability table" `Quick
        test_byte_stability;
      Alcotest.test_case "partition invalid arguments" `Quick
        test_invalid_args;
      Alcotest.test_case "pool: each index exactly once, reusable" `Quick
        test_pool_each_index_once;
      Alcotest.test_case "pool: one shard runs inline" `Quick
        test_pool_single_shard_inline;
      Alcotest.test_case "pool: lowest shard's exception wins" `Quick
        test_pool_lowest_exn_wins;
      Alcotest.test_case "pool: shut down after with_pool, also on a raise"
        `Quick test_pool_shutdown;
      Alcotest.test_case "engine rejects shards = 0" `Quick
        test_engine_rejects_zero_shards;
      Alcotest.test_case "matrix: crash algorithms x shards x faults"
        `Quick test_matrix_crash;
      Alcotest.test_case "matrix: byzantine algorithm x shards" `Quick
        test_matrix_byz;
    ] )
