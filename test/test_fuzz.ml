(* The lib/check fuzzing stack: schedule codec round-trips, corpus
   replay (byte-determinism + oracles green on stock code), the
   domain-count metamorphic property, and the ddmin shrinker against
   synthetic failure predicates. *)

module Schedule = Repro_check.Schedule
module Oracle = Repro_check.Oracle
module Fuzzer = Repro_check.Fuzzer
module Shrink = Repro_check.Shrink
module BS = Repro_renaming.Byz_strategies

let schedule = Alcotest.testable Schedule.pp Schedule.equal

(* {2 Schedule codec} *)

let roundtrip s =
  match Schedule.of_string (Schedule.to_string s) with
  | Ok s' -> Alcotest.check schedule "round-trip" (Schedule.normalize s) s'
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_schedule_roundtrip () =
  roundtrip
    {
      Schedule.algo = Schedule.Crash;
      n = 32;
      namespace = 2048;
      seed = 42;
      crashes =
        [
          { cr_round = 3; cr_victim = 17; cr_delivery = Schedule.All };
          { cr_round = 1; cr_victim = 9; cr_delivery = Schedule.Nothing };
          { cr_round = 1; cr_victim = 4; cr_delivery = Schedule.Subset 9001 };
        ];
      byz = [];
    };
  roundtrip
    {
      Schedule.algo = Schedule.Byz;
      n = 16;
      namespace = 512;
      seed = -7;
      crashes = [];
      byz =
        [
          { bz_id = 100; bz_behavior = BS.Equivocate };
          { bz_id = 12; bz_behavior = BS.Replay };
        ];
    };
  (* generated schedules round-trip too *)
  let config = Fuzzer.default_config ~n:16 ~seed:5 () in
  for i = 0 to 9 do
    roundtrip (Fuzzer.generate config i)
  done;
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (Schedule.of_string "algo crash\nn nope"))

let schedule_gen =
  QCheck.Gen.(
    let* algo = oneofl [ Schedule.Crash; Schedule.Byz ] in
    let* n = int_range 1 64 in
    let* seed = int_range (-1000) 1000 in
    let* crashes =
      list_size (int_range 0 6)
        (let* cr_round = int_range 0 99 in
         let* cr_victim = int_range 1 4096 in
         let* cr_delivery =
           oneof
             [
               return Schedule.All;
               return Schedule.Nothing;
               map (fun s -> Schedule.Subset s) (int_range 0 1_000_000);
             ]
         in
         return { Schedule.cr_round; cr_victim; cr_delivery })
    in
    let* byz =
      list_size (int_range 0 6)
        (let* bz_id = int_range 1 4096 in
         let* bz_behavior = oneofl BS.all_behaviors in
         return { Schedule.bz_id; bz_behavior })
    in
    return
      { Schedule.algo; n; namespace = 64 * n; seed; crashes; byz })

let qcheck_schedule_roundtrip =
  QCheck.Test.make ~name:"schedule text codec round-trips" ~count:300
    (QCheck.make ~print:Schedule.to_string schedule_gen)
    (fun s ->
      match Schedule.of_string (Schedule.to_string s) with
      | Ok s' -> Schedule.equal s s'
      | Error _ -> false)

(* {2 Corpus replay} *)

let corpus_file name =
  (* cwd is test/ under [dune runtest] but the project root under
     [dune exec test/main.exe] *)
  let local = Filename.concat "corpus" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "corpus") name

let replay_corpus name () =
  match Schedule.of_file (corpus_file name) with
  | Error m -> Alcotest.failf "cannot load %s: %s" name m
  | Ok s ->
      let trace1, v1 = Fuzzer.replay s in
      let trace2, v2 = Fuzzer.replay s in
      Alcotest.(check string) "byte-identical replay" trace1 trace2;
      Alcotest.(check (list string))
        "no violations on stock code" [] v1.Oracle.violations;
      Alcotest.(check (list string))
        "verdict deterministic" v1.Oracle.violations v2.Oracle.violations;
      (* the frozen text is already canonical: re-serializing the parsed
         schedule must reproduce the event lines exactly *)
      Alcotest.check schedule "canonical on disk" s (Schedule.normalize s)

(* {2 Metamorphic: domain-count invariance} *)

let test_domains_invariance () =
  let campaign domains =
    Fuzzer.campaign ~domains (Fuzzer.default_config ~n:16 ~trials:12 ~seed:11 ())
  in
  let r1 = campaign 1 and r4 = campaign 4 in
  Alcotest.(check int) "same length" (List.length r1) (List.length r4);
  List.iter2
    (fun (a : Fuzzer.report) (b : Fuzzer.report) ->
      Alcotest.(check int) "trial order" a.index b.index;
      Alcotest.check schedule "same schedule" a.schedule b.schedule;
      Alcotest.(check (list string))
        "same verdict" a.verdict.Oracle.violations b.verdict.Oracle.violations;
      Alcotest.(check bool)
        "same assessment" true
        (a.verdict.Oracle.assessment = b.verdict.Oracle.assessment))
    r1 r4

let test_byz_domains_invariance () =
  let campaign domains =
    Fuzzer.campaign ~domains
      (Fuzzer.default_config ~algo:Schedule.Byz ~n:16 ~trials:6 ~seed:11 ())
  in
  let r1 = campaign 1 and r4 = campaign 4 in
  List.iter2
    (fun (a : Fuzzer.report) (b : Fuzzer.report) ->
      Alcotest.check schedule "same schedule" a.schedule b.schedule;
      Alcotest.(check bool)
        "same verdict" true (a.verdict = b.verdict))
    r1 r4

(* {2 Metamorphic: shard-count invariance} *)

(* Intra-round sharding must be invisible to the fuzzing stack: a
   corpus replay's full printable document (schedule text + envelope
   trace + assessment + verdict) is byte-identical whether the run
   executes on one domain or several. *)
let test_shards_replay_invariance () =
  List.iter
    (fun name ->
      match Schedule.of_file (corpus_file name) with
      | Error m -> Alcotest.failf "cannot load %s: %s" name m
      | Ok s ->
          let doc1, v1 = Fuzzer.replay ~shards:1 s in
          List.iter
            (fun shards ->
              let doc, v = Fuzzer.replay ~shards s in
              Alcotest.(check string)
                (Printf.sprintf "%s: replay doc [shards=%d]" name shards)
                doc1 doc;
              Alcotest.(check (list string))
                (Printf.sprintf "%s: verdict [shards=%d]" name shards)
                v1.Oracle.violations v.Oracle.violations)
            [ 2; 4; 7 ])
    [ "crash_mid_send.sched"; "byz_mixed.sched" ]

(* {2 Live mini-campaigns} *)

let test_crash_campaign_green () =
  let reports =
    Fuzzer.campaign (Fuzzer.default_config ~n:24 ~trials:40 ~seed:3 ())
  in
  match Fuzzer.first_failure reports with
  | None -> ()
  | Some r ->
      Alcotest.failf "trial %d violated: %s" r.index
        (String.concat "; " r.verdict.Oracle.violations)

let test_byz_campaign_green () =
  let reports =
    Fuzzer.campaign
      (Fuzzer.default_config ~algo:Schedule.Byz ~n:16 ~trials:10 ~seed:3 ())
  in
  match Fuzzer.first_failure reports with
  | None -> ()
  | Some r ->
      Alcotest.failf "trial %d violated: %s" r.index
        (String.concat "; " r.verdict.Oracle.violations)

(* {2 Shrinker} *)

(* Synthetic predicates let us check 1-minimality exactly, without
   needing a real algorithm bug on hand. *)
let base_crash =
  {
    Schedule.algo = Schedule.Crash;
    n = 32;
    namespace = 2048;
    seed = 1;
    crashes =
      List.init 8 (fun i ->
          {
            Schedule.cr_round = i;
            cr_victim = 100 + i;
            cr_delivery =
              (if i mod 2 = 0 then Schedule.Subset (1000 + i)
               else Schedule.Nothing);
          });
    byz = [];
  }

let test_shrink_pair () =
  (* fails iff victims 102 and 105 both crash, whatever the mode *)
  let still_fails (s : Schedule.t) =
    let has v =
      List.exists (fun c -> c.Schedule.cr_victim = v) s.Schedule.crashes
    in
    has 102 && has 105
  in
  let m = Shrink.minimize ~still_fails base_crash in
  Alcotest.(check int) "two events left" 2 (Schedule.faults m);
  Alcotest.(check bool) "still fails" true (still_fails m);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "weakened to clean crash" true
        (c.Schedule.cr_delivery = Schedule.All))
    m.Schedule.crashes

let test_shrink_mode_sensitive () =
  (* fails iff some victim crashes mid-send: All must NOT be substituted *)
  let still_fails (s : Schedule.t) =
    List.exists
      (fun c ->
        match c.Schedule.cr_delivery with
        | Schedule.Subset _ -> true
        | _ -> false)
      s.Schedule.crashes
  in
  let m = Shrink.minimize ~still_fails base_crash in
  Alcotest.(check int) "one event left" 1 (Schedule.faults m);
  Alcotest.(check bool) "still fails" true (still_fails m)

let test_shrink_byz () =
  let base =
    {
      base_crash with
      Schedule.crashes = [];
      byz =
        [
          { Schedule.bz_id = 7; bz_behavior = BS.Noise };
          { Schedule.bz_id = 8; bz_behavior = BS.Misaddress };
          { Schedule.bz_id = 9; bz_behavior = BS.Equivocate };
        ];
    }
  in
  (* fails iff at least two byz identities, whatever they do: behaviours
     must simplify to Silence *)
  let still_fails (s : Schedule.t) = List.length s.Schedule.byz >= 2 in
  let m = Shrink.minimize ~still_fails base in
  Alcotest.(check int) "two events left" 2 (Schedule.faults m);
  List.iter
    (fun b ->
      Alcotest.(check bool)
        "behaviour simplified" true
        (b.Schedule.bz_behavior = BS.Silence))
    m.Schedule.byz

let test_shrink_requires_failing () =
  Alcotest.check_raises "non-failing input rejected"
    (Invalid_argument "Shrink.minimize: schedule does not fail") (fun () ->
      ignore (Shrink.minimize ~still_fails:(fun _ -> false) base_crash))

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "schedule round-trip" `Quick test_schedule_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_schedule_roundtrip;
      Alcotest.test_case "corpus crash_mid_send" `Quick
        (replay_corpus "crash_mid_send.sched");
      Alcotest.test_case "corpus byz_mixed" `Quick
        (replay_corpus "byz_mixed.sched");
      Alcotest.test_case "corpus crash_mutant_min" `Quick
        (replay_corpus "crash_mutant_min.sched");
      Alcotest.test_case "campaign domains 1 = 4" `Quick
        test_domains_invariance;
      Alcotest.test_case "byz campaign domains 1 = 4" `Quick
        test_byz_domains_invariance;
      Alcotest.test_case "corpus replay shards 1 = 2 = 4 = 7" `Quick
        test_shards_replay_invariance;
      Alcotest.test_case "crash mini-campaign green" `Quick
        test_crash_campaign_green;
      Alcotest.test_case "byz mini-campaign green" `Quick
        test_byz_campaign_green;
      Alcotest.test_case "shrink to failing pair" `Quick test_shrink_pair;
      Alcotest.test_case "shrink keeps needed mode" `Quick
        test_shrink_mode_sensitive;
      Alcotest.test_case "shrink byz behaviours" `Quick test_shrink_byz;
      Alcotest.test_case "shrink rejects passing input" `Quick
        test_shrink_requires_failing;
    ] )
