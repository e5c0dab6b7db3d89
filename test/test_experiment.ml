module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner

let test_random_ids () =
  let ids = E.random_ids ~seed:1 ~namespace:1000 ~n:50 in
  Alcotest.(check int) "count" 50 (Array.length ids);
  Alcotest.(check int) "distinct" 50
    (List.length (List.sort_uniq Int.compare (Array.to_list ids)));
  Array.iter
    (fun id -> Alcotest.(check bool) "in namespace" true (1 <= id && id <= 1000))
    ids;
  let again = E.random_ids ~seed:1 ~namespace:1000 ~n:50 in
  Alcotest.(check (array int)) "deterministic" ids again

let test_crash_protocols_all_correct () =
  List.iter
    (fun protocol ->
      List.iter
        (fun adversary ->
          let a =
            E.run_crash ~protocol ~n:20 ~namespace:800 ~adversary ~seed:7 ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/f=%d correct"
               (E.crash_protocol_name protocol)
               (E.crash_adversary_f adversary))
            true a.Runner.correct)
        [ E.No_crash; E.Random_crashes 5; E.Committee_killer 6;
          E.Committee_killer_partial 4 ])
    [ E.This_work_crash; E.Halving_baseline; E.Flooding_baseline ]

let byz_f = function
  | E.No_byz -> 0
  | E.Silent_byz f | E.Noise_byz f | E.Split_world_byz f -> f

let test_byz_protocols_correct () =
  List.iter
    (fun protocol ->
      List.iter
        (fun adversary ->
          let a =
            E.run_byz ~protocol ~n:20 ~namespace:400 ~adversary
              ~pool_probability:0.7 ~seed:13 ()
          in
          let f = byz_f adversary in
          Alcotest.(check bool)
            (Printf.sprintf "%s/f=%d unique+strong"
               (E.byz_protocol_name protocol)
               f)
            true
            (a.Runner.unique && a.Runner.strong);
          Alcotest.(check int)
            (Printf.sprintf "%s/f=%d honest decide"
               (E.byz_protocol_name protocol)
               f)
            (20 - f) a.Runner.decided)
        [ E.No_byz; E.Silent_byz 3; E.Noise_byz 3 ])
    [ E.This_work_byz; E.Everyone_byz ]

let test_averaged () =
  let trial i =
    E.run_crash ~protocol:E.This_work_crash ~n:16 ~namespace:500
      ~adversary:(E.Committee_killer 3) ~seed:(E.trial_seed ~seed:5 i) ()
  in
  let serial = List.init 3 trial in
  let mean f =
    List.fold_left (fun acc a -> acc +. float_of_int (f a)) 0. serial /. 3.
  in
  List.iter
    (fun domains ->
      (* Fan out, then aggregate: float equality with the serial means. *)
      let last, rounds, messages, bits =
        E.averaged (Repro_renaming.Parallel.map_list ~domains 3 trial)
      in
      let at = Printf.sprintf " at %d domains" domains in
      Alcotest.(check bool) ("last trial" ^ at) true (last = List.nth serial 2);
      Alcotest.(check bool) ("means" ^ at) true
        (rounds = mean (fun a -> a.Runner.rounds)
        && messages = mean (fun a -> a.Runner.messages)
        && bits = mean (fun a -> a.Runner.bits));
      Alcotest.(check bool) ("bits >= messages" ^ at) true (bits >= messages))
    [ 1; 2; 4 ]

let test_averaged_rejects () =
  let a =
    E.run_crash ~protocol:E.This_work_crash ~n:16 ~namespace:500
      ~adversary:E.No_crash ~seed:5 ()
  in
  let raises what assessments =
    Alcotest.(check bool) what true
      (match E.averaged assessments with
      | _ -> false
      | exception (Failure _ | Invalid_argument _) -> true)
  in
  raises "an incorrect run" [ a; { a with Runner.correct = false } ];
  raises "totals that do not reconcile"
    [ { a with Runner.messages = a.Runner.messages + 1 }; a ];
  raises "no runs" []

(* Run [f dir] with [RENAMING_CSV_DIR] set to [dir], a fresh directory
   under the temp dir, and remove it afterwards. *)
let with_csv_dir ~sub f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "renaming_csv_test_%d" (Unix.getpid ()))
  in
  let dir = List.fold_left Filename.concat root sub in
  Unix.putenv "RENAMING_CSV_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "RENAMING_CSV_DIR" "";
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f dir)

(* The actual table titles bench/main.ml prints. Every one must slug to
   a clean filename cut at the em-dash/colon: the old slugger only knew
   the '\xe2' lead byte, so any other typographic glyph leaked mojibake
   bytes into filenames. The slug is read back as the name of the CSV
   [print_table] writes. *)
let test_csv_slug_bench_titles () =
  let cases =
    [
      ( "E1 / Table 1 — algorithms head-to-head (crash: n=128, N=8192; byz: \
         n=64, N=4096)",
        "e1_table_1" );
      ( "E2 / Fig 2 — Thm 1.2: messages vs f under the committee killer \
         (n=128, N=8192, mean of 3 trials)",
        "e2_fig_2" );
      ("E3 / Fig 3 — Thm 1.2: messages vs n at f=0 (single runs)", "e3_fig_3");
      ( "E4 / Fig 4 — Thm 1.3: time/messages vs f (n=64, N=4096, split-world \
         attack)",
        "e4_fig_4" );
      ( "E5 / Fig 5 — Thm 1.3: bit complexity vs n (f=n/6 silent byz; \
         committee vs all-to-all)",
        "e5_fig_5" );
      ( "E6 / Fig 6a — Thm 1.4: collision probability of k silent nodes \
         naming into [64]",
        "e6_fig_6a" );
      ( "E7 / Fig 7 — resource competitiveness: Eve's crash budget vs forced \
         messages",
        "e7_fig_7" );
      ( "E7b — the patient killer (kill each committee after one served \
         phase)",
        "e7b" );
      ( "E9a — ablation: fingerprint divide-and-conquer vs shipping raw \
         segments (f=n/6 silent byz, N=n²)",
        "e9a" );
      ( "E9b — ablation: re-election only on silence (paper) vs every phase",
        "e9b" );
      ( "E10 — committee consensus engines under the split-world attack: \
         phase-king (3(t+1) rounds/instance) vs shared-coin (2h rounds, any \
         t < h/2)",
        "e10" );
      ("this-work-crash: f sweep at n=128 (mean of 3 trials)",
       "this_work_crash");
    ]
  in
  with_csv_dir ~sub:[] (fun dir ->
      List.iter
        (fun (title, expected) ->
          let before =
            if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else []
          in
          E.print_table ~title ~header:[ "a" ] ~rows:[];
          let written =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> not (List.mem f before))
          in
          Alcotest.(check (list string)) title [ expected ^ ".csv" ] written;
          (* Slugs must never smuggle raw bytes of a multi-byte glyph. *)
          String.iter
            (fun c ->
              Alcotest.(check bool) "slug is ascii [a-z0-9_.]" true
                ((c >= 'a' && c <= 'z')
                || (c >= '0' && c <= '9')
                || c = '_' || c = '.'))
            (List.hd written))
        cases)

let test_write_csv_nested_dir () =
  with_csv_dir ~sub:[ "deep"; "nested" ] (fun dir ->
      E.print_table ~title:"E3 / Fig 3 — whatever" ~header:[ "a"; "b" ]
        ~rows:[ [ "1_000"; "x,y" ]; [ "2"; "plain" ] ];
      let path = Filename.concat dir "e3_fig_3.csv" in
      Alcotest.(check bool) "file exists under nested dir" true
        (Sys.file_exists path);
      Alcotest.(check bool) "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp"));
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "grouping stripped, commas quoted"
        "a,b\n1000,\"x,y\"\n2,plain\n" contents)

let test_write_csv_env_unset_is_noop () =
  (* putenv can't remove a variable; the empty string must behave as
     unset-like in practice: mkdir_p "" would raise, so guard here. *)
  Unix.putenv "RENAMING_CSV_DIR" "";
  E.print_table ~title:"ignored" ~header:[ "a" ] ~rows:[]

let test_committee_pool_probability () =
  Alcotest.(check (float 1e-9)) "n=1 saturates" 1.
    (E.committee_pool_probability ~n:1);
  let p = E.committee_pool_probability ~n:1024 in
  Alcotest.(check bool) "theta(log n / n)" true (p > 0.03 && p < 0.05)

let suite =
  ( "experiment",
    [
      Alcotest.test_case "random ids" `Quick test_random_ids;
      Alcotest.test_case "crash protocols battery" `Slow
        test_crash_protocols_all_correct;
      Alcotest.test_case "byz protocols battery" `Slow
        test_byz_protocols_correct;
      Alcotest.test_case "averaged" `Quick test_averaged;
      Alcotest.test_case "averaged rejects bad runs" `Quick
        test_averaged_rejects;
      Alcotest.test_case "csv slugs of the bench titles" `Quick
        test_csv_slug_bench_titles;
      Alcotest.test_case "write_csv creates nested dirs atomically" `Quick
        test_write_csv_nested_dir;
      Alcotest.test_case "write_csv no-op on empty env" `Quick
        test_write_csv_env_unset_is_noop;
      Alcotest.test_case "pool probability" `Quick
        test_committee_pool_probability;
    ] )
