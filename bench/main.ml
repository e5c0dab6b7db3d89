(* Evaluation harness: regenerates the paper's Table 1 empirically and
   renders the scaling claims of Theorems 1.2/1.3/1.4 as figures (series
   of rows). One experiment function per table/figure — see DESIGN.md's
   per-experiment index and EXPERIMENTS.md for the recorded outcomes.
   No table carries a wall-clock value, so every run regenerates
   [results/] byte for byte. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module A = Repro_renaming.Anonymous_renaming
module Stats = Repro_util.Stats
module Ilog = Repro_util.Ilog

let fmt_int i =
  (* 1234567 -> "1_234_567" for readable message counts *)
  let s = string_of_int i in
  let b = Buffer.create 16 in
  let len = String.length s in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 && c <> '-' then Buffer.add_char b '_';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let flag b = if b then "yes" else "no"

(* ------------------------------------------------------------------ *)
(* E1: Table 1 — empirical head-to-head of all algorithms.             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let rows = ref [] in
  let add row = rows := row :: !rows in
  (* Crash side: n = 128, sparse namespace. *)
  let n = 128 in
  let namespace = 64 * n in
  List.iter
    (fun protocol ->
      List.iter
        (fun adversary ->
          let a = E.run_crash ~protocol ~n ~namespace ~adversary ~seed:1 () in
          add
            [
              E.crash_protocol_name protocol;
              Printf.sprintf "crash f=%d" (E.crash_adversary_f adversary);
              string_of_int a.Runner.rounds;
              fmt_int a.messages;
              fmt_int a.bits;
              flag a.strong;
              flag a.order_preserving;
            ])
        [ E.No_crash; E.Random_crashes (n / 4) ])
    [ E.Flooding_baseline; E.Halving_baseline; E.This_work_crash ];
  (* Byzantine side: n = 64, namespace n². *)
  let n = 64 in
  let namespace = n * n in
  let byz_row protocol adversary label =
    let a = E.run_byz ~protocol ~n ~namespace ~adversary ~seed:2 () in
    add
      [
        E.byz_protocol_name protocol;
        label;
        string_of_int a.Runner.rounds;
        fmt_int a.messages;
        fmt_int a.bits;
        flag a.strong;
        flag a.order_preserving;
      ]
  in
  byz_row E.Everyone_byz E.No_byz "byz f=0";
  byz_row E.Everyone_byz (E.Silent_byz 10) "byz f=10 silent";
  byz_row E.This_work_byz E.No_byz "byz f=0";
  byz_row E.This_work_byz (E.Silent_byz 10) "byz f=10 silent";
  byz_row E.This_work_byz (E.Split_world_byz 6) "byz f=6 split-world";
  E.print_table
    ~title:
      "E1 / Table 1 — algorithms head-to-head (crash: n=128, N=8192; byz: \
       n=64, N=4096)"
    ~header:
      [ "algorithm"; "faults"; "rounds"; "messages"; "bits"; "strong"; "order" ]
    ~rows:(List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E2: crash algorithm — messages vs actual number of crashes f.       *)
(* ------------------------------------------------------------------ *)

let fig2_crash_f_sweep () =
  let n = 256 in
  let namespace = 64 * n in
  let log_n = Ilog.ceil_log2 n in
  (* The theorem is an upper bound: messages <= C·(f+log n)·n·log n. Fit
     C on the f=0 run, then check every budget stays under the cap. A
     killed node is silent, so measured traffic need not grow in f — the
     point is that Eve cannot push it past the cap, while the all-to-all
     baselines pay n²·log n regardless. *)
  let measure adversary =
    let a, rounds, messages, bits =
      E.averaged ~trials:3 ~seed:100 (fun ~seed ->
          E.run_crash ~protocol:E.This_work_crash ~n ~namespace ~adversary
            ~seed ())
    in
    (a.Runner.crash_cost, rounds, messages, bits)
  in
  let _, _, base_messages, _ = measure E.No_crash in
  let cap_constant = base_messages /. float_of_int (log_n * n * log_n) in
  let rows =
    List.map
      (fun f ->
        let adversary = if f = 0 then E.No_crash else E.Committee_killer f in
        let spent, rounds, messages, bits = measure adversary in
        let cap =
          cap_constant *. float_of_int ((f + log_n) * n * log_n)
        in
        [
          string_of_int f;
          string_of_int spent;
          Printf.sprintf "%.0f" rounds;
          fmt_int (int_of_float messages);
          fmt_int (int_of_float bits);
          fmt_int (int_of_float cap);
          flag (messages <= cap +. 1.);
        ])
      [ 0; 8; 16; 32; 64; 128; 255 ]
  in
  E.print_table
    ~title:
      (Printf.sprintf
         "E2 / Fig 2 — Thm 1.2: messages vs f under the committee killer \
          (n=%d, mean of 3)"
         n)
    ~header:
      [ "f budget"; "crashes spent"; "rounds"; "messages"; "bits";
        "cap C·(f+log n)·n·log n"; "under cap" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E3: crash algorithm — subquadratic scaling in n.                    *)
(* ------------------------------------------------------------------ *)

let fig3_crash_n_sweep () =
  let sizes = [ 64; 128; 256; 512; 1024; 2048 ] in
  let committee_pts = ref [] and baseline_pts = ref [] in
  let rows =
    List.map
      (fun n ->
        let namespace = 64 * n in
        let a =
          E.run_crash ~protocol:E.This_work_crash ~n ~namespace
            ~adversary:E.No_crash ~seed:300 ()
        in
        committee_pts :=
          (float_of_int n, float_of_int a.Runner.messages) :: !committee_pts;
        let baseline =
          if n <= 256 then begin
            let b =
              E.run_crash ~protocol:E.Halving_baseline ~n ~namespace
                ~adversary:E.No_crash ~seed:300 ()
            in
            baseline_pts :=
              (float_of_int n, float_of_int b.Runner.messages) :: !baseline_pts;
            fmt_int b.Runner.messages
          end
          else "-"
        in
        [
          string_of_int n;
          fmt_int a.Runner.messages;
          baseline;
          fmt_int (n * Ilog.ceil_log2 n * Ilog.ceil_log2 n);
          fmt_int (n * n);
        ])
      sizes
  in
  E.print_table
    ~title:"E3 / Fig 3 — Thm 1.2: messages vs n at f=0 (single runs)"
    ~header:
      [ "n"; "this-work msgs"; "all-to-all msgs"; "n·log²n (ref)"; "n² (ref)" ]
    ~rows;
  Printf.printf
    "log-log slope: this-work %.2f (n·log²n ≈ 1.3); all-to-all %.2f (n²·log n \
     ≈ 2.2)\n"
    (Stats.log_log_slope !committee_pts)
    (Stats.log_log_slope !baseline_pts)

(* ------------------------------------------------------------------ *)
(* E4: Byzantine algorithm — rounds and messages vs f.                 *)
(* ------------------------------------------------------------------ *)

let fig4_byz_f_sweep () =
  let n = 64 in
  let namespace = n * n in
  let rows =
    List.map
      (fun f ->
        let adversary = if f = 0 then E.No_byz else E.Split_world_byz f in
        let a =
          E.run_byz ~protocol:E.This_work_byz ~n ~namespace ~adversary
            ~seed:400 ()
        in
        [
          string_of_int f;
          string_of_int a.Runner.rounds;
          fmt_int a.messages;
          fmt_int a.bits;
          flag (a.unique && a.strong && a.order_preserving);
        ])
      [ 0; 2; 4; 6; 8; 10 ]
  in
  E.print_table
    ~title:
      (Printf.sprintf
         "E4 / Fig 4 — Thm 1.3: time/messages vs f (n=%d, N=%d, split-world \
          attack)"
         n namespace)
    ~header:[ "f"; "rounds"; "messages"; "bits"; "correct" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E5: Byzantine algorithm — almost-linear bits vs the all-to-all core. *)
(* ------------------------------------------------------------------ *)

let fig5_byz_n_sweep () =
  let sizes = [ 32; 64; 96; 128 ] in
  let this_pts = ref [] and all_pts = ref [] in
  let rows =
    List.map
      (fun n ->
        let namespace = n * n in
        let f = n / 6 in
        let adversary = E.Silent_byz f in
        let a =
          E.run_byz ~protocol:E.This_work_byz ~n ~namespace ~adversary
            ~seed:500 ()
        in
        let b =
          E.run_byz ~protocol:E.Everyone_byz ~n ~namespace ~adversary
            ~seed:500 ()
        in
        this_pts := (float_of_int n, float_of_int a.Runner.bits) :: !this_pts;
        all_pts := (float_of_int n, float_of_int b.Runner.bits) :: !all_pts;
        [
          string_of_int n;
          string_of_int f;
          fmt_int a.Runner.bits;
          fmt_int b.Runner.bits;
          fmt_int a.Runner.messages;
          fmt_int b.Runner.messages;
        ])
      sizes
  in
  E.print_table
    ~title:
      "E5 / Fig 5 — Thm 1.3: bit complexity vs n (f=n/6 silent byz; \
       committee vs all-to-all)"
    ~header:
      [
        "n"; "f"; "this-work bits"; "all-nodes bits"; "this-work msgs";
        "all-nodes msgs";
      ]
    ~rows;
  Printf.printf "log-log slope (bits): this-work %.2f; committee=all %.2f\n"
    (Stats.log_log_slope !this_pts)
    (Stats.log_log_slope !all_pts)

(* ------------------------------------------------------------------ *)
(* E6: lower bound companion (Thm 1.4).                                *)
(* ------------------------------------------------------------------ *)

let fig6_lower_bound () =
  let m = 64 in
  let rows =
    List.map
      (fun k ->
        let emp rule =
          A.collision_probability ~rule ~seed:600 ~namespace:50_000 ~k ~m
            ~trials:2000
        in
        [
          string_of_int k;
          Printf.sprintf "%.3f" (emp A.Uniform_pick);
          Printf.sprintf "%.3f" (emp A.Shared_hash);
          Printf.sprintf "%.3f" (A.birthday_bound ~k ~m);
        ])
      [ 2; 4; 8; 12; 16; 24; 32; 48; 64 ]
  in
  E.print_table
    ~title:
      "E6 / Fig 6a — Thm 1.4: collision probability of k silent nodes naming \
       into [64]"
    ~header:[ "k silent"; "uniform pick"; "shared-hash"; "birthday bound" ]
    ~rows;
  let n = 64 in
  let rows =
    List.map
      (fun budget ->
        let p =
          A.budget_success_probability ~seed:601 ~namespace:50_000 ~n ~budget
            ~trials:1000
        in
        [ string_of_int budget; Printf.sprintf "%.3f" p ])
      [ 0; 8; 16; 32; 48; 56; 60; 62; 64 ]
  in
  E.print_table
    ~title:
      (Printf.sprintf
         "E6 / Fig 6b — Thm 1.4: success probability vs message budget \
          (n=%d): ≥3/4 success needs Ω(n) messages"
         n)
    ~header:[ "message budget"; "success probability" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E7: resource competitiveness (Lemmas 2.4–2.7).                      *)
(* ------------------------------------------------------------------ *)

let fig7_resource_competitive () =
  let n = 128 in
  let namespace = 64 * n in
  let rows =
    List.map
      (fun budget ->
        let adversary =
          if budget = 0 then E.No_crash else E.Committee_killer_partial budget
        in
        let _, rounds, messages, _ =
          E.averaged ~trials:3 ~seed:700 (fun ~seed ->
              E.run_crash ~protocol:E.This_work_crash ~n ~namespace ~adversary
                ~seed ())
        in
        let per_crash =
          if budget = 0 then "-"
          else fmt_int (int_of_float (messages /. float_of_int budget))
        in
        [
          string_of_int budget;
          Printf.sprintf "%.0f" rounds;
          fmt_int (int_of_float messages);
          per_crash;
        ])
      [ 0; 4; 8; 16; 32; 64; 127 ]
  in
  E.print_table
    ~title:
      (Printf.sprintf
         "E7 / Fig 7 — resource competitiveness: Eve's crash budget vs forced \
          messages (n=%d, mid-send committee killer, mean of 3)"
         n)
    ~header:[ "crash budget"; "rounds"; "messages"; "messages per crash spent" ]
    ~rows;
  (* The message-maximising patient killer, with budgets aligned to the
     committee generation sizes (3·2^p·log n at n=256: ~24, ~72, ...):
     each fully-killed generation buys Eve one escalated, fully-paid
     committee phase — the forced-cost hump the O((f+log n)·n·log n)
     bound prices in. A partially-killed generation backfires on Eve
     (the small survivor committee is cheap), and as f approaches n the
     surviving population shrinks everything. *)
  let n = 256 in
  let namespace = 64 * n in
  let rows =
    List.map
      (fun budget ->
        let adversary =
          if budget = 0 then E.No_crash else E.Patient_killer budget
        in
        let _, _, messages, _ =
          E.averaged ~trials:3 ~seed:701 (fun ~seed ->
              E.run_crash ~protocol:E.This_work_crash ~n ~namespace ~adversary
                ~seed ())
        in
        [ string_of_int budget; fmt_int (int_of_float messages) ])
      [ 0; 30; 90; 200; 255 ]
  in
  E.print_table
    ~title:
      (Printf.sprintf
         "E7b — the patient killer (kill each committee after one served \
          phase): forced-message hump at generation-aligned budgets (n=%d, \
          mean of 3)"
         n)
    ~header:[ "crash budget"; "messages" ] ~rows

(* ------------------------------------------------------------------ *)
(* E9: design-choice ablations (DESIGN.md).                            *)
(* ------------------------------------------------------------------ *)

let fig9_ablations () =
  (* E9a: fingerprints vs shipping raw segments in the committee's
     identity-list agreement. *)
  let rows =
    List.map
      (fun n ->
        let namespace = n * n in
        let adversary = E.Silent_byz (n / 6) in
        let fp =
          E.run_byz ~protocol:E.This_work_byz ~n ~namespace ~adversary
            ~reconcile:Repro_renaming.Byzantine_renaming.Fingerprint_dnc
            ~seed:900 ()
        in
        let raw =
          E.run_byz ~protocol:E.This_work_byz ~n ~namespace ~adversary
            ~reconcile:Repro_renaming.Byzantine_renaming.Ship_segments
            ~seed:900 ()
        in
        [
          string_of_int n;
          fmt_int fp.Runner.bits;
          fmt_int raw.Runner.bits;
          Printf.sprintf "%.1fx"
            (float_of_int raw.Runner.bits /. float_of_int fp.Runner.bits);
          string_of_int fp.Runner.rounds;
          string_of_int raw.Runner.rounds;
        ])
      [ 32; 64; 96; 128 ]
  in
  E.print_table
    ~title:
      "E9a — ablation: fingerprint divide-and-conquer vs shipping raw \
       segments (f=n/6 silent byz, N=n²)"
    ~header:
      [ "n"; "fingerprint bits"; "ship-segments bits"; "blow-up";
        "fp rounds"; "raw rounds" ]
    ~rows;
  (* E9b: on-demand vs every-phase committee re-election. *)
  let module CR = Repro_renaming.Crash_renaming in
  let rows =
    List.concat_map
      (fun n ->
        let ids = E.random_ids ~seed:901 ~namespace:(64 * n) ~n in
        List.map
          (fun (label, budget) ->
            let run reelection =
              let params = { CR.experiment_params with reelection } in
              (* At budget 0 the killer retires in round 0. *)
              let crash =
                CR.Net.Crash.committee_killer
                  ~rng:(Repro_util.Rng.of_seed 902) ~budget ()
              in
              Runner.assess (CR.run ~params ~ids ~crash ~seed:903 ())
            in
            let od = run CR.On_demand in
            let ep = run CR.Every_phase in
            [
              string_of_int n;
              label;
              fmt_int od.Runner.messages;
              fmt_int ep.Runner.messages;
              Printf.sprintf "%.2fx"
                (float_of_int ep.Runner.messages
                /. float_of_int od.Runner.messages);
            ])
          [ ("f=0", 0); ("killer f=n/4", n / 4) ])
      [ 128; 256 ]
  in
  E.print_table
    ~title:
      "E9b — ablation: re-election only on silence (paper) vs every phase"
    ~header:
      [ "n"; "faults"; "on-demand msgs"; "every-phase msgs"; "overhead" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E10: consensus engine comparison inside the committee.              *)
(* ------------------------------------------------------------------ *)

let fig10_consensus_comparison () =
  let module BR = Repro_renaming.Byzantine_renaming in
  let cases =
    [
      ("shared-pool n=64", E.This_work_byz, 64, 4);
      ("everyone n=48", E.Everyone_byz, 48, 4);
    ]
  in
  let rows =
    List.concat_map
      (fun (label, protocol, n, f) ->
        let namespace = n * n in
        let adversary = E.Split_world_byz f in
        List.map
          (fun (cname, consensus) ->
            let a =
              E.run_byz ~protocol ~n ~namespace ~adversary ~consensus
                ~seed:1000 ()
            in
            [
              label;
              cname;
              string_of_int a.Runner.rounds;
              fmt_int a.messages;
              fmt_int a.bits;
              flag (a.unique && a.strong && a.order_preserving);
            ])
          [
            ("phase-king", BR.Phase_king_consensus);
            ("common-coin h=20", BR.Common_coin_consensus 20);
          ])
      cases
  in
  E.print_table
    ~title:
      "E10 — committee consensus engines under the split-world attack: \
       phase-king (3(t+1) rounds/instance) vs shared-coin (2h rounds, any \
       committee size)"
    ~header:[ "committee"; "consensus"; "rounds"; "messages"; "bits"; "correct" ]
    ~rows

let () =
  (* RENAMING_DOMAINS=N is the one knob: the domain count of the trial
     fan-outs and the shard count of the runs outside them (default:
     see Repro_util.Domain_pool.available). Results are identical either
     way; only the wall-clock changes. *)
  if Array.length Sys.argv > 1 then
    invalid_arg ("bench/main: unknown argument " ^ Sys.argv.(1));
  Repro_renaming.Parallel.tune_gc ();
  (* lint: allow D1 — bench cpu-time, reported not replayed *)
  let t0 = Sys.time () in
  table1 ();
  fig2_crash_f_sweep ();
  fig3_crash_n_sweep ();
  fig4_byz_f_sweep ();
  fig5_byz_n_sweep ();
  fig6_lower_bound ();
  fig7_resource_competitive ();
  fig9_ablations ();
  fig10_consensus_comparison ();
  (* lint: allow D1 — bench cpu-time, reported not replayed *)
  Printf.printf "\ntotal bench cpu time: %.1f s\n" (Sys.time () -. t0)
