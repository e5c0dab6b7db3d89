(* Evaluation harness: regenerates the paper's Table 1 empirically and
   renders the scaling claims of Theorems 1.2/1.3/1.4 as figures (series
   of rows) — see DESIGN.md's per-experiment index and EXPERIMENTS.md
   for the recorded outcomes. Each table declares its jobs (one run or
   one Monte Carlo call each) and formats its rows; all jobs run as one
   [Parallel.map], one shard each, and the tables print afterwards.
   No table carries a wall-clock value, so every run regenerates
   [results/] byte for byte. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module A = Repro_renaming.Anonymous_renaming
module BR = Repro_renaming.Byzantine_renaming
module CR = Repro_renaming.Crash_renaming
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
let prob p = Printf.sprintf "%.3f" p

let costs a =
  [ string_of_int a.Runner.rounds; fmt_int a.messages; fmt_int a.bits ]

let correct a = flag (a.Runner.unique && a.strong && a.order_preserving)

(* What a job yields: a simulated run, or a Monte Carlo estimate (E6). *)
type outcome = Run of Runner.assessment | Estimate of float

let run = function Run a -> a | Estimate _ -> invalid_arg "bench: not a run"

let estimate = function
  | Estimate p -> p
  | Run _ -> invalid_arg "bench: not an estimate"

let first os = run (List.hd os)
let second os = run (List.nth os 1)

(* Job constructors. The seed is positional, so applying it completes the
   job (and fixes [byz]'s optional arguments). *)
let crash ~protocol ~n ~namespace ~adversary seed () =
  Run (E.run_crash ~protocol ~n ~namespace ~adversary ~seed ())

let byz ?reconcile ?consensus ~protocol ~n ~namespace ~adversary seed () =
  Run
    (E.run_byz ?reconcile ?consensus ~protocol ~n ~namespace ~adversary ~seed
       ())

(* The jobs of a mean-of-[k] row, on Experiment's trial-seed schedule. *)
let trials k ~seed job = List.init k (fun i -> job (E.trial_seed ~seed i))
let mean os = E.averaged (List.map run os)

(* Each row's jobs, and a printer of each row's outcomes. *)
type table = {
  jobs : (unit -> outcome) list list;
  print : outcome list list -> unit;
}

(* One row per key: [jobs k] are row [k]'s jobs and [row k outcomes] its
   cells; [footer] prints under the table from all rows' outcomes. *)
let table ~title ~header ?(footer = ignore) keys jobs row =
  {
    jobs = List.map jobs keys;
    print =
      (fun os ->
        E.print_table ~title ~header ~rows:(List.map2 row keys os);
        footer os);
  }

(* ------------------------------------------------------------------ *)
(* E1: Table 1 — empirical head-to-head of all algorithms.             *)
(* ------------------------------------------------------------------ *)

let table1 =
  (* Crash side: n = 128, sparse namespace. *)
  let crash_row protocol adversary =
    ( E.crash_protocol_name protocol,
      Printf.sprintf "crash f=%d" (E.crash_adversary_f adversary),
      crash ~protocol ~n:128 ~namespace:(64 * 128) ~adversary 1 )
  in
  (* Byzantine side: n = 64, namespace n². *)
  let byz_row protocol adversary label =
    ( E.byz_protocol_name protocol,
      label,
      byz ~protocol ~n:64 ~namespace:(64 * 64) ~adversary 2 )
  in
  table
    ~title:
      "E1 / Table 1 — algorithms head-to-head (crash: n=128, N=8192; byz: \
       n=64, N=4096)"
    ~header:
      [ "algorithm"; "faults"; "rounds"; "messages"; "bits"; "strong"; "order" ]
    (List.concat_map
       (fun p -> [ crash_row p E.No_crash; crash_row p (E.Random_crashes 32) ])
       [ E.Flooding_baseline; E.Halving_baseline; E.This_work_crash ]
    @ [
        byz_row E.Everyone_byz E.No_byz "byz f=0";
        byz_row E.Everyone_byz (E.Silent_byz 10) "byz f=10 silent";
        byz_row E.This_work_byz E.No_byz "byz f=0";
        byz_row E.This_work_byz (E.Silent_byz 10) "byz f=10 silent";
        byz_row E.This_work_byz (E.Split_world_byz 6) "byz f=6 split-world";
      ])
    (fun (_, _, job) -> [ job ])
    (fun (name, faults, _) os ->
      let a = first os in
      (name :: faults :: costs a) @ [ flag a.strong; flag a.order_preserving ])

(* ------------------------------------------------------------------ *)
(* E2: crash algorithm — messages vs actual number of crashes f.       *)
(* ------------------------------------------------------------------ *)

let fig2_crash_f_sweep =
  let n = 256 in
  let namespace = 64 * n in
  let log_n = Ilog.ceil_log2 n in
  let fs = [ 0; 8; 16; 32; 64; 128; 255 ] in
  let job f =
    let adversary = if f = 0 then E.No_crash else E.Committee_killer f in
    trials 3 ~seed:100
      (crash ~protocol:E.This_work_crash ~n ~namespace ~adversary)
  in
  (* The theorem is an upper bound: messages <= C·(f+log n)·n·log n. Fit
     C on the f=0 run, then check every budget stays under the cap. A
     killed node is silent, so measured traffic need not grow in f — the
     point is that Eve cannot push it past the cap, while the all-to-all
     baselines pay n²·log n regardless. *)
  let row cap_constant (f, trials) (_, rounds, messages, bits) =
    let cap = cap_constant *. float_of_int ((f + log_n) * n * log_n) in
    let crashes =
      List.fold_left (fun acc o -> acc + (run o).Runner.crash_cost) 0 trials
    in
    [
      string_of_int f;
      Printf.sprintf "%.0f"
        (float_of_int crashes /. float_of_int (List.length trials));
      Printf.sprintf "%.0f" rounds;
      fmt_int (int_of_float messages);
      fmt_int (int_of_float bits);
      fmt_int (int_of_float cap);
      flag (messages <= cap +. 1.);
    ]
  in
  {
    jobs = List.map job fs;
    print =
      (fun os ->
        let means = List.map mean os in
        let _, _, base_messages, _ = List.hd means in
        let cap_constant =
          base_messages /. float_of_int (log_n * n * log_n)
        in
        E.print_table
          ~title:
            (Printf.sprintf
               "E2 / Fig 2 — Thm 1.2: messages vs f under the committee \
                killer (n=%d, mean of 3)"
               n)
          ~header:
            [ "f budget"; "crashes spent"; "rounds"; "messages"; "bits";
              "cap C·(f+log n)·n·log n"; "under cap" ]
          ~rows:(List.map2 (row cap_constant) (List.combine fs os) means));
  }

(* ------------------------------------------------------------------ *)
(* E3: crash algorithm — subquadratic scaling in n.                    *)
(* ------------------------------------------------------------------ *)

(* Stats.log_log_slope over the [(n, y)] pairs, fed largest n first. *)
let slope sizes ys =
  Stats.log_log_slope
    (List.rev
       (List.map2 (fun n y -> (float_of_int n, float_of_int y)) sizes ys))

let fig3_crash_n_sweep =
  let sizes = [ 64; 128; 256; 512; 1024; 2048 ] in
  let job protocol n =
    crash ~protocol ~n ~namespace:(64 * n) ~adversary:E.No_crash 300
  in
  let with_baseline n = n <= 256 in
  let baseline = function
    | [ _; b ] -> Some (run b).Runner.messages
    | _ -> None
  in
  table ~title:"E3 / Fig 3 — Thm 1.2: messages vs n at f=0 (single runs)"
    ~header:
      [ "n"; "this-work msgs"; "all-to-all msgs"; "n·log²n (ref)"; "n² (ref)" ]
    ~footer:(fun os ->
      Printf.printf
        "log-log slope: this-work %.2f (n·log²n ≈ 1.3); all-to-all %.2f \
         (n²·log n ≈ 2.2)\n"
        (slope sizes (List.map (fun os -> (first os).messages) os))
        (slope
           (List.filter with_baseline sizes)
           (List.filter_map baseline os)))
    sizes
    (fun n ->
      job E.This_work_crash n
      :: (if with_baseline n then [ job E.Halving_baseline n ] else []))
    (fun n os ->
      [
        string_of_int n;
        fmt_int (first os).messages;
        Option.fold ~none:"-" ~some:fmt_int (baseline os);
        fmt_int (n * Ilog.ceil_log2 n * Ilog.ceil_log2 n);
        fmt_int (n * n);
      ])

(* ------------------------------------------------------------------ *)
(* E4: Byzantine algorithm — rounds and messages vs f.                 *)
(* ------------------------------------------------------------------ *)

let fig4_byz_f_sweep =
  let n = 64 in
  let namespace = n * n in
  table
    ~title:
      (Printf.sprintf
         "E4 / Fig 4 — Thm 1.3: time/messages vs f (n=%d, N=%d, split-world \
          attack)"
         n namespace)
    ~header:[ "f"; "rounds"; "messages"; "bits"; "correct" ]
    [ 0; 2; 4; 6; 8; 10 ]
    (fun f ->
      let adversary = if f = 0 then E.No_byz else E.Split_world_byz f in
      [ byz ~protocol:E.This_work_byz ~n ~namespace ~adversary 400 ])
    (fun f os -> (string_of_int f :: costs (first os)) @ [ correct (first os) ])

(* ------------------------------------------------------------------ *)
(* E5: Byzantine algorithm — almost-linear bits vs the all-to-all core. *)
(* ------------------------------------------------------------------ *)

let fig5_byz_n_sweep =
  let sizes = [ 32; 64; 96; 128 ] in
  let bits pick os = List.map (fun o -> (pick o).Runner.bits) os in
  table
    ~title:
      "E5 / Fig 5 — Thm 1.3: bit complexity vs n (f=n/6 silent byz; \
       committee vs all-to-all)"
    ~header:
      [
        "n"; "f"; "this-work bits"; "all-nodes bits"; "this-work msgs";
        "all-nodes msgs";
      ]
    ~footer:(fun os ->
      Printf.printf "log-log slope (bits): this-work %.2f; committee=all %.2f\n"
        (slope sizes (bits first os))
        (slope sizes (bits second os)))
    sizes
    (fun n ->
      List.map
        (fun protocol ->
          byz ~protocol ~n ~namespace:(n * n) ~adversary:(E.Silent_byz (n / 6))
            500)
        [ E.This_work_byz; E.Everyone_byz ])
    (fun n os ->
      let a = first os and b = second os in
      [
        string_of_int n;
        string_of_int (n / 6);
        fmt_int a.Runner.bits;
        fmt_int b.Runner.bits;
        fmt_int a.messages;
        fmt_int b.messages;
      ])

(* ------------------------------------------------------------------ *)
(* E6: lower bound companion (Thm 1.4).                                *)
(* ------------------------------------------------------------------ *)

let fig6a_collisions =
  let m = 64 in
  table
    ~title:
      "E6 / Fig 6a — Thm 1.4: collision probability of k silent nodes naming \
       into [64]"
    ~header:[ "k silent"; "uniform pick"; "shared-hash"; "birthday bound" ]
    [ 2; 4; 8; 12; 16; 24; 32; 48; 64 ]
    (fun k ->
      List.map
        (fun rule () ->
          Estimate
            (A.collision_probability ~rule ~seed:600 ~namespace:50_000 ~k ~m
               ~trials:2000))
        [ A.Uniform_pick; A.Shared_hash ])
    (fun k os ->
      (string_of_int k :: List.map (fun o -> prob (estimate o)) os)
      @ [ prob (A.birthday_bound ~k ~m) ])

let fig6b_budget =
  let n = 64 in
  table
    ~title:
      (Printf.sprintf
         "E6 / Fig 6b — Thm 1.4: success probability vs message budget \
          (n=%d): ≥3/4 success needs Ω(n) messages"
         n)
    ~header:[ "message budget"; "success probability" ]
    [ 0; 8; 16; 32; 48; 56; 60; 62; 64 ]
    (fun budget ->
      let success =
        A.budget_success_probability ~seed:601 ~namespace:50_000 ~n
      in
      [ (fun () -> Estimate (success ~budget ~trials:1000)) ])
    (fun budget os -> [ string_of_int budget; prob (estimate (List.hd os)) ])

(* ------------------------------------------------------------------ *)
(* E7: resource competitiveness (Lemmas 2.4–2.7).                      *)
(* ------------------------------------------------------------------ *)

(* Mean-of-3 rows of the crash committee at size [n], one per crash
   budget; budget 0 runs without an adversary. *)
let budget_means ~title ~header ~n ~seed adversary budgets row =
  table ~title ~header budgets
    (fun b ->
      let adversary = if b = 0 then E.No_crash else adversary b in
      trials 3 ~seed
        (crash ~protocol:E.This_work_crash ~n ~namespace:(64 * n) ~adversary))
    (fun b os -> row b (mean os))

let fig7_resource_competitive =
  let n = 128 in
  budget_means
    ~title:
      (Printf.sprintf
         "E7 / Fig 7 — resource competitiveness: Eve's crash budget vs forced \
          messages (n=%d, mid-send committee killer, mean of 3)"
         n)
    ~header:[ "crash budget"; "rounds"; "messages"; "messages per crash spent" ]
    ~n ~seed:700
    (fun b -> E.Committee_killer_partial b)
    [ 0; 4; 8; 16; 32; 64; 127 ]
    (fun budget (_, rounds, messages, _) ->
      [
        string_of_int budget;
        Printf.sprintf "%.0f" rounds;
        fmt_int (int_of_float messages);
        (if budget = 0 then "-"
         else fmt_int (int_of_float (messages /. float_of_int budget)));
      ])

let fig7b_patient_killer =
  (* The message-maximising patient killer, with budgets aligned to the
     committee generation sizes (3·2^p·log n at n=256: ~24, ~72, ...):
     each fully-killed generation buys Eve one escalated, fully-paid
     committee phase — the forced-cost hump the O((f+log n)·n·log n)
     bound prices in. A partially-killed generation backfires on Eve
     (the small survivor committee is cheap), and as f approaches n the
     surviving population shrinks everything. *)
  let n = 256 in
  budget_means
    ~title:
      (Printf.sprintf
         "E7b — the patient killer (kill each committee after one served \
          phase): forced-message hump at generation-aligned budgets (n=%d, \
          mean of 3)"
         n)
    ~header:[ "crash budget"; "messages" ] ~n ~seed:701
    (fun b -> E.Patient_killer b)
    [ 0; 30; 90; 200; 255 ]
    (fun budget (_, _, messages, _) ->
      [ string_of_int budget; fmt_int (int_of_float messages) ])

(* ------------------------------------------------------------------ *)
(* E9: design-choice ablations (DESIGN.md).                            *)
(* ------------------------------------------------------------------ *)

let fig9a_fingerprints =
  (* E9a: fingerprints vs shipping raw segments in the committee's
     identity-list agreement. *)
  table
    ~title:
      "E9a — ablation: fingerprint divide-and-conquer vs shipping raw \
       segments (f=n/6 silent byz, N=n²)"
    ~header:
      [ "n"; "fingerprint bits"; "ship-segments bits"; "blow-up";
        "fp rounds"; "raw rounds" ]
    [ 32; 64; 96; 128 ]
    (fun n ->
      List.map
        (fun reconcile ->
          byz ~protocol:E.This_work_byz ~n ~namespace:(n * n)
            ~adversary:(E.Silent_byz (n / 6)) ~reconcile 900)
        [ BR.Fingerprint_dnc; BR.Ship_segments ])
    (fun n os ->
      let fp = first os and raw = second os in
      [
        string_of_int n;
        fmt_int fp.Runner.bits;
        fmt_int raw.Runner.bits;
        Printf.sprintf "%.1fx" (float_of_int raw.bits /. float_of_int fp.bits);
        string_of_int fp.rounds;
        string_of_int raw.rounds;
      ])

let fig9b_reelection =
  (* E9b: on-demand vs every-phase committee re-election. *)
  table
    ~title:
      "E9b — ablation: re-election only on silence (paper) vs every phase"
    ~header:
      [ "n"; "faults"; "on-demand msgs"; "every-phase msgs"; "overhead" ]
    (List.concat_map
       (fun n -> [ (n, "f=0", 0); (n, "killer f=n/4", n / 4) ])
       [ 128; 256 ])
    (fun (n, _, budget) ->
      List.map
        (fun reelection () ->
          let ids = E.random_ids ~seed:901 ~namespace:(64 * n) ~n in
          let params = { CR.experiment_params with reelection } in
          (* At budget 0 the killer retires in round 0. *)
          let crash =
            CR.Net.Crash.committee_killer ~rng:(Repro_util.Rng.of_seed 902)
              ~budget ()
          in
          Run (Runner.assess (CR.run ~params ~ids ~crash ~seed:903 ())))
        [ CR.On_demand; CR.Every_phase ])
    (fun (n, label, _) os ->
      let od = first os and ep = second os in
      [
        string_of_int n;
        label;
        fmt_int od.Runner.messages;
        fmt_int ep.Runner.messages;
        Printf.sprintf "%.2fx"
          (float_of_int ep.messages /. float_of_int od.messages);
      ])

(* ------------------------------------------------------------------ *)
(* E10: consensus engine comparison inside the committee.              *)
(* ------------------------------------------------------------------ *)

let fig10_consensus_comparison =
  table
    ~title:
      "E10 — committee consensus engines under the split-world attack: \
       phase-king (3(t+1) rounds/instance) vs shared-coin (2h rounds, any \
       committee size)"
    ~header:[ "committee"; "consensus"; "rounds"; "messages"; "bits"; "correct" ]
    (List.concat_map
       (fun case ->
         [
           (case, ("phase-king", BR.Phase_king_consensus));
           (case, ("common-coin h=20", BR.Common_coin_consensus 20));
         ])
       [
         ("shared-pool n=64", E.This_work_byz, 64);
         ("everyone n=48", E.Everyone_byz, 48);
       ])
    (fun ((_, protocol, n), (_, consensus)) ->
      [
        byz ~protocol ~n ~namespace:(n * n) ~adversary:(E.Split_world_byz 4)
          ~consensus 1000;
      ])
    (fun ((label, _, _), (cname, _)) os ->
      (label :: cname :: costs (first os)) @ [ correct (first os) ])

let () =
  (* RENAMING_DOMAINS=N is the one knob: the domain count of the fan-out
     (default: see Repro_util.Domain_pool.available), in which every run
     takes one shard. Results are identical either way; only the
     wall-clock changes. *)
  if Array.length Sys.argv > 1 then
    invalid_arg ("bench/main: unknown argument " ^ Sys.argv.(1));
  Repro_renaming.Parallel.tune_gc ();
  (* lint: allow D1 — bench cpu-time, reported not replayed *)
  let t0 = Sys.time () in
  let tables =
    [
      table1; fig2_crash_f_sweep; fig3_crash_n_sweep; fig4_byz_f_sweep;
      fig5_byz_n_sweep; fig6a_collisions; fig6b_budget;
      fig7_resource_competitive; fig7b_patient_killer; fig9a_fingerprints;
      fig9b_reelection; fig10_consensus_comparison;
    ]
  in
  let jobs =
    Array.of_list (List.concat_map (fun t -> List.concat t.jobs) tables)
  in
  let outcomes =
    Repro_renaming.Parallel.map (Array.length jobs) (fun i -> jobs.(i) ())
  in
  (* Hand each table its outcomes, cut back into its rows' shape. *)
  let cut i row =
    let k = List.length row in
    (i + k, Array.to_list (Array.sub outcomes i k))
  in
  let _, rows =
    List.fold_left_map (List.fold_left_map cut) 0
      (List.map (fun t -> t.jobs) tables)
  in
  List.iter2 (fun t rows -> t.print rows) tables rows;
  (* lint: allow D1 — bench cpu-time, reported not replayed *)
  Printf.printf "\ntotal bench cpu time: %.1f s\n" (Sys.time () -. t0)
