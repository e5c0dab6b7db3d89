(* Committee equivalence: the library's flattened committee
   (struct-of-arrays over slots, group index rebuilt every absorb) must
   be observation-equivalent to the reference rule in [Committee_oracle] —
   identical verdicts, identical billed sizes, identical emission order,
   identical escalation-counter evolution — on every inbox that meets
   its input contract, and must raise
   [Crash_renaming.Invalid_committee_inbox], naming the broken
   precondition, on inboxes that do not (forged ids, duplicate or
   descending sources, overlapping minimum-depth groups, absurd depths).

   Two layers: fixture tests drive one committee member directly through
   [Crash_renaming.For_tests] (including inboxes no honest engine run
   produces), and full-run tests replay whole executions — no-fault and
   a frozen corpus crash schedule — against trace digests and totals
   pinned from the linear-scan committee (see [Committee_oracle]). *)

module CR = Repro_renaming.Crash_renaming
module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Schedule = Repro_check.Schedule
module Trace = Repro_obs.Trace
module I = Repro_util.Interval

let verdict_triple =
  let pp ppf (dst, msg, bits) =
    Format.fprintf ppf "(%d, %a, %d)" dst CR.Msg.pp msg bits
  in
  Alcotest.testable pp (fun a b -> a = b)

let status ~id ?(src = -1) ~lo ~hi ~d ~p () =
  let src = if src = -1 then id else src in
  (src, CR.Msg.Status { id; iv = I.make lo hi; d; p })

(* The library's committee against the oracle on the same rounds. *)
let check_matches_oracle name ~ids rounds =
  let reference = Committee_oracle.verdicts ~pv:0 rounds in
  let got = CR.For_tests.committee_verdicts ~pv:0 ~ids rounds in
  Alcotest.(check (list (list verdict_triple)))
    (name ^ ": verdicts vs oracle") reference got;
  (* billed sizes must be the real wire sizes *)
  List.iter
    (List.iter (fun (_, msg, bits) ->
         Alcotest.(check int) (name ^ ": billed = Msg.bits") (CR.Msg.bits msg)
           bits))
    got;
  Alcotest.(check int) (name ^ ": final pv")
    (Committee_oracle.final_pv ~pv:0 rounds)
    (CR.For_tests.state_pv ~pv:0 ~ids rounds);
  reference

let check_rejects name ~ids ~why rounds =
  Alcotest.check_raises name (CR.Invalid_committee_inbox why) (fun () ->
      ignore (CR.For_tests.committee_verdicts ~pv:0 ~ids rounds))

let ids8 = [| 3; 5; 9; 12; 17; 20; 28; 31 |]

let test_well_formed_descent () =
  let rounds =
    [
      (* phase 1: all report the root *)
      Array.to_list
        (Array.map (fun id -> status ~id ~lo:1 ~hi:8 ~d:0 ~p:0 () |> Fun.id) ids8);
      (* phase 2: split into the two halves; same d_min, new groups *)
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:9 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:12 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:17 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:20 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:28 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:31 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
      ];
      (* phase 3: depths diverge (mixed d), two reporters vanish, one
         escalates p *)
      [
        status ~id:3 ~lo:1 ~hi:2 ~d:2 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:2 ~d:2 ~p:0 ();
        status ~id:9 ~lo:3 ~hi:4 ~d:2 ~p:1 ();
        status ~id:17 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:20 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:31 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
      ];
      (* phase 4: the vanished return, d_min moves up, singletons at the
         minimum depth appear *)
      [
        status ~id:3 ~lo:1 ~hi:1 ~d:3 ~p:0 ();
        status ~id:5 ~lo:2 ~hi:2 ~d:3 ~p:0 ();
        status ~id:9 ~lo:3 ~hi:4 ~d:2 ~p:1 ();
        status ~id:12 ~lo:3 ~hi:4 ~d:2 ~p:1 ();
        status ~id:17 ~lo:5 ~hi:6 ~d:2 ~p:0 ();
        status ~id:20 ~lo:5 ~hi:6 ~d:2 ~p:0 ();
        status ~id:28 ~lo:7 ~hi:8 ~d:2 ~p:2 ();
        status ~id:31 ~lo:7 ~hi:8 ~d:2 ~p:0 ();
      ];
    ]
  in
  let reference = check_matches_oracle "descent" ~ids:ids8 rounds in
  (* sanity on the reference itself: one verdict per status, in inbox
     order *)
  List.iter2
    (fun inbox out ->
      Alcotest.(check int) "one verdict per status" (List.length inbox)
        (List.length out);
      Alcotest.(check (list int))
        "verdicts in inbox order"
        (List.map fst inbox)
        (List.map (fun (dst, _, _) -> dst) out))
    rounds reference

(* Each fixture breaks one precondition of the input contract. *)
let overlap = "overlapping minimum-depth intervals"

let test_disjointness_violation_raises () =
  (* two overlapping non-singleton intervals at the minimum depth: the
     halving-tree invariant an honest run never breaks *)
  check_rejects "overlapping groups" ~ids:ids8 ~why:overlap
    [
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:3 ~hi:6 ~d:1 ~p:0 ();
        status ~id:9 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
      ];
    ];
  check_rejects "same lo, different hi" ~ids:ids8 ~why:overlap
    [
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:6 ~d:1 ~p:0 ();
      ];
    ];
  (* containment: a min-depth interval strictly inside another *)
  check_rejects "nested groups" ~ids:ids8 ~why:overlap
    [
      [
        status ~id:3 ~lo:1 ~hi:8 ~d:1 ~p:0 ();
        status ~id:5 ~lo:2 ~hi:3 ~d:1 ~p:0 ();
      ];
    ];
  (* the overlap arrives in a later round: well-formed rounds first,
     then one reporter moves onto a neighbour's interval *)
  check_rejects "overlap introduced in a later round" ~ids:ids8 ~why:overlap
    [
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:9 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:12 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
      ];
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:9 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:12 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
      ];
      [
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:9 ~lo:5 ~hi:8 ~d:1 ~p:0 ();
        status ~id:12 ~lo:3 ~hi:6 ~d:1 ~p:0 ();
      ];
    ]

let test_forged_and_duplicated_sources_raise () =
  check_rejects "forged id" ~ids:ids8
    ~why:"status id differs from its source"
    [
      [
        status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
        status ~id:99 ~src:5 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
      ];
    ];
  check_rejects "duplicate source" ~ids:ids8 ~why:"source reports twice"
    [
      [
        status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
        status ~id:3 ~lo:1 ~hi:4 ~d:1 ~p:0 ();
        status ~id:5 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
      ];
    ];
  check_rejects "unknown source" ~ids:ids8
    ~why:"source unknown or not ascending"
    [
      [
        status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
        status ~id:4 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
      ];
    ];
  check_rejects "descending sources" ~ids:ids8
    ~why:"source unknown or not ascending"
    [
      [
        status ~id:5 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
        status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:0 ();
      ];
    ];
  let out_of_range = "depth or escalation level out of range" in
  (* the histogram cap is 2^20: the largest legal depth passes, the
     first illegal one raises *)
  ignore
    (check_matches_oracle "largest legal depth" ~ids:ids8
       [ [ status ~id:3 ~lo:1 ~hi:8 ~d:((1 lsl 20) - 1) ~p:0 () ] ]);
  check_rejects "depth at the cap" ~ids:ids8 ~why:out_of_range
    [ [ status ~id:3 ~lo:1 ~hi:8 ~d:(1 lsl 20) ~p:0 () ] ];
  check_rejects "huge depth" ~ids:ids8 ~why:out_of_range
    [ [ status ~id:3 ~lo:1 ~hi:8 ~d:(1 lsl 21) ~p:0 () ] ];
  check_rejects "huge p" ~ids:ids8 ~why:out_of_range
    [ [ status ~id:3 ~lo:1 ~hi:8 ~d:0 ~p:(1 lsl 21) () ] ]

let test_empty_and_degenerate () =
  (* no statuses at all (committee hears nothing) *)
  ignore (check_matches_oracle "empty inbox" ~ids:ids8 [ []; [] ]);
  (* only singletons at the minimum depth *)
  ignore
    (check_matches_oracle "all singletons" ~ids:ids8
       [
         [
           status ~id:3 ~lo:1 ~hi:1 ~d:3 ~p:0 ();
           status ~id:5 ~lo:2 ~hi:2 ~d:3 ~p:1 ();
         ];
       ]);
  (* single participant *)
  ignore
    (check_matches_oracle "single node" ~ids:[| 7 |]
       [ [ status ~id:7 ~lo:1 ~hi:1 ~d:0 ~p:0 () ] ])

(* Reporter churn between rounds: every reporter deepens every round,
   or after a quiet round one reporter deepens and then another
   vanishes. The index is rebuilt on every absorb while the per-slot
   columns and verdict caches persist, so nothing of one round may
   leak into the next. *)
let test_reporter_churn () =
  let everyone ~d ~width =
    Array.to_list
      (Array.mapi
         (fun k id ->
           let lo = (k / width * width) + 1 in
           status ~id ~lo ~hi:(lo + width - 1) ~d ~p:0 ())
         ids8)
  in
  let check name rounds = ignore (check_matches_oracle name ~ids:ids8 rounds) in
  check "full churn"
    [
      everyone ~d:0 ~width:8;
      everyone ~d:1 ~width:4;
      everyone ~d:2 ~width:2;
      everyone ~d:3 ~width:1;
    ];
  let halves = everyone ~d:1 ~width:4 in
  let one_deeper =
    status ~id:3 ~lo:1 ~hi:2 ~d:2 ~p:0 () :: List.tl halves
  in
  let one_gone = List.filter (fun (src, _) -> src <> 17) one_deeper in
  check "one reporter changes" [ halves; halves; one_deeper; one_gone ]

let take k l = List.filteri (fun i _ -> i < k) l

(* {1 Scale}

   1024 participants descend the whole halving tree of [1, 1024],
   depths 0 to 10, checked against the oracle round for round. In each
   round most reporters sit at the round's depth; about one in sixteen
   is a level deeper (inside a group's half, or echoed), one in sixteen
   reports the round's interval with a deeper depth, and one in sixteen
   is silent. [order] maps a slot to its leaf: the identity
   keeps intervals ascending with the slot, so groups are appended (over
   256 of them at depth 9); a shuffle makes intervals arrive out of
   order, so groups are inserted. *)
let ids1024 = Array.init 1024 (fun k -> (3 * k) + 7)

let vertex ~depth ~index =
  match Halving_tree.tree_vertex_at ~n:1024 ~depth ~index with
  | Some iv -> iv
  | None -> Alcotest.fail "vertex outside the tree"

let leaf_status ~slot ~leaf ~d ~p =
  let iv = vertex ~depth:d ~index:(leaf lsr (10 - d)) in
  status ~id:ids1024.(slot) ~lo:iv.I.lo ~hi:iv.I.hi ~d ~p ()

let descent ~order =
  let rng = Random.State.make [| 23 |] in
  List.init 11 (fun depth ->
      List.filter_map
        (fun slot ->
          match Random.State.int rng 16 with
          | 0 -> None
          | 3 when depth < 10 ->
              (* the round's interval, labelled a level deeper: an exact
                 reporter that is echoed but still counts towards ranks *)
              let iv = vertex ~depth ~index:(order.(slot) lsr (10 - depth)) in
              Some
                (status ~id:ids1024.(slot) ~lo:iv.I.lo ~hi:iv.I.hi
                   ~d:(depth + 1) ~p:0 ())
          | r ->
              let d = if r = 1 && depth < 10 then depth + 1 else depth in
              Some
                (leaf_status ~slot ~leaf:order.(slot) ~d
                   ~p:(if r = 2 then 1 else 0)))
        (List.init 1024 Fun.id))

let shuffled () =
  let rng = Random.State.make [| 29 |] in
  let a = Array.init 1024 Fun.id in
  for k = 1023 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a

let groups_at ~depth round =
  List.sort_uniq compare
    (List.filter_map
       (function
         | _, CR.Msg.Status { iv; d; _ } when d = depth && iv.I.lo < iv.I.hi
           ->
             Some (iv.I.lo, iv.I.hi)
         | _ -> None)
       round)

let test_scale_ascending () =
  let rounds = descent ~order:(Array.init 1024 Fun.id) in
  Alcotest.(check bool) "over 256 groups at depth 9" true
    (List.length (groups_at ~depth:9 (List.nth rounds 9)) > 256);
  ignore (check_matches_oracle "ascending descent" ~ids:ids1024 rounds);
  (* the participant set handed over in any order is the same slot
     universe *)
  let reversed = Array.init 1024 (fun k -> ids1024.(1023 - k)) in
  ignore
    (check_matches_oracle "participants in reverse order" ~ids:reversed
       (take 10 rounds))

let test_scale_shuffled () =
  ignore
    (check_matches_oracle "shuffled descent" ~ids:ids1024
       (descent ~order:(shuffled ())))

(* Overlaps at scale, in and out of interval order: a depth-8 round
   over all 1024 reporters (256 groups of four), with the status of
   [slot] replaced by [lo, hi]. In order, the bad interval meets the
   group appended just before it; out of order, it is checked against
   the groups on its left and on its right before it would be
   inserted. *)
let test_scale_overlaps () =
  let round ?(silent = fun _ -> false) ~order ~slot ~lo ~hi () =
    List.filter_map
      (fun s ->
        if silent s then None
        else if s = slot then Some (status ~id:ids1024.(s) ~lo ~hi ~d:8 ~p:0 ())
        else Some (leaf_status ~slot:s ~leaf:order.(s) ~d:8 ~p:0))
      (List.init 1024 Fun.id)
  in
  let ascending = Array.init 1024 Fun.id in
  let rejects name r = check_rejects name ~ids:ids1024 ~why:overlap [ r ] in
  (* slot 43 closes group [41, 44]; slot 44 opens [45, 48] *)
  rejects "in order: starts inside the last group"
    (round ~order:ascending ~slot:44 ~lo:43 ~hi:46 ());
  rejects "in order: same lo, longer interval"
    (round ~order:ascending ~slot:44 ~lo:41 ~hi:48 ());
  rejects "out of order: overlaps its left group"
    (round ~order:ascending ~slot:1023 ~lo:3 ~hi:6 ());
  rejects "out of order: overlaps its right group"
    (round ~silent:(fun s -> s < 4) ~order:ascending ~slot:1023 ~lo:2 ~hi:5
       ());
  rejects "out of order: shuffled arrival"
    (round ~order:(shuffled ()) ~slot:1023 ~lo:43 ~hi:46 ());
  (* the same rounds without the corrupted status are accepted *)
  ignore
    (check_matches_oracle "shuffled depth 8" ~ids:ids1024
       [ round ~order:(shuffled ()) ~slot:(-1) ~lo:0 ~hi:0 () ])

(* {1 Footprint}

   The descent step from 256 groups to 512: a member that absorbed a
   depth-8 round of all 1024 reporters absorbs the depth-9 round. The
   rebuild allocates only the round's verdict payloads, two intervals
   and two interned responses per group (7,168 minor words, 7,199 with
   a sweep closure per absorb); the member's whole record stays linear
   in n (28,232 reachable words, 27.6 n, with its group columns sized
   for 512 groups up front). A committee that kept one n-bit member set
   per group read 20,831 words and 42.1 n on the same rounds. *)
let test_footprint () =
  let round d =
    List.init 1024 (fun slot -> leaf_status ~slot ~leaf:slot ~d ~p:0)
  in
  let words, cs = CR.For_tests.footprint ~ids:ids1024 [ round 8 ] (round 9) in
  Alcotest.(check bool)
    (Printf.sprintf "absorb allocates %.0f <= 7900 minor words" words)
    true (words <= 7900.);
  let reachable = Obj.reachable_words (Obj.repr cs) in
  Alcotest.(check bool)
    (Printf.sprintf "record holds %d <= 30 n words" reachable)
    true
    (reachable <= 30 * 1024)

(* A fresh member's first absorb allocates only its verdict payloads:
   its group columns and verdict outbox are sized at creation for the
   largest round, so no column grows while a round is absorbed. Every
   reporter of this depth-7 round sits in one of 128 groups of eight,
   and each group interns one bottom and one top verdict, an interval
   (3 words) and a [Response] (4) each. Growing the columns in the
   absorb, as the member once did, read 3,885 more words here. *)
let test_first_absorb_allocates_verdicts_only () =
  let round =
    List.init 1024 (fun slot -> leaf_status ~slot ~leaf:slot ~d:7 ~p:0)
  in
  let words, _ = CR.For_tests.footprint ~ids:ids1024 [] round in
  Alcotest.(check (float 0.)) "14 words per group" (14. *. 128.) words

(* A steady-state absorb of an unchanged all-singleton round allocates
   nothing: every verdict is the slot's cached message, and the absorb
   sweep is built once per member with its counters in the record. A
   sweep closure with its four counter refs and a boxed outcome per
   absorb read 22 words. *)
let test_steady_absorb_allocates_nothing () =
  let round =
    List.init 1024 (fun slot -> leaf_status ~slot ~leaf:slot ~d:10 ~p:0)
  in
  let words, _ = CR.For_tests.footprint ~ids:ids1024 [ round; round ] round in
  Alcotest.(check (float 0.)) "steady absorb" 0. words

(* Building and absorbing a 1024-id committee forces no minor
   collection. [Array.make] of more than 256 words with a young fill
   does: the member's interval columns once filled with a freshly built
   interval. The round is built before the minor collection, so its
   messages are old by the time the member copies them. *)
let test_committee_forces_no_minor_collection () =
  let round =
    List.init 1024 (fun slot -> leaf_status ~slot ~leaf:slot ~d:9 ~p:0)
  in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let verdicts =
    CR.For_tests.committee_verdicts ~pv:0 ~ids:ids1024 [ round ]
  in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "verdicts" 1024 (List.length (List.concat verdicts));
  Alcotest.(check int) "minor collections" before after

(* The group columns hold [target / 2] groups, which disjoint
   non-singleton intervals inside [1, target] cannot exceed; a status
   outside the namespace is refused by name, before it can overflow
   them. *)
let test_interval_outside_namespace_raises () =
  let why = "interval outside the target namespace" in
  check_rejects "past the target" ~ids:ids8 ~why
    [ [ status ~id:3 ~lo:7 ~hi:9 ~d:0 ~p:0 () ] ];
  check_rejects "below 1" ~ids:ids8 ~why
    [ [ status ~id:3 ~lo:0 ~hi:1 ~d:0 ~p:0 () ] ];
  (* five disjoint pairs would need a fifth group in [1, 8] *)
  check_rejects "more groups than fit" ~ids:ids8 ~why
    [
      List.map
        (fun (id, lo) -> status ~id ~lo ~hi:(lo + 1) ~d:1 ~p:0 ())
        [ (3, 1); (5, 3); (9, 5); (12, 7); (17, 9) ];
    ]

(* Randomized differential fixture: arbitrary status rounds, mostly
   tree-shaped, occasionally corrupted (the generator records which
   rounds). A clean sequence must match the oracle round for round; a
   corrupted one must either match too or raise, and then only on a
   round the generator corrupted, with every earlier round matching. *)
let qcheck_matches_oracle =
  let open QCheck in
  let gen =
    Gen.(
      let* nrounds = int_range 1 5 in
      list_repeat nrounds
        (let* reporters =
           List.fold_right
             (fun id acc ->
               let* acc = acc in
               let* keep = bool in
               return (if keep then id :: acc else acc))
             (Array.to_list ids8) (return [])
         in
         List.fold_right
           (fun id acc ->
             let* entries, corrupted = acc in
             let* d = int_range 0 3 in
             let* index = int_range 0 ((1 lsl d) - 1) in
             let iv =
               match Halving_tree.tree_vertex_at ~n:8 ~depth:d ~index with
               | Some iv -> iv
               | None -> I.full 8
             in
             let* p = int_range 0 2 in
             let* corrupt = int_range 0 19 in
             let entry =
               match corrupt with
               | 0 ->
                   (* forged id *)
                   (id, CR.Msg.Status { id = id + 1; iv; d; p })
               | 1 ->
                   (* off-tree interval *)
                   (id, CR.Msg.Status { id; iv = I.make 2 6; d; p })
               | 2 -> (id, CR.Msg.Status { id; iv; d = 1 lsl 21; p })
               | _ -> (id, CR.Msg.Status { id; iv; d; p })
             in
             return (entry :: entries, corrupted || corrupt <= 2))
           reporters
           (return ([], false))))
  in
  let print rounds =
    String.concat " | "
      (List.map
         (fun (pairs, corrupted) ->
           (if corrupted then "corrupted: " else "")
           ^ String.concat ";"
               (List.map
                  (fun (src, m) ->
                    Printf.sprintf "%d<-%s" src
                      (Format.asprintf "%a" CR.Msg.pp m))
                  pairs))
         rounds)
  in
  Test.make ~name:"all committee paths agree on random rounds" ~count:300
    (make ~print gen) (fun tagged ->
      let rounds = List.map fst tagged in
      let reference = Committee_oracle.verdicts ~pv:0 rounds in
      let run k =
        CR.For_tests.committee_verdicts ~pv:0 ~ids:ids8 (take k rounds)
      in
      match run (List.length rounds) with
      | got ->
          got = reference
          && List.for_all
               (List.for_all (fun (_, msg, bits) -> CR.Msg.bits msg = bits))
               got
      | exception CR.Invalid_committee_inbox _ ->
          (* the first round whose prefix raises *)
          let rec first_raising k =
            match run k with
            | _ -> first_raising (k + 1)
            | exception CR.Invalid_committee_inbox _ -> k
          in
          let k = first_raising 1 in
          snd (List.nth tagged (k - 1))
          && run (k - 1) = take (k - 1) reference)

(* {1 Full-run pins}

   Whole executions must stay byte-identical to the pinned runs (see
   [Committee_oracle.check_pin]): same run-trace JSONL (per-round
   metrics rows, size histogram, crash and decide events), same
   assignments and totals. Exercised no-fault and under the frozen
   corpus crash schedule — replayed through [Scripted_crashes], the
   same injection point the fuzzer uses — for both committee-based
   protocols. *)

let corpus_schedule () =
  match Schedule.of_file "corpus/crash_mid_send.sched" with
  | Error m -> Alcotest.failf "corpus schedule: %s" m
  | Ok s -> s

let check_run name ~expected ~protocol ~n ~namespace ~adversary ~seed =
  let t =
    Trace.create
      ~meta:[ ("algo", `Str (E.crash_protocol_name protocol)) ]
      ()
  in
  let a = E.run_crash ~trace:t ~protocol ~n ~namespace ~adversary ~seed () in
  Alcotest.(check bool) (name ^ ": run correct") true a.Runner.correct;
  Committee_oracle.check_pin name ~expected
    (Committee_oracle.pin_of ~trace:t a);
  a

let no_fault_pins =
  [
    ( E.This_work_crash,
      {
        Committee_oracle.trace_md5 = "0aa302abfce2fd6182376890ef2ae434";
        assign_md5 = "f1685c92765fd4690892bf9462f2ad21";
        bits = 408180;
        msgs = 21600;
      } );
    ( E.Halving_baseline,
      {
        Committee_oracle.trace_md5 = "fd1409fa09ca6eddf10b4818f9292b34";
        assign_md5 = "f1685c92765fd4690892bf9462f2ad21";
        bits = 870784;
        msgs = 46080;
      } );
  ]

let corpus_pins =
  [
    ( E.This_work_crash,
      {
        Committee_oracle.trace_md5 = "d048411832440f45b1c4d7119bc7e2e9";
        assign_md5 = "3b7352cd7a9040d808abf63ac4981142";
        bits = 349600;
        msgs = 19074;
      } );
    ( E.Halving_baseline,
      {
        Committee_oracle.trace_md5 = "4515fe0641d84c494e59206934a4d791";
        assign_md5 = "3b7352cd7a9040d808abf63ac4981142";
        bits = 732942;
        msgs = 39953;
      } );
  ]

let test_full_runs_no_fault () =
  List.iter
    (fun (protocol, expected) ->
      ignore
        (check_run
           (E.crash_protocol_name protocol ^ " no-fault")
           ~expected ~protocol ~n:32 ~namespace:2048 ~adversary:E.No_crash
           ~seed:42))
    no_fault_pins

let test_full_runs_corpus_schedule () =
  let s = corpus_schedule () in
  Alcotest.(check int) "corpus schedule shape" 32 s.Schedule.n;
  let adversary =
    E.Scripted_crashes
      (List.map
         (fun (c : Schedule.crash_event) ->
           ( c.cr_round,
             c.cr_victim,
             match c.cr_delivery with
             | Schedule.All -> `All
             | Schedule.Nothing -> `Nothing
             | Schedule.Subset salt -> `Subset salt ))
         s.Schedule.crashes)
  in
  List.iter
    (fun (protocol, expected) ->
      let a =
        check_run
          (E.crash_protocol_name protocol ^ " corpus schedule")
          ~expected ~protocol ~n:s.Schedule.n ~namespace:s.Schedule.namespace
          ~adversary ~seed:s.Schedule.seed
      in
      (* the schedule must actually bite — otherwise this test would
         silently degrade into a second no-fault run *)
      Alcotest.(check bool)
        (E.crash_protocol_name protocol ^ ": schedule crashes nodes")
        true (a.Runner.crashed > 0))
    corpus_pins

let suite =
  ( "committee-paths",
    [
      Alcotest.test_case "well-formed descent" `Quick test_well_formed_descent;
      Alcotest.test_case "disjointness violation raises" `Quick
        test_disjointness_violation_raises;
      Alcotest.test_case "forged/duplicated sources raise" `Quick
        test_forged_and_duplicated_sources_raise;
      Alcotest.test_case "empty and degenerate inboxes" `Quick
        test_empty_and_degenerate;
      Alcotest.test_case "reporter churn matches the oracle" `Quick
        test_reporter_churn;
      Alcotest.test_case "1024 ascending ids: append path" `Quick
        test_scale_ascending;
      Alcotest.test_case "1024 shuffled ids: insert path" `Quick
        test_scale_shuffled;
      Alcotest.test_case "1024 ids: overlaps in and out of order" `Quick
        test_scale_overlaps;
      Alcotest.test_case "footprint of the 512-group round" `Quick
        test_footprint;
      Alcotest.test_case "first absorb allocates verdicts only" `Quick
        test_first_absorb_allocates_verdicts_only;
      Alcotest.test_case "steady-state absorb allocates nothing" `Quick
        test_steady_absorb_allocates_nothing;
      Alcotest.test_case "committee forces no minor collection" `Quick
        test_committee_forces_no_minor_collection;
      Alcotest.test_case "interval outside the namespace raises" `Quick
        test_interval_outside_namespace_raises;
      QCheck_alcotest.to_alcotest qcheck_matches_oracle;
      Alcotest.test_case "full runs byte-identical (no fault)" `Quick
        test_full_runs_no_fault;
      Alcotest.test_case "full runs byte-identical (corpus schedule)" `Quick
        test_full_runs_corpus_schedule;
    ] )
