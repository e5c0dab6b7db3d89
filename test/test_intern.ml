(* Zero-allocation verdict payloads: correctness pins for the three
   sharing mechanisms the committee hot path relies on.

   - {e Interning}: one canonical [Response] per (group, outcome) per
     round, physically shared by every recipient. The fixture pins the
     sharing itself; the QCheck differential pins that an interned
     message is billed exactly like a freshly built structural copy —
     sharing must be invisible to the size-accounting oracle.
   - {e Arena rounds}: the verdict outbox and the group columns are
     arrays a member sizes once and refills every round. The recycling
     fixture pins that one round's contents cannot leak into the next.
   - {e Full-run equivalence}: metrics rows and run-trace JSONL must be
     byte-identical across shard counts {1, 4} and equal to pins
     recorded from the linear-scan committee, which built every verdict
     fresh per recipient — so the pins are the end-to-end differential
     between interned and fresh payloads. *)

module CR = Repro_renaming.Crash_renaming
module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Trace = Repro_obs.Trace
module I = Repro_util.Interval

let ids8 = [| 3; 5; 9; 12; 17; 20; 28; 31 |]

let status ~id ~lo ~hi ~d ~p =
  (id, CR.Msg.Status { id; iv = I.make lo hi; d; p })

(* {1 Physical sharing} *)

let distinct_phys msgs =
  List.fold_left
    (fun acc m -> if List.exists (fun m' -> m' == m) acc then acc else m :: acc)
    [] msgs

(* All eight reporters in one depth-0 group: the bottom half's four
   verdicts must be one message value and the top half's another — two
   physical messages for eight recipients. *)
let test_group_verdicts_physically_shared () =
  let rounds =
    [
      Array.to_list
        (Array.map (fun id -> status ~id ~lo:1 ~hi:8 ~d:0 ~p:0) ids8);
    ]
  in
  match
    CR.For_tests.committee_verdicts ~pv:0 ~ids:ids8
      rounds
  with
  | [ out ] ->
      Alcotest.(check int) "one verdict per reporter" 8 (List.length out);
      let msgs = List.map (fun (_, m, _) -> m) out in
      Alcotest.(check int) "two interned messages serve eight recipients" 2
        (List.length (distinct_phys msgs));
      (* structural equality must imply physical equality within the
         round: equal group verdicts are the same value *)
      List.iter
        (fun m ->
          List.iter
            (fun m' -> if m = m' && not (m == m') then
                Alcotest.fail "equal group verdicts not shared")
            msgs)
        msgs
  | outs -> Alcotest.failf "expected 1 round, got %d" (List.length outs)

(* A second round with a different escalation level must not resurrect
   the previous round's interned values: each absorb resets them. *)
let test_interning_is_per_round () =
  let round p =
    Array.to_list (Array.map (fun id -> status ~id ~lo:1 ~hi:8 ~d:0 ~p) ids8)
  in
  match
    CR.For_tests.committee_verdicts ~pv:0 ~ids:ids8
      [ round 0; round 1 ]
  with
  | [ out1; out2 ] ->
      List.iter2
        (fun (_, m1, _) (_, m2, _) ->
          if m1 == m2 then
            Alcotest.fail "stale interned verdict reused across rounds")
        out1 out2
  | _ -> Alcotest.fail "expected 2 rounds"

(* {1 Billing differential (QCheck)} *)

(* An interned message must be billed exactly like a freshly
   constructed structural copy — recipients of a shared value pay the
   same wire bits as recipients of private copies. Random rounds reuse
   the tree-shaped rounds of test_committee_paths. *)
let fresh_copy = function
  | CR.Msg.Response { iv; d; p } ->
      CR.Msg.Response { iv = I.make iv.I.lo iv.I.hi; d; p }
  | CR.Msg.Status { id; iv; d; p } ->
      CR.Msg.Status { id; iv = I.make iv.I.lo iv.I.hi; d; p }
  | CR.Msg.Notify -> CR.Msg.Notify

let qcheck_interned_billed_as_fresh =
  let open QCheck in
  let gen =
    Gen.(
      let* nrounds = int_range 1 4 in
      list_repeat nrounds
        (List.fold_right
           (fun id acc ->
             let* acc = acc in
             let* keep = bool in
             if not keep then return acc
             else
               let* d = int_range 0 3 in
               let* index = int_range 0 ((1 lsl d) - 1) in
               let iv =
                 match Halving_tree.tree_vertex_at ~n:8 ~depth:d ~index with
                 | Some iv -> iv
                 | None -> I.full 8
               in
               let* p = int_range 0 2 in
               return ((id, CR.Msg.Status { id; iv; d; p }) :: acc))
           (Array.to_list ids8) (return [])))
  in
  let print rounds =
    String.concat " | "
      (List.map
         (fun pairs ->
           String.concat ";"
             (List.map
                (fun (src, m) ->
                  Printf.sprintf "%d<-%s" src
                    (Format.asprintf "%a" CR.Msg.pp m))
                pairs))
         rounds)
  in
  Test.make ~name:"interned verdicts billed like fresh copies" ~count:200
    (make ~print gen) (fun rounds ->
      List.for_all
        (List.for_all (fun (_, msg, bits) ->
             let fresh = fresh_copy msg in
             fresh = msg && CR.Msg.bits fresh = bits))
        (CR.For_tests.committee_verdicts ~pv:0 ~ids:ids8 rounds))

(* Group churn through the committee: the group index is rebuilt over
   reused columns as the descent moves d_min; any stale group state or
   rank counter carried over would skew ranks and split the halves
   wrongly. The oracle builds everything fresh, so agreement is the
   leak check. *)
let test_committee_recycling_matches_scan () =
  let round ~lo ~hi ~d =
    Array.to_list (Array.map (fun id -> status ~id ~lo ~hi ~d ~p:0) ids8)
  in
  let rounds =
    [ round ~lo:1 ~hi:8 ~d:0; round ~lo:1 ~hi:4 ~d:1; round ~lo:5 ~hi:8 ~d:1 ]
  in
  Alcotest.(check bool) "reused group columns agree with the oracle" true
    (CR.For_tests.committee_verdicts ~pv:0 ~ids:ids8 rounds
    = Committee_oracle.verdicts ~pv:0 rounds)

(* {1 Full-run byte equivalence: pins x shards} *)

let run_one ~shards ~adversary ~seed =
  let t = Trace.create ~meta:[ ("algo", `Str "this-work") ] () in
  let a =
    E.run_crash ~trace:t ~shards ~protocol:E.This_work_crash ~n:48
      ~namespace:3072 ~adversary ~seed ()
  in
  Alcotest.(check bool) "run correct" true a.Runner.correct;
  Committee_oracle.pin_of ~trace:t a

let test_runs_identical_paths_shards () =
  List.iter
    (fun (aname, adversary, expected) ->
      List.iter
        (fun shards ->
          Committee_oracle.check_pin
            (Printf.sprintf "%s: shards=%d" aname shards)
            ~expected
            (run_one ~shards ~adversary ~seed:71))
        [ 1; 4 ])
    [
      ( "no-fault",
        E.No_crash,
        {
          Committee_oracle.trace_md5 = "2316c858b17ab9db8b0a653df12b8906";
          assign_md5 = "662d3e589124f510b133de72199205eb";
          bits = 878968;
          msgs = 44064;
        } );
      ( "killer",
        E.Committee_killer 12,
        {
          Committee_oracle.trace_md5 = "cdfa772db08e065041fad3c6b2fa5cce";
          assign_md5 = "d3452bd4a7d038994a22d7639e2addf5";
          bits = 209592;
          msgs = 11808;
        } );
    ]

let suite =
  ( "intern-arena",
    [
      Alcotest.test_case "group verdicts physically shared" `Quick
        test_group_verdicts_physically_shared;
      Alcotest.test_case "interning is per-round" `Quick
        test_interning_is_per_round;
      QCheck_alcotest.to_alcotest qcheck_interned_billed_as_fresh;
      Alcotest.test_case "committee recycling matches scan" `Quick
        test_committee_recycling_matches_scan;
      Alcotest.test_case "full runs byte-identical (paths x shards)" `Quick
        test_runs_identical_paths_shards;
    ] )
