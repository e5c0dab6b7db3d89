(* Behavioural tests for the canned crash adversaries themselves: they
   are part of the experimental apparatus, so their semantics (who gets
   killed, when, what still gets delivered) must be pinned down. *)

module Engine = Repro_sim.Engine

module M = struct
  type t = Tick

  let bits Tick = 1
  let pp ppf Tick = Format.fprintf ppf "tick"
end

module Net = Engine.Make (M)

let ids = [| 1; 2; 3; 4; 5; 6 |]

(* A program where node 1 broadcasts every round (looks like a committee
   member) and the others stay quiet; runs [rounds] rounds. *)
let broadcaster_program ~rounds ~broadcasters ctx =
  for _ = 1 to rounds do
    if List.mem (Net.my_id ctx) broadcasters then
      ignore (Net.broadcast ctx M.Tick)
    else ignore (Net.skip_round ctx)
  done

let outcomes_of res =
  List.map
    (fun (id, o) ->
      ( id,
        match o with
        | Engine.Decided _ -> `D
        | Engine.Crashed r -> `C r
        | Engine.Byzantine -> `B
        | Engine.Unfinished -> `U ))
    res.Engine.outcomes

let test_targeted_hits_exact_round () =
  let crash = Net.Crash.scripted (Crash_harness.targeted [ (2, 3); (0, 5) ]) in
  let res =
    Net.run ~ids ~crash ~program:(broadcaster_program ~rounds:4 ~broadcasters:[ 1 ]) ()
  in
  let o = outcomes_of res in
  Alcotest.(check bool) "3 crashed at round 2" true (List.assoc 3 o = `C 2);
  Alcotest.(check bool) "5 crashed at round 0" true (List.assoc 5 o = `C 0);
  Alcotest.(check bool) "1 survived" true (List.assoc 1 o = `D);
  Alcotest.(check int) "two crashes" 2 res.metrics.Repro_sim.Metrics.crashes

let test_committee_killer_kills_only_broadcasters () =
  let rng = Repro_util.Rng.of_seed 1 in
  let crash = Net.Crash.committee_killer ~rng ~budget:10 () in
  let res =
    Net.run ~ids ~crash
      ~program:(broadcaster_program ~rounds:3 ~broadcasters:[ 1; 4 ])
      ()
  in
  let o = outcomes_of res in
  Alcotest.(check bool) "1 killed" true
    (match List.assoc 1 o with `C _ -> true | _ -> false);
  Alcotest.(check bool) "4 killed" true
    (match List.assoc 4 o with `C _ -> true | _ -> false);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "quiet node %d spared" id)
        true
        (List.assoc id o = `D))
    [ 2; 3; 5; 6 ]

let test_committee_killer_respects_budget () =
  let rng = Repro_util.Rng.of_seed 2 in
  let crash = Net.Crash.committee_killer ~rng ~budget:1 () in
  let res =
    Net.run ~ids ~crash
      ~program:(broadcaster_program ~rounds:3 ~broadcasters:[ 1; 4 ])
      ()
  in
  Alcotest.(check int) "exactly one crash" 1
    res.metrics.Repro_sim.Metrics.crashes

let test_random_respects_f () =
  let rng = Repro_util.Rng.of_seed 3 in
  let crash = Net.Crash.random ~rng ~f:3 ~horizon:4 () in
  let res =
    Net.run ~ids ~crash ~program:(broadcaster_program ~rounds:6 ~broadcasters:[])
      ()
  in
  Alcotest.(check int) "three crashes" 3 res.metrics.Repro_sim.Metrics.crashes

let test_random_f_zero_is_noop () =
  let rng = Repro_util.Rng.of_seed 4 in
  let crash = Net.Crash.random ~rng ~f:0 () in
  let res =
    Net.run ~ids ~crash ~program:(broadcaster_program ~rounds:3 ~broadcasters:[ 1 ])
      ()
  in
  Alcotest.(check int) "no crashes" 0 res.metrics.Repro_sim.Metrics.crashes;
  List.iter
    (fun (_, o) -> Alcotest.(check bool) "all decide" true (o = `D))
    (outcomes_of res)

let test_patient_killer_spares_first_announcement () =
  let crash = Net.Crash.patient_killer ~budget:10 () in
  let res =
    Net.run ~ids ~crash ~program:(broadcaster_program ~rounds:1 ~broadcasters:[ 1 ]) ()
  in
  Alcotest.(check int) "first announcement tolerated" 0
    res.metrics.Repro_sim.Metrics.crashes;
  let res =
    Net.run ~ids ~crash:(Net.Crash.patient_killer ~budget:10 ())
      ~program:(broadcaster_program ~rounds:2 ~broadcasters:[ 1 ])
      ()
  in
  Alcotest.(check int) "second announcement is fatal" 1
    res.metrics.Repro_sim.Metrics.crashes

let test_none () =
  let res =
    Net.run ~ids ~crash:Net.Crash.none
      ~program:(broadcaster_program ~rounds:2 ~broadcasters:[ 1 ])
      ()
  in
  Alcotest.(check int) "no crashes" 0 res.metrics.Repro_sim.Metrics.crashes

(* Node [k] broadcasts in rounds [k-1 .. k-2+width] and stays quiet
   otherwise, so announcements are staggered one node per round. *)
let staggered_program ~width ctx =
  let me = Net.my_id ctx in
  for r = 0 to 7 do
    if me - 1 <= r && r < me - 1 + width then ignore (Net.broadcast ctx M.Tick)
    else ignore (Net.skip_round ctx)
  done

(* The engine's calls, counted; the adversary's steps pass through. *)
let counted adversary =
  let calls = ref 0 in
  (calls, fun obs -> incr calls; adversary obs)

(* A killer retires in the round its budget runs out, not before: with
   one announcer per round, a budget of 3 kills in three consecutive
   rounds, and an adversary that retired with budget left over would
   miss the third. *)
let test_killers_retire_when_budget_spent () =
  let check name ~width ~first_kill adversary =
    let calls, crash = counted adversary in
    let res = Net.run ~ids ~crash ~program:(staggered_program ~width) () in
    let o = outcomes_of res in
    Alcotest.(check int) (name ^ ": budget spent") 3
      res.metrics.Repro_sim.Metrics.crashes;
    List.iter
      (fun k ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: node %d killed in round %d" name k
             (first_kill + k - 1))
          true
          (List.assoc k o = `C (first_kill + k - 1)))
      [ 1; 2; 3 ];
    Alcotest.(check int)
      (name ^ ": observed up to the last kill")
      (first_kill + 3) !calls
  in
  check "committee_killer" ~width:1 ~first_kill:0
    (Net.Crash.committee_killer ~rng:(Repro_util.Rng.of_seed 5) ~budget:3 ());
  check "patient_killer" ~width:2 ~first_kill:1
    (Net.Crash.patient_killer ~budget:3 ())

let suite =
  ( "crash_strategies",
    [
      Alcotest.test_case "targeted hits exact rounds" `Quick
        test_targeted_hits_exact_round;
      Alcotest.test_case "killer kills only broadcasters" `Quick
        test_committee_killer_kills_only_broadcasters;
      Alcotest.test_case "killer respects budget" `Quick
        test_committee_killer_respects_budget;
      Alcotest.test_case "random respects f" `Quick test_random_respects_f;
      Alcotest.test_case "random f=0 is noop" `Quick test_random_f_zero_is_noop;
      Alcotest.test_case "patient killer timing" `Quick
        test_patient_killer_spares_first_announcement;
      Alcotest.test_case "none" `Quick test_none;
      Alcotest.test_case "killers retire when the budget is spent" `Quick
        test_killers_retire_when_budget_spent;
    ] )
