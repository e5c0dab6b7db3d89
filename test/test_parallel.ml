module Parallel = Repro_renaming.Parallel
module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Pool = Repro_util.Domain_pool
module Engine = Repro_sim.Engine

module Net = Engine.Make (struct
  type t = int

  let bits _ = 8
  let pp = Format.pp_print_int
end)

(* The runner's contract is bit-identical output for every domain count:
   trials land in the slot of their own index no matter which domain ran
   them or in what order the scheduler interleaved the pulls. *)

let test_map_order_and_identity () =
  let f i = (i * i) + 7 in
  let expect = Array.init 23 f in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "map with %d domains" domains)
        expect
        (Parallel.map ~domains 23 f))
    [ 1; 2; 4; 7 ]

let test_trial_aggregates_domain_invariant () =
  (* Real simulated executions, the trials of a mean row as the paper
     tables fan them out. Everything — outcome flags, rounds, messages, bits — must
     be equal across domain counts, not merely the means. *)
  let trial i =
    let a =
      E.run_crash ~protocol:E.This_work_crash ~n:32 ~namespace:2048
        ~adversary:(E.Committee_killer 8) ~seed:(900 + (i * 7919)) ()
    in
    ( a.Runner.correct,
      a.Runner.strong,
      a.Runner.rounds,
      a.Runner.messages,
      a.Runner.bits )
  in
  let base = Parallel.map_list ~domains:1 6 trial in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "aggregates equal at %d domains" domains)
        true
        (Parallel.map_list ~domains 6 trial = base))
    [ 2; 4 ]

let test_averaged_domain_invariant () =
  (* Fan the trials out, then aggregate: the shape of every mean row in
     bench/main.ml and renaming_cli's sweeps. *)
  let means domains =
    let _, r, m, b =
      E.averaged
        (Parallel.map_list ~domains 5 (fun i ->
             E.run_crash ~protocol:E.This_work_crash ~n:32 ~namespace:2048
               ~adversary:E.No_crash ~seed:(E.trial_seed ~seed:321 i) ()))
    in
    (r, m, b)
  in
  let r1, m1, b1 = means 1 in
  List.iter
    (fun domains ->
      let r, m, b = means domains in
      (* Float equality on purpose: the fold order over trials is fixed
         by index, so the means are bit-identical, not just close. *)
      Alcotest.(check bool)
        (Printf.sprintf "means bit-identical at %d domains" domains)
        true
        (r = r1 && m = m1 && b = b1))
    [ 1; 2; 4 ]

let test_map_edge_cases () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~domains:4 0 Fun.id);
  Alcotest.(check (array int))
    "fewer jobs than domains" [| 0; 1 |]
    (Parallel.map ~domains:8 2 Fun.id);
  Alcotest.(check (array int))
    "zero domains runs on one" [| 0; 1; 2 |]
    (Parallel.map ~domains:0 3 Fun.id)

let test_map_propagates_exception () =
  Alcotest.check_raises "failure surfaces" (Failure "boom") (fun () ->
      ignore
        (Parallel.map ~domains:3 8 (fun i ->
             if i = 5 then failwith "boom" else i)))

(* [RENAMING_DOMAINS] for the duration of [f]; putenv cannot remove a
   variable, and the empty string parses as unset. *)
let with_budget value f =
  let old = Option.value ~default:"" (Sys.getenv_opt "RENAMING_DOMAINS") in
  Unix.putenv "RENAMING_DOMAINS" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "RENAMING_DOMAINS" old) f

let test_budget_parsing () =
  List.iter
    (fun (value, expect) ->
      Alcotest.(check (option int))
        (Printf.sprintf "budget of %S" value)
        expect
        (with_budget value Pool.budget))
    [ ("", None); ("4", Some 4); (" 2 ", Some 2); ("0", None); ("x", None) ]

(* Trials first: under a budget of 4, an [Engine.run] without [?shards]
   inside a 2-domain fan-out takes one shard, so its [alloc_probe] is
   filled (the engine fills it only at one shard); a lone run takes the
   whole budget as shards and leaves the probe untouched. *)
let test_budget_trials_first () =
  let ids = Array.init 16 (fun i -> i + 1) in
  let program ctx =
    for r = 1 to 3 do
      ignore (Net.broadcast ctx (Net.my_id ctx + r))
    done
  in
  let probed () =
    let p = Engine.alloc_probe () in
    ignore (Net.run ~ids ~alloc_probe:p ~program ());
    p.Engine.ap_deliver > 0. && p.Engine.ap_resume > 0.
  in
  with_budget "4" (fun () ->
      Alcotest.(check int) "lone: the budget" 4 (Pool.available ~unset:1);
      Alcotest.(check (array bool))
        "inside a 2-domain job: one shard" [| true; true |]
        (Parallel.map ~domains:2 2 (fun _ -> probed ()));
      Alcotest.(check (array int))
        "inside a 2-domain job: available 1" [| 1; 1; 1 |]
        (Parallel.map ~domains:2 3 (fun _ -> Pool.available ~unset:8));
      Alcotest.(check bool) "lone run: 4 shards, probe untouched" false
        (probed ()))

let suite =
  ( "parallel",
    [
      Alcotest.test_case "map order and identity" `Quick
        test_map_order_and_identity;
      Alcotest.test_case "trial aggregates domain-invariant" `Quick
        test_trial_aggregates_domain_invariant;
      Alcotest.test_case "averaged means domain-invariant" `Quick
        test_averaged_domain_invariant;
      Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
      Alcotest.test_case "exception propagation" `Quick
        test_map_propagates_exception;
      Alcotest.test_case "budget parsing" `Quick test_budget_parsing;
      Alcotest.test_case "budget: trials first" `Quick
        test_budget_trials_first;
    ] )
