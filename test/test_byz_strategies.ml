(* Shape tests for the Byzantine strategy library: the attacks must obey
   the transferable-membership model (ELECT all-or-nothing) while
   genuinely splitting views elsewhere — otherwise the correctness tests
   that rely on them would be vacuous. *)

module BR = Repro_renaming.Byzantine_renaming
module BS = Repro_renaming.Byz_strategies
module Pool = Repro_crypto.Committee_pool
module Rng = Repro_util.Rng

let n = 24
let namespace = n * n
let ids = Repro_renaming.Experiment.random_ids ~seed:5 ~namespace ~n

let params =
  {
    (BR.default_params ~namespace ~shared_seed:6) with
    pool_probability = `Fixed 0.6;
  }

let pool = BR.pool_of_params params ~n
let candidates = Array.to_list ids |> List.filter (Pool.mem pool)
let a_candidate = List.hd candidates

let a_non_candidate =
  Array.to_list ids |> List.find (fun i -> not (Pool.mem pool i))

let elect_round strategy byz_id =
  strategy ~byz_id ~round:0 ~inbox:[]
  |> List.filter (fun (_, m) -> m = BR.Msg.Elect)

let test_split_world_elect_all_or_nothing () =
  let strategy = BS.split_world params ~rng:(Rng.of_seed 7) ~ids in
  let as_candidate = elect_round strategy a_candidate in
  Alcotest.(check int) "candidate announces to every node" n
    (List.length as_candidate);
  let dests = List.sort_uniq Int.compare (List.map fst as_candidate) in
  Alcotest.(check int) "all distinct destinations" n (List.length dests);
  let strategy = BS.split_world params ~rng:(Rng.of_seed 7) ~ids in
  Alcotest.(check int) "non-candidate cannot announce" 0
    (List.length (elect_round strategy a_non_candidate))

let test_split_world_announces_to_half () =
  let strategy = BS.split_world params ~rng:(Rng.of_seed 8) ~ids in
  ignore (elect_round strategy a_candidate);
  (* Round 1 inbox: all candidates' ELECTs (as the engine would deliver). *)
  let inbox =
    List.map
      (fun src -> { BR.Net.src; dst = a_candidate; msg = BR.Msg.Elect })
      candidates
  in
  let out = strategy ~byz_id:a_candidate ~round:1 ~inbox in
  let announces =
    List.filter (fun (_, m) -> m = BR.Msg.Announce) out |> List.map fst
  in
  let k = List.length candidates in
  Alcotest.(check bool)
    (Printf.sprintf "announced to %d of %d members (strictly between)"
       (List.length announces) k)
    true
    (List.length announces > 0 && List.length announces < k);
  List.iter
    (fun d ->
      Alcotest.(check bool) "announce targets are committee members" true
        (List.mem d candidates))
    announces

let test_split_world_equivocates () =
  let strategy = BS.split_world params ~rng:(Rng.of_seed 9) ~ids in
  ignore (elect_round strategy a_candidate);
  let inbox =
    List.map
      (fun src -> { BR.Net.src; dst = a_candidate; msg = BR.Msg.Elect })
      candidates
  in
  let out = strategy ~byz_id:a_candidate ~round:1 ~inbox in
  let votes =
    List.filter_map
      (fun (dst, m) ->
        match m with
        | BR.Msg.Pk (Repro_consensus.Phase_king.Vote b) -> Some (dst, b)
        | _ -> None)
      out
  in
  let faces = List.sort_uniq compare (List.map snd votes) in
  Alcotest.(check int) "two-faced voting" 2 (List.length faces)

let test_hijack_obeys_pool () =
  let strategy = BS.committee_hijack params ~ids in
  Alcotest.(check int) "candidate joins" n
    (List.length (elect_round strategy a_candidate));
  Alcotest.(check int) "non-candidate cannot join under shared pool" 0
    (List.length (elect_round strategy a_non_candidate))

let test_hijack_mass_joins_local_coin () =
  let lc_params = { params with committee = BR.Local_coin 0.3 } in
  let strategy = BS.committee_hijack lc_params ~ids in
  Alcotest.(check int) "anyone joins under local coin" n
    (List.length (elect_round strategy a_non_candidate))

let test_silent_is_silent () =
  for round = 0 to 5 do
    Alcotest.(check int)
      (Printf.sprintf "round %d" round)
      0
      (List.length (BS.silent ~byz_id:a_candidate ~round ~inbox:[]))
  done

(* The library's split-world strategy against the oracle's, through
   whole Byzantine runs: both see the same calls, each draws from its
   own rng seeded alike, and the run goes on with the library's output.
   Inputs derive from the seed as in [Experiment.run_byz]. *)
let test_split_world_matches_oracle () =
  let calls = ref 0 in
  let check_run ~committee ~n ~f ~seed =
    let namespace = 64 * n in
    let ids =
      Repro_renaming.Experiment.random_ids ~seed:(seed lxor 0x2e7) ~namespace
        ~n
    in
    let params =
      {
        (BR.default_params ~namespace ~shared_seed:(seed lxor 0x5aed)) with
        pool_probability =
          `Fixed (Repro_renaming.Experiment.committee_pool_probability ~n);
        committee;
      }
    in
    let byz_ids =
      Array.to_list
        (Rng.sample_without_replacement (Rng.of_seed (seed lxor 0xca410)) f
           ids)
    in
    let rng () = Rng.of_seed (seed lxor 0xb42) in
    let lib = BS.split_world params ~rng:(rng ()) ~ids in
    let oracle = Split_world_oracle.split_world params ~rng:(rng ()) ~ids in
    let strategy ~byz_id ~round ~inbox =
      let got = lib ~byz_id ~round ~inbox in
      if got <> oracle ~byz_id ~round ~inbox then
        Alcotest.failf "n=%d f=%d seed=%d: byz %d differs at round %d" n f
          seed byz_id round;
      incr calls;
      got
    in
    ignore
      (BR.run ~params ~byz:(byz_ids, strategy) ~max_rounds:400_000 ~seed
         ~shards:1 ~ids ())
  in
  List.iter
    (fun (n, f) ->
      for seed = 1 to 6 do
        check_run ~committee:BR.Shared_pool ~n ~f ~seed
      done)
    [ (32, 2); (64, 3); (128, 2) ];
  check_run ~committee:BR.Everyone ~n:32 ~f:2 ~seed:1;
  Alcotest.(check bool)
    (Printf.sprintf "compared %d calls" !calls)
    true (!calls > 0)

let suite =
  ( "byz_strategies",
    [
      Alcotest.test_case "split-world: ELECT all-or-nothing" `Quick
        test_split_world_elect_all_or_nothing;
      Alcotest.test_case "split-world: half announcements" `Quick
        test_split_world_announces_to_half;
      Alcotest.test_case "split-world: equivocation" `Quick
        test_split_world_equivocates;
      Alcotest.test_case "hijack obeys shared pool" `Quick
        test_hijack_obeys_pool;
      Alcotest.test_case "hijack mass-joins local coin" `Quick
        test_hijack_mass_joins_local_coin;
      Alcotest.test_case "silent is silent" `Quick test_silent_is_silent;
      Alcotest.test_case "split-world equals its oracle" `Quick
        test_split_world_matches_oracle;
    ] )
