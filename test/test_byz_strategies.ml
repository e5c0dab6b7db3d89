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
  Byz_list.to_list (strategy ~byz_id ~round:0 ~inbox:[])
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
  let out = Byz_list.to_list (strategy ~byz_id:a_candidate ~round:1 ~inbox) in
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
  let out = Byz_list.to_list (strategy ~byz_id:a_candidate ~round:1 ~inbox) in
  let votes =
    List.filter_map
      (fun (dst, m) ->
        match m with
        | BR.Msg.Pk_vote b -> Some (dst, b)
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
      (BS.silent ~byz_id:a_candidate ~round ~inbox:[]).len
  done

(* A Byzantine run as [Experiment.run_byz] sets one up: identities,
   parameters and the Byzantine set all derive from the seed. *)
let byz_setup ?(committee = BR.Shared_pool) ~n ~f ~seed () =
  let namespace = 64 * n in
  let ids =
    Repro_renaming.Experiment.random_ids ~seed:(seed lxor 0x2e7) ~namespace ~n
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
      (Rng.sample_without_replacement (Rng.of_seed (seed lxor 0xca410)) f ids)
  in
  (ids, params, byz_ids)

(* Run [lib] through a whole Byzantine run, asking [oracle] the same
   question on every call: both see the same calls, each draws from its
   own state built alike, and the run goes on with the library's sends.
   Returns the number of calls compared. *)
let run_against_oracle ~what ~params ~ids ~byz_ids ~seed ~lib
    ~(oracle : Byz_list.strategy) =
  let calls = ref 0 in
  let strategy ~byz_id ~round ~inbox =
    let got = lib ~byz_id ~round ~inbox in
    if Byz_list.to_list got <> oracle ~byz_id ~round ~inbox then
      Alcotest.failf "%s seed=%d: byz %d differs at round %d" what seed byz_id
        round;
    incr calls;
    got
  in
  ignore
    (BR.run ~params ~byz:(byz_ids, strategy) ~max_rounds:400_000 ~seed
       ~shards:1 ~ids ());
  !calls

let check_compared calls =
  Alcotest.(check bool)
    (Printf.sprintf "compared %d calls" calls)
    true (calls > 0)

(* The library's split-world strategy against the oracle's, each drawing
   from its own rng seeded alike. *)
let test_split_world_matches_oracle () =
  let calls = ref 0 in
  let check_run ?committee ~n ~f ~seed () =
    let ids, params, byz_ids = byz_setup ?committee ~n ~f ~seed () in
    let rng () = Rng.of_seed (seed lxor 0xb42) in
    calls :=
      !calls
      + run_against_oracle
          ~what:(Printf.sprintf "split-world n=%d f=%d" n f)
          ~params ~ids ~byz_ids ~seed
          ~lib:(BS.split_world params ~rng:(rng ()) ~ids)
          ~oracle:(Split_world_oracle.split_world params ~rng:(rng ()) ~ids)
  in
  List.iter
    (fun (n, f) ->
      for seed = 1 to 6 do
        check_run ~n ~f ~seed ()
      done)
    [ (32, 2); (64, 3); (128, 2) ];
  check_run ~committee:BR.Everyone ~n:32 ~f:2 ~seed:1 ();
  check_compared !calls

(* [scripted] against its oracle with every behaviour in one run: the
   Byzantine nodes take the behaviours in turn, so noise, equivocation,
   misaddressed sends and replays interleave on the shared rng. *)
let test_scripted_matches_oracle () =
  let calls = ref 0 in
  let check_run ?committee ~n ~f ~seed () =
    let ids, params, byz_ids = byz_setup ?committee ~n ~f ~seed () in
    let all = Array.of_list BS.all_behaviors in
    let behaviors =
      List.mapi
        (fun i b -> (b, all.((i + seed) mod Array.length all)))
        byz_ids
    in
    let rng () = Rng.of_seed (seed lxor 0xb42) in
    calls :=
      !calls
      + run_against_oracle
          ~what:(Printf.sprintf "scripted n=%d f=%d" n f)
          ~params ~ids ~byz_ids ~seed
          ~lib:(BS.scripted params ~rng:(rng ()) ~ids ~behaviors)
          ~oracle:(Scripted_oracle.scripted params ~rng:(rng ()) ~ids ~behaviors)
  in
  for seed = 1 to 5 do
    check_run ~n:32 ~f:5 ~seed ()
  done;
  check_run ~n:64 ~f:6 ~seed:6 ();
  check_run ~committee:(BR.Local_coin 0.3) ~n:32 ~f:5 ~seed:7 ();
  check_run ~committee:BR.Everyone ~n:32 ~f:5 ~seed:8 ();
  check_compared !calls

(* [committee_hijack] against its oracle, with a corrupted majority of
   the committee (the run the adaptive-adversary test makes) and with a
   static Byzantine set. *)
let test_hijack_matches_oracle () =
  let calls = ref 0 in
  let check_run ~params ~ids ~byz_ids ~seed =
    calls :=
      !calls
      + run_against_oracle ~what:"committee-hijack" ~params ~ids ~byz_ids
          ~seed
          ~lib:(BS.committee_hijack params ~ids)
          ~oracle:(Scripted_oracle.committee_hijack params ~ids)
  in
  let majority = List.filteri (fun i _ -> i mod 3 <> 2) candidates in
  check_run ~params ~ids ~byz_ids:majority ~seed:18;
  for seed = 1 to 3 do
    let ids, params, byz_ids = byz_setup ~n:32 ~f:4 ~seed () in
    check_run ~params ~ids ~byz_ids ~seed
  done;
  check_compared !calls

(* Minor words the split-world strategy allocates per message it emits,
   over one whole run at one shard. Only the strategy's own calls are
   counted, so the figure is the per-send cost of emission. *)
let test_split_world_emission_allocation () =
  let ids, params, byz_ids = byz_setup ~n:128 ~f:2 ~seed:1 () in
  let lib = BS.split_world params ~rng:(Rng.of_seed (1 lxor 0xb42)) ~ids in
  let words = ref 0. and sent = ref 0 in
  let strategy ~byz_id ~round ~inbox =
    let w0 = Gc.minor_words () in
    let b = lib ~byz_id ~round ~inbox in
    let w = Gc.minor_words () -. w0 in
    words := !words +. w;
    sent := !sent + b.BR.Net.Sends.len;
    b
  in
  ignore
    (BR.run ~params ~byz:(byz_ids, strategy) ~max_rounds:400_000 ~seed:1
       ~shards:1 ~ids ());
  let per_msg = !words /. float_of_int !sent in
  (* 0.804 when recorded, over 916,054 sends: a one-block validator
     input per equivocated member and a one-block lock for half of them,
     a NEW per bait. It read 1.952 while validator messages nested a
     [Validator.msg] (and an option for a lock) inside [Msg.t], 2.444
     before fingerprints were immediates, and 6.234 when the strategy
     returned a fresh [(dst, msg)] list, three words of cons cell and
     three of pair per send. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per emitted message <= 0.82 (%d sent)"
       per_msg !sent)
    true (per_msg <= 0.82)

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
      Alcotest.test_case "scripted equals its oracle" `Quick
        test_scripted_matches_oracle;
      Alcotest.test_case "hijack equals its oracle" `Quick
        test_hijack_matches_oracle;
      Alcotest.test_case "split_world emission allocation" `Quick
        test_split_world_emission_allocation;
    ] )
