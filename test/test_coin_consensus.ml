(* Property tests for the shared-coin consensus alternative: agreement
   (whp, checked over fixed horizons and many seeds), validity, and exact
   round consumption. *)

module Engine = Repro_sim.Engine
module CC = Repro_consensus.Coin_consensus
module CN = Repro_consensus.Committee_net
module Rng = Repro_util.Rng

module BR = Repro_renaming.Byzantine_renaming
module Net = Engine.Make (Pk_msg)
module BL = Byz_list.Make (Net)

let committee_net ctx members =
  CN.create ~me:(Net.my_id ctx) ~members
    ~multisend:(fun ~dsts m ~f -> Net.Inbox.iter (Net.multisend ctx ~dsts m) ~f)
    ~skip_round:(fun ~f -> Net.Inbox.iter (Net.skip_round ctx) ~f)

let shared_coin seed phase =
  Rng.bool (Rng.of_seed (seed lxor (phase * 7919)))

type byz_kind = Silent | Equivocate

let byz_strategy kind ~members : BL.strategy =
 fun ~byz_id:_ ~round:_ ~inbox:_ ->
  match kind with
  | Silent -> []
  | Equivocate ->
      List.mapi
        (fun i m ->
          let face = i mod 2 = 0 in
          [ (m, Pk_msg.Vote face); (m, Pk_msg.Propose face) ])
        members
      |> List.concat

let execute ~n ~byz_count ~kind ~horizon ~inputs ~seed =
  let ids = Array.init n (fun i -> (i * 11) + 5) in
  let members = List.sort Int.compare (Array.to_list ids) in
  let rng = Rng.of_seed (seed lxor 0xc01) in
  let byz_ids =
    Array.to_list (Rng.sample_without_replacement rng byz_count ids)
  in
  let program ctx =
    let net = committee_net ctx members in
    let before = Net.round ctx in
    let out =
      CC.run ~net ~msgs:Pk_msg.msgs ~coin:(shared_coin seed) ~horizon
        ~input:(inputs (Net.my_id ctx))
    in
    (out, Net.round ctx - before)
  in
  let byz = (byz_ids, BL.of_list (byz_strategy kind ~members)) in
  let res = Net.run ~ids ~byz ~seed ~program () in
  List.filter_map
    (function id, Engine.Decided r -> Some (id, r) | _ -> None)
    res.Engine.outcomes

let test_unanimity_preserved () =
  List.iter
    (fun value ->
      let outputs =
        execute ~n:10 ~byz_count:3 ~kind:Equivocate ~horizon:6
          ~inputs:(fun _ -> value)
          ~seed:1
      in
      Alcotest.(check int) "honest count" 7 (List.length outputs);
      List.iter
        (fun (_, (b, _)) ->
          Alcotest.(check bool) "validity under equivocation" value b)
        outputs)
    [ true; false ]

let test_exact_round_consumption () =
  let horizon = 5 in
  let outputs =
    execute ~n:7 ~byz_count:2 ~kind:Silent ~horizon
      ~inputs:(fun id -> id mod 2 = 0)
      ~seed:2
  in
  List.iter
    (fun (_, (_, rounds)) ->
      Alcotest.(check int) "2·horizon rounds consumed" 10 rounds)
    outputs

let qcheck_agreement =
  (* With horizon 20, disagreement probability is ~2^-20 per run; over
     100 qcheck cases a failure would be a genuine bug signal. *)
  QCheck.Test.make ~name:"coin consensus: agreement + validity whp" ~count:100
    (QCheck.make
       ~print:(fun (n, byz, kind, bias, seed) ->
         Printf.sprintf "n=%d byz=%d kind=%d bias=%.2f seed=%d" n byz kind
           bias seed)
       QCheck.Gen.(
         let* n = int_range 4 16 in
         let* byz = int_range 0 ((n - 1) / 3) in
         let* kind = int_range 0 1 in
         let* bias = float_range 0. 1. in
         let* seed = int_range 0 10_000 in
         return (n, byz, kind, bias, seed)))
    (fun (n, byz_count, kind_i, bias, seed) ->
      let kind = if kind_i = 0 then Silent else Equivocate in
      let input_rng = Rng.of_seed (seed + 1) in
      let tbl = Hashtbl.create 16 in
      let inputs id =
        match Hashtbl.find_opt tbl id with
        | Some b -> b
        | None ->
            let b = Rng.bernoulli input_rng bias in
            Hashtbl.replace tbl id b;
            b
      in
      let outputs =
        execute ~n ~byz_count ~kind ~horizon:20 ~inputs ~seed
      in
      match outputs with
      | [] -> false
      | (_, (first, _)) :: rest ->
          let honest_inputs = List.map (fun (id, _) -> inputs id) outputs in
          List.for_all (fun (_, (b, _)) -> Bool.equal b first) rest
          && List.mem first honest_inputs)

(* Over {!Fake_committee}, a coin-consensus instance allocates a fixed
   set-up and nothing per phase: 2 and 20 phases cost the same words,
   both when every member is heard (decided in the first phase) and
   when only t + 1 are (every phase ends on the coin), over the tests'
   own messages and over the renaming protocol's [Msg.t]. *)
let phase_allocation msgs () =
  let members = List.init 7 (fun i -> (i * 11) + 5) in
  List.iter
    (fun heard ->
      let net =
        Fake_committee.create ~me:(List.hd members) ~members ~heard
          ~reply:(fun _ m -> m)
      in
      let words horizon =
        let run () =
          ignore
            (CC.run ~net ~msgs
               ~coin:(fun phase -> phase land 1 = 0)
               ~horizon ~input:true)
        in
        run ();
        Test_rng.minor_words_of run
      in
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words per phase, %d of 7 heard" heard)
        0.
        (Fake_committee.words_per_phase ~words ~short:2 ~long:20))
    [ 7; 3 ]

let suite =
  ( "coin_consensus",
    [
      Alcotest.test_case "unanimity preserved" `Quick test_unanimity_preserved;
      Alcotest.test_case "exact round consumption" `Quick
        test_exact_round_consumption;
      Alcotest.test_case "phase allocation" `Quick
        (phase_allocation Pk_msg.msgs);
      Alcotest.test_case "phase allocation, renaming messages" `Quick
        (phase_allocation BR.pk_msgs);
      QCheck_alcotest.to_alcotest qcheck_agreement;
    ] )
