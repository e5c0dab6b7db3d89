(* Property tests for Lemma 3.4's Consensus instantiation: phase-king
   among a committee under silent, equivocating and randomly lying
   Byzantine members. *)

module Engine = Repro_sim.Engine
module PK = Repro_consensus.Phase_king
module CN = Repro_consensus.Committee_net
module Rng = Repro_util.Rng

module BR = Repro_renaming.Byzantine_renaming
module Net = Engine.Make (Pk_msg)
module BL = Byz_list.Make (Net)

let committee_net ctx members =
  CN.create ~me:(Net.my_id ctx) ~members
    ~multisend:(fun ~dsts m ~f -> Net.Inbox.iter (Net.multisend ctx ~dsts m) ~f)
    ~skip_round:(fun ~f -> Net.Inbox.iter (Net.skip_round ctx) ~f)

type byz_kind = Silent | Equivocate | Random_lies

let byz_strategy kind ~rng ~members : BL.strategy =
 fun ~byz_id:_ ~round:_ ~inbox:_ ->
  match kind with
  | Silent -> []
  | Equivocate ->
      List.mapi
        (fun i m ->
          let face = i mod 2 = 0 in
          [
            (m, Pk_msg.Vote face);
            (m, Pk_msg.Propose face);
            (m, Pk_msg.King face);
          ])
        members
      |> List.concat
  | Random_lies ->
      List.concat_map
        (fun m ->
          if Rng.bool rng then
            [
              ( m,
                match Rng.int rng 3 with
                | 0 -> Pk_msg.Vote (Rng.bool rng)
                | 1 -> Pk_msg.Propose (Rng.bool rng)
                | _ -> Pk_msg.King (Rng.bool rng) );
            ]
          else [])
        members

(* One consensus execution: returns the honest (id, output) list. *)
let execute ~n ~byz_count ~kind ~inputs ~seed =
  let ids = Array.init n (fun i -> (i * 13) + 2) in
  let members = List.sort Int.compare (Array.to_list ids) in
  let kings = List.rev members in
  let rng = Rng.of_seed (seed lxor 0xbad) in
  let byz_ids =
    Array.to_list (Rng.sample_without_replacement rng byz_count ids)
  in
  let program ctx =
    let net = committee_net ctx members in
    PK.run ~net ~msgs:Pk_msg.msgs ~kings ~input:(inputs (Net.my_id ctx))
  in
  let byz = (byz_ids, BL.of_list (byz_strategy kind ~rng ~members)) in
  let res = Net.run ~ids ~byz ~seed ~program () in
  List.filter_map
    (function id, Engine.Decided b -> Some (id, b) | _ -> None)
    res.Engine.outcomes

let assert_agreement_validity ~honest_inputs outputs =
  match outputs with
  | [] -> false
  | (_, first) :: rest ->
      let agreement = List.for_all (fun (_, b) -> Bool.equal b first) rest in
      let validity = List.mem first honest_inputs in
      agreement && validity

let scenario_gen =
  QCheck.make
    ~print:(fun (n, byz, kind, bias, seed) ->
      Printf.sprintf "n=%d byz=%d kind=%d bias=%.2f seed=%d" n byz kind bias
        seed)
    QCheck.Gen.(
      let* n = int_range 4 13 in
      let* byz = int_range 0 ((n - 1) / 3) in
      let* kind = int_range 0 2 in
      let* bias = float_range 0. 1. in
      let* seed = int_range 0 10_000 in
      return (n, byz, kind, bias, seed))

let qcheck_agreement_validity =
  QCheck.Test.make ~name:"phase king: agreement + validity under byz"
    ~count:120 scenario_gen (fun (n, byz_count, kind_i, bias, seed) ->
      let kind =
        match kind_i with 0 -> Silent | 1 -> Equivocate | _ -> Random_lies
      in
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
      let outputs = execute ~n ~byz_count ~kind ~inputs ~seed in
      let honest_inputs = List.map (fun (id, _) -> inputs id) outputs in
      assert_agreement_validity ~honest_inputs outputs)

let test_all_same_input_sticks () =
  List.iter
    (fun value ->
      let outputs =
        execute ~n:7 ~byz_count:2 ~kind:Equivocate
          ~inputs:(fun _ -> value)
          ~seed:3
      in
      Alcotest.(check int) "all honest decided" 5 (List.length outputs);
      List.iter
        (fun (_, b) ->
          Alcotest.(check bool) "unanimous input preserved" value b)
        outputs)
    [ true; false ]

(* 3·(t + 1) rounds, t = ⌊(n - 1)/3⌋: n=7 -> t=2 -> 3 phases of 3
   rounds; n=4 -> t=1 -> 2 phases. *)
let test_rounds_needed () =
  List.iter
    (fun (n, expected) ->
      let ids = Array.init n (fun i -> i + 1) in
      let members = Array.to_list ids in
      let program ctx =
        let net = committee_net ctx members in
        let before = Net.round ctx in
        let out =
          PK.run ~net ~msgs:Pk_msg.msgs ~kings:members
            ~input:(Net.my_id ctx mod 2 = 0)
        in
        (out, Net.round ctx - before)
      in
      let res = Net.run ~ids ~program () in
      List.iter
        (function
          | _, Engine.Decided (_, rounds) ->
              Alcotest.(check int)
                (Printf.sprintf "n=%d consumes exactly 3(t+1) rounds" n)
                expected rounds
          | _ -> Alcotest.fail "should decide")
        res.Engine.outcomes)
    [ (7, 9); (4, 6) ]

let test_no_kings_rejected () =
  let ids = [| 1; 2; 3; 4 |] in
  let program ctx =
    let net = committee_net ctx (Array.to_list ids) in
    PK.run ~net ~msgs:Pk_msg.msgs ~kings:[] ~input:true
  in
  Alcotest.check_raises "no kings" (Invalid_argument "Phase_king.run: no kings")
    (fun () -> ignore (Net.run ~ids ~program ()))

(* Over {!Fake_committee}, where a round costs nothing itself, a
   phase-king instance allocates a fixed set-up and nothing per phase:
   a 4-member committee runs 2 phases, a 31-member one 11, on both the
   strong path (every member heard, every phase decides by quorum) and
   the weak one (only t + 1 heard, so every phase folds for the king's
   value). Members echo this node's message, so every kept message is
   read through [msgs]' accessors: the tests' own messages, and the
   renaming protocol's [Msg.t] through [Byzantine_renaming.pk_msgs]. *)
let phase_allocation msgs () =
  let words ~strong phases =
    let size = (3 * (phases - 1)) + 1 in
    let members = List.init size (fun i -> (i * 5) + 3) in
    let net =
      Fake_committee.create ~me:(List.hd members) ~members
        ~heard:(if strong then size else phases)
        ~reply:(fun _ m -> m)
    in
    let run () =
      ignore
        (PK.run ~net ~msgs ~kings:members ~input:true)
    in
    (* The net allocates its kept-message buffer on its first message. *)
    run ();
    Test_rng.minor_words_of run
  in
  (* 0 when recorded, over either message type; before the instance's
     vocabulary was built once, every phase built [Vote]/[Propose]
     constructors, a [projects_to] closure per count and a king-fold
     closure, and a projection that allocates an option would cost
     2 words per kept message read. *)
  List.iter
    (fun strong ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words per phase, %s path"
           (if strong then "strong" else "weak"))
        0.
        (Fake_committee.words_per_phase ~words:(words ~strong) ~short:2
           ~long:11))
    [ true; false ]

let suite =
  ( "phase_king",
    [
      Alcotest.test_case "unanimous input preserved" `Quick
        test_all_same_input_sticks;
      Alcotest.test_case "round accounting" `Quick test_rounds_needed;
      Alcotest.test_case "kings required" `Quick test_no_kings_rejected;
      Alcotest.test_case "phase allocation" `Quick
        (phase_allocation Pk_msg.msgs);
      Alcotest.test_case "phase allocation, renaming messages" `Quick
        (phase_allocation BR.pk_msgs);
      QCheck_alcotest.to_alcotest qcheck_agreement_validity;
    ] )
