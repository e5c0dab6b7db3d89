(* Property tests for Lemma 3.3's weak validator: validity and weak
   agreement under silent and equivocating Byzantine members. *)

module Engine = Repro_sim.Engine
module V = Repro_consensus.Validator
module CN = Repro_consensus.Committee_net
module Rng = Repro_util.Rng

module BR = Repro_renaming.Byzantine_renaming
module FP = Repro_crypto.Fingerprint

(* The tests' own validator messages over int values. *)
module M = struct
  type t = Input of int | Lock of int | Lock_none

  let bits _ = 16

  let pp ppf = function
    | Input v -> Format.fprintf ppf "input(%d)" v
    | Lock_none -> Format.fprintf ppf "lock(-)"
    | Lock v -> Format.fprintf ppf "lock(%d)" v

  let value = function Input v | Lock v -> v | Lock_none -> -1

  let msgs =
    {
      V.kind =
        (function Input _ -> V.Input | Lock _ -> Lock | Lock_none -> Other);
      same_value = (fun a b -> Int.equal (value a) (value b));
      lock = (fun m -> Lock (value m));
      lock_none = Lock_none;
    }
end

module Net = Engine.Make (M)
module BL = Byz_list.Make (Net)

let committee_net ctx members =
  CN.create ~me:(Net.my_id ctx) ~members
    ~multisend:(fun ~dsts m ~f -> Net.Inbox.iter (Net.multisend ctx ~dsts m) ~f)
    ~skip_round:(fun ~f -> Net.Inbox.iter (Net.skip_round ctx) ~f)

type byz_kind = Silent | Equivocate

let byz_strategy kind ~rng ~members : BL.strategy =
 fun ~byz_id:_ ~round ~inbox:_ ->
  match kind with
  | Silent -> []
  | Equivocate ->
      List.mapi
        (fun i m ->
          let v = if i mod 2 = 0 then 111_111 else 222_222 in
          if round mod 2 = 0 then (m, M.Input v)
          else (m, if Rng.bool rng then M.Lock v else M.Lock_none))
        members

let execute ~n ~byz_count ~kind ~inputs ~seed =
  let ids = Array.init n (fun i -> (i * 7) + 3) in
  let members = List.sort Int.compare (Array.to_list ids) in
  let rng = Rng.of_seed (seed lxor 0xfeed) in
  let byz_ids =
    Array.to_list (Rng.sample_without_replacement rng byz_count ids)
  in
  let program ctx =
    let net = committee_net ctx members in
    let r = V.run ~net ~msgs:M.msgs ~input:(M.Input (inputs (Net.my_id ctx))) in
    (r.V.same, M.value r.V.value)
  in
  let byz = (byz_ids, BL.of_list (byz_strategy kind ~rng ~members)) in
  let res = Net.run ~ids ~byz ~seed ~program () in
  List.filter_map
    (function id, Engine.Decided r -> Some (id, r) | _ -> None)
    res.Engine.outcomes

let check_lemma_properties ~inputs outputs =
  let honest_inputs = List.map (fun (id, _) -> inputs id) outputs in
  (* validity (1): every output value is some correct member's input *)
  let validity1 =
    List.for_all (fun (_, (_, v)) -> List.mem v honest_inputs) outputs
  in
  (* validity (2): unanimous correct input forces same=1 with that value *)
  let unanimous =
    match honest_inputs with
    | [] -> None
    | x :: rest -> if List.for_all (Int.equal x) rest then Some x else None
  in
  let validity2 =
    match unanimous with
    | None -> true
    | Some x -> List.for_all (fun (_, (same, v)) -> same && v = x) outputs
  in
  (* weak agreement: if any correct member reports same=1, all correct
     members hold that value *)
  let weak_agreement =
    match List.find_opt (fun (_, (same, _)) -> same) outputs with
    | None -> true
    | Some (_, (_, anchor)) ->
        List.for_all (fun (_, (_, v)) -> v = anchor) outputs
  in
  validity1 && validity2 && weak_agreement

let scenario_gen =
  QCheck.make
    ~print:(fun (n, byz, kind, spread, seed) ->
      Printf.sprintf "n=%d byz=%d kind=%d spread=%d seed=%d" n byz kind spread
        seed)
    QCheck.Gen.(
      let* n = int_range 4 16 in
      let* byz = int_range 0 ((n - 1) / 3) in
      let* kind = int_range 0 1 in
      let* spread = int_range 1 3 in
      let* seed = int_range 0 10_000 in
      return (n, byz, kind, spread, seed))

let qcheck_lemma =
  QCheck.Test.make ~name:"validator: validity + weak agreement" ~count:150
    scenario_gen (fun (n, byz_count, kind_i, spread, seed) ->
      let kind = if kind_i = 0 then Silent else Equivocate in
      let inputs id = id mod spread in
      let outputs = execute ~n ~byz_count ~kind ~inputs ~seed in
      check_lemma_properties ~inputs outputs)

let test_unanimous () =
  let outputs =
    execute ~n:10 ~byz_count:3 ~kind:Equivocate ~inputs:(fun _ -> 42) ~seed:1
  in
  Alcotest.(check int) "honest count" 7 (List.length outputs);
  List.iter
    (fun (_, (same, v)) ->
      Alcotest.(check bool) "same=1" true same;
      Alcotest.(check int) "value preserved" 42 v)
    outputs

let test_rounds () =
  let ids = [| 1; 2; 3; 4; 5 |] in
  let program ctx =
    let net = committee_net ctx (Array.to_list ids) in
    let before = Net.round ctx in
    let _ =
      V.run ~net ~msgs:M.msgs ~input:(M.Input (Net.my_id ctx))
    in
    Net.round ctx - before
  in
  let res = Net.run ~ids ~program () in
  List.iter
    (function
      | _, Engine.Decided r -> Alcotest.(check int) "2 network rounds" 2 r
      | _ -> Alcotest.fail "should decide")
    res.Engine.outcomes

(* [reply] for {!Fake_committee}: member [i] answers this node's input
   with [inputs.(i)] and anything else with its lock [locks.(i)]. *)
let scripted msgs ~inputs ~locks i m =
  match msgs.V.kind m with V.Input -> inputs.(i) | Lock | Other -> locks.(i)

(* The validator tallies the kept messages themselves in two arrays
   allocated once per run, and reads them through [msgs]' accessors: its
   words do not grow with the number of kept messages, here 1, 4 and 16
   of a 16-member committee's inputs spread over three values. Run over
   the tests' own messages and over the renaming protocol's [Msg.t]
   through [Byzantine_renaming.vld_msgs]. *)
let tally_allocation msgs ~input ~value () =
  let size = 16 in
  let members = List.init size (fun i -> i + 1) in
  let inputs = Array.init size (fun i -> value (i mod 3)) in
  let locks = Array.make size msgs.V.lock_none in
  let words heard =
    let net =
      Fake_committee.create ~me:1 ~members ~heard
        ~reply:(scripted msgs ~inputs ~locks)
    in
    let run () = ignore (V.run ~net ~msgs ~input) in
    run ();
    Test_rng.minor_words_of run
  in
  let one = words 1 in
  (* Equal when recorded, over either message type; the group list
     rebuilt on every kept message added about 6 words per message, and
     a projection that allocates an option 2. *)
  List.iter
    (fun heard ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "words with %d kept messages = with 1" heard)
        one (words heard))
    [ 4; 16 ]

let fp_input v = BR.Msg.Vld_input (FP.of_raw v 7, 5)

(* The largest group wins and, on equal counts, the one seen first:
   13 members (t = 4, quorum 9), five locks each on 7 and 5, so the
   value is graded [same = false] and the result is the first lock of
   that value in inbox order, the message itself. *)
let test_tie_goes_to_first_seen () =
  let size = 13 in
  let members = List.init size (fun i -> i + 1) in
  let inputs = Array.make size (M.Input 0) in
  let check name order expect =
    let locks =
      Array.init size (fun i ->
          if i < 10 then M.Lock (List.nth order i) else M.Lock_none)
    in
    let net =
      Fake_committee.create ~me:1 ~members ~heard:size
        ~reply:(scripted M.msgs ~inputs ~locks)
    in
    let r = V.run ~net ~msgs:M.msgs ~input:(M.Input 0) in
    Alcotest.(check bool) (name ^ ": same") false r.V.same;
    Alcotest.(check int) (name ^ ": value") expect (M.value r.V.value);
    let rec first_of i =
      if List.nth order i = expect then i else first_of (i + 1)
    in
    Alcotest.(check bool) (name ^ ": the first such lock") true
      (r.V.value == locks.(first_of 0))
  in
  check "7 first" [ 7; 5; 5; 7; 7; 5; 5; 7; 7; 5 ] 7;
  check "5 first" [ 5; 7; 7; 5; 5; 7; 7; 5; 5; 7 ] 5;
  check "larger group wins" [ 5; 7; 7; 7; 7; 5; 5; 7; 5; 7 ] 7

let suite =
  ( "validator",
    [
      Alcotest.test_case "unanimous inputs" `Quick test_unanimous;
      Alcotest.test_case "round accounting" `Quick test_rounds;
      Alcotest.test_case "tally allocation" `Quick
        (tally_allocation M.msgs ~input:(M.Input 0) ~value:(fun v -> M.Input v));
      Alcotest.test_case "tally allocation, renaming messages" `Quick
        (tally_allocation BR.vld_msgs ~input:(fp_input 0) ~value:fp_input);
      Alcotest.test_case "tie goes to the first seen" `Quick
        test_tie_goes_to_first_seen;
      QCheck_alcotest.to_alcotest qcheck_lemma;
    ] )
