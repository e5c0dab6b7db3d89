(* Property tests for Lemma 3.3's weak validator: validity and weak
   agreement under silent and equivocating Byzantine members. *)

module Engine = Repro_sim.Engine
module V = Repro_consensus.Validator
module CN = Repro_consensus.Committee_net
module Rng = Repro_util.Rng

module M = struct
  type t = int V.msg

  let bits _ = 16
  let pp ppf = function
    | V.Input v -> Format.fprintf ppf "input(%d)" v
    | V.Lock None -> Format.fprintf ppf "lock(-)"
    | V.Lock (Some v) -> Format.fprintf ppf "lock(%d)" v
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
          if round mod 2 = 0 then (m, V.Input v)
          else (m, V.Lock (if Rng.bool rng then Some v else None)))
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
    let r =
      V.run ~net ~embed:Fun.id ~project:Option.some ~equal:Int.equal
        ~input:(inputs (Net.my_id ctx))
    in
    (r.V.same, r.V.value)
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
      V.run ~net ~embed:Fun.id ~project:Option.some ~equal:Int.equal
        ~input:(Net.my_id ctx)
    in
    Net.round ctx - before
  in
  let res = Net.run ~ids ~program () in
  List.iter
    (function
      | _, Engine.Decided r -> Alcotest.(check int) "2 network rounds" 2 r
      | _ -> Alcotest.fail "should decide")
    res.Engine.outcomes

let suite =
  ( "validator",
    [
      Alcotest.test_case "unanimous inputs" `Quick test_unanimous;
      Alcotest.test_case "round accounting" `Quick test_rounds;
      QCheck_alcotest.to_alcotest qcheck_lemma;
    ] )
