(* Reference implementations of the other [Byz_strategies] attacks, as
   first written: the random-noise playbook, [scripted]'s Misaddress and
   Replay behaviours and its dispatch, and [committee_hijack]. Each call
   returns a fresh [(dst, msg)] list. They reuse [Split_world_oracle]'s
   spy table, ELECT absorption, initial view and election round, and
   share no code with the library beyond the message constructors.

   The library's strategies fill a send buffer with loops instead. Read
   back as a list ([Byz_list.to_list]), a buffer must equal these lists
   on every call, from the same rng draws in the same order. The draw
   order here is OCaml's evaluation order: a pair's components are
   evaluated right to left, so a misaddressed send draws its message
   before its destination. A noise send draws its destination first,
   because it is bound before the pair is built. *)

module B = Repro_renaming.Byzantine_renaming
module BS = Repro_renaming.Byz_strategies
module SW = Split_world_oracle
module Msg = B.Msg
module Net = B.Net
module Rng = Repro_util.Rng
module Fingerprint = Repro_crypto.Fingerprint

let random_msg rng namespace =
  match Rng.int rng 8 with
  | 0 -> Msg.Pk_vote (Rng.bool rng)
  | 1 -> Msg.Pk_propose (Rng.bool rng)
  | 2 -> Msg.Pk_king (Rng.bool rng)
  | 3 ->
      Msg.Vld_input
        ( Fingerprint.of_raw (Rng.int rng max_int) (Rng.int rng max_int),
          Rng.int rng namespace )
  | 4 ->
      if Rng.bool rng then Msg.Vld_lock_none
      else
        Msg.Vld_lock
          ( Fingerprint.of_raw (Rng.int rng max_int) (Rng.int rng max_int),
            Rng.int rng namespace )
  | 5 -> Msg.Diff (Rng.bool rng)
  | 6 -> Msg.New (Some (1 + Rng.int rng namespace))
  | _ -> Msg.New None

let noise (params : B.params) ~rng ~ids : Byz_list.strategy =
  let n = Array.length ids in
  let spies = SW.make_spies () in
  fun ~byz_id ~round ~inbox ->
    let spy = SW.spy_of spies byz_id in
    if spy.SW.view = [] then spy.SW.view <- SW.initial_view params ~ids;
    if round = 0 then SW.election_round_out params ~byz_id ~ids
    else begin
      if round = 1 then SW.absorb_elects params ~n spy inbox;
      let burst = 1 + Rng.int rng (max 1 (List.length spy.SW.view)) in
      List.init burst (fun _ ->
          let dst =
            match spy.SW.view with
            | [] -> ids.(Rng.int rng n)
            | view ->
                if Rng.bool rng then List.nth view (Rng.int rng (List.length view))
                else ids.(Rng.int rng n)
          in
          (dst, random_msg rng params.namespace))
    end

let scripted (params : B.params) ~rng ~ids ~behaviors : Byz_list.strategy =
  let noise = noise params ~rng ~ids in
  let equivocate = SW.split_world params ~rng ~ids in
  let n = Array.length ids in
  let misaddress ~byz_id ~round ~inbox:_ =
    let base = SW.election_round_out params ~byz_id ~ids in
    let stray =
      List.init 2 (fun i ->
          ( params.B.namespace + 1 + Rng.int rng (n + i + 1),
            random_msg rng params.B.namespace ))
    in
    if round = 0 then base @ stray else stray
  in
  let replay ~byz_id ~round ~inbox =
    if round = 0 then SW.election_round_out params ~byz_id ~ids
    else
      List.map
        (fun (e : Net.envelope) -> (ids.(Rng.int rng n), e.msg))
        inbox
  in
  fun ~byz_id ~round ~inbox ->
    match List.assoc_opt byz_id behaviors with
    | None | Some BS.Silence -> []
    | Some BS.Noise -> noise ~byz_id ~round ~inbox
    | Some BS.Equivocate -> equivocate ~byz_id ~round ~inbox
    | Some BS.Misaddress -> misaddress ~byz_id ~round ~inbox
    | Some BS.Replay -> replay ~byz_id ~round ~inbox

let committee_hijack (params : B.params) ~ids : Byz_list.strategy =
 fun ~byz_id ~round ~inbox:_ ->
  if round = 0 then SW.election_round_out params ~byz_id ~ids
  else if round >= 2 then
    Array.to_list (Array.map (fun dst -> (dst, Msg.New (Some 1))) ids)
  else []
