(* Reference implementation of [Byz_strategies.split_world]: the
   strategy as it was first written, rebuilding every pair, tuple and
   intermediate list on every call. With the private helpers it used
   (the per-node spy table, ELECT absorption, the initial view and the
   election round), copied unchanged, it shares no code with the
   library's strategy beyond the message constructors.

   The library's strategy builds the messages that do not depend on a
   round's draws once per committee view and fills a send buffer. Read
   back as a list ([Byz_list.to_list]), that buffer must be structurally
   equal to this strategy's list on every call, from the same rng draws
   in the same order. The draw order here is OCaml's evaluation
   order: right to left for function arguments and list elements, so
   [Fingerprint.of_raw]'s second value is drawn before its first, and a
   bait's rank before its destination. *)

module B = Repro_renaming.Byzantine_renaming
module Msg = B.Msg
module Net = B.Net
module Rng = Repro_util.Rng
module Fingerprint = Repro_crypto.Fingerprint
module Committee_pool = Repro_crypto.Committee_pool

type spy = { mutable view : int list; mutable announced : bool }

let make_spies () : (int, spy) Hashtbl.t = Hashtbl.create 8

let spy_of spies byz_id =
  match Hashtbl.find_opt spies byz_id with
  | Some s -> s
  | None ->
      let s = { view = []; announced = false } in
      Hashtbl.replace spies byz_id s;
      s

let absorb_elects (params : B.params) ~n spy inbox =
  let accept =
    match params.B.committee with
    | B.Shared_pool ->
        let pool = B.pool_of_params params ~n in
        Committee_pool.mem pool
    | B.Local_coin _ -> fun _ -> true
    | B.Everyone -> fun _ -> false
  in
  List.iter
    (fun (e : Net.envelope) ->
      match e.msg with
      | Msg.Elect when accept e.src ->
          if not (List.mem e.src spy.view) then spy.view <- e.src :: spy.view
      | _ -> ())
    inbox;
  spy.view <- List.sort_uniq Int.compare spy.view

let initial_view (params : B.params) ~ids =
  match params.B.committee with
  | B.Everyone -> List.sort Int.compare (Array.to_list ids)
  | B.Shared_pool | B.Local_coin _ -> []

let broadcast_elect_if_candidate pool ~byz_id ~ids =
  if Committee_pool.mem pool byz_id then
    Array.to_list (Array.map (fun dst -> (dst, Msg.Elect)) ids)
  else []

let election_round_out (params : B.params) ~byz_id ~ids =
  let n = Array.length ids in
  match params.B.committee with
  | B.Everyone -> []
  | B.Local_coin _ ->
      Array.to_list (Array.map (fun dst -> (dst, Msg.Elect)) ids)
  | B.Shared_pool ->
      broadcast_elect_if_candidate (B.pool_of_params params ~n) ~byz_id ~ids

let split_world (params : B.params) ~rng ~ids : Byz_list.strategy =
  let n = Array.length ids in
  let spies = make_spies () in
  fun ~byz_id ~round ~inbox ->
    let spy = spy_of spies byz_id in
    if spy.view = [] then spy.view <- initial_view params ~ids;
    if round = 0 then election_round_out params ~byz_id ~ids
    else begin
      if round = 1 then absorb_elects params ~n spy inbox;
      let halves b =
        (* Even-indexed view members get the [b] face, odd-indexed the
           opposite: maximal disagreement injection. *)
        List.mapi (fun i m -> (i, m)) spy.view
        |> List.map (fun (i, m) -> (m, if i mod 2 = 0 then b else not b))
      in
      let announce =
        (* Round 1: reveal the identity to only half the committee, so
           correct identity lists diverge at this node's position. *)
        if round = 1 && not spy.announced then begin
          spy.announced <- true;
          List.filteri (fun i _ -> i mod 2 = 0) spy.view
          |> List.map (fun m -> (m, Msg.Announce))
        end
        else []
      in
      let equivocations =
        List.concat_map
          (fun (m, face) ->
            let fake =
              Fingerprint.of_raw (Rng.int rng max_int) (Rng.int rng max_int)
            in
            [
              (m, Msg.Pk_vote face);
              (m, Msg.Pk_propose face);
              (m, Msg.Pk_king face);
              (m, Msg.Vld_input (fake, Rng.int rng n));
              (m, if face then Msg.Vld_lock (fake, 0) else Msg.Vld_lock_none);
              (m, Msg.Diff face);
            ])
          (halves (Rng.bool rng))
      in
      let bait =
        (* Push fake NEW identities at a few random nodes, trying to bait
           a premature or wrong decision. *)
        List.init 3 (fun _ ->
            (ids.(Rng.int rng n), Msg.New (Some (1 + Rng.int rng n))))
      in
      announce @ equivocations @ bait
    end
