module B = Byzantine_renaming
module Msg = Byzantine_renaming.Msg
module Net = Byzantine_renaming.Net
module Rng = Repro_util.Rng
module Fingerprint = Repro_crypto.Fingerprint
module Committee_pool = Repro_crypto.Committee_pool
module Phase_king = Repro_consensus.Phase_king
module Validator = Repro_consensus.Validator

let silent : Net.byz_strategy = fun ~byz_id:_ ~round:_ ~inbox:_ -> []

(* What [split_world] sends one view member whatever the round's draws
   are, for one face: built once per committee view, not per round. *)
type face = {
  vote : int * Msg.t;
  propose : int * Msg.t;
  king : int * Msg.t;
  diff : int * Msg.t;
}

type target = {
  member : int;
  even : bool;
      (* even position in the view: shown the round's face; odd
         positions are shown its opposite *)
  yes : face;
  no : face;
  lock_none : int * Msg.t;
}

let face m b =
  {
    vote = (m, Msg.Pk (Phase_king.Vote b));
    propose = (m, Msg.Pk (Phase_king.Propose b));
    king = (m, Msg.Pk (Phase_king.King b));
    diff = (m, Msg.Diff b);
  }

let targets_of view =
  List.mapi
    (fun i m ->
      {
        member = m;
        even = i mod 2 = 0;
        yes = face m true;
        no = face m false;
        lock_none = (m, Msg.Vld (Validator.Lock None));
      })
    view

(* Per-byz-node view tracking: remember the committee members seen in the
   ELECT round (round 0) so later rounds can target them. [targets] is
   [split_world]'s per-view cache, built for the view [built_for]. *)
type spy = {
  mutable view : int list;
  mutable announced : bool;
  mutable built_for : int list;
  mutable targets : target list;
}

let make_spies () : (int, spy) Hashtbl.t = Hashtbl.create 8

let spy_of spies byz_id =
  match Hashtbl.find spies byz_id with
  | s -> s
  | exception Not_found ->
      let s = { view = []; announced = false; built_for = []; targets = [] } in
      Hashtbl.replace spies byz_id s;
      s

(* Who may join the election, as the node's strategy sees it: under
   [Shared_pool] the (public) pool's candidates; under [Local_coin]
   anyone, since candidacy is unverifiable; under [Everyone] no one,
   since membership is common knowledge and nobody announces it. A
   strategy builds it once, from [ids], so the pool is drawn once per
   run. *)
let candidate (params : B.params) ~ids =
  match params.B.committee with
  | B.Shared_pool ->
      Committee_pool.mem (B.pool_of_params params ~n:(Array.length ids))
  | B.Local_coin _ -> fun _ -> true
  | B.Everyone -> fun _ -> false

(* A Byzantine node learns the committee view from the ELECTs of
   candidates. *)
let absorb_elects candidate spy inbox =
  List.iter
    (fun (e : Net.envelope) ->
      match e.msg with
      | Msg.Elect when candidate e.src ->
          if not (List.mem e.src spy.view) then spy.view <- e.src :: spy.view
      | _ -> ())
    inbox;
  spy.view <- List.sort_uniq Int.compare spy.view

let initial_view (params : B.params) ~ids =
  match params.B.committee with
  | B.Everyone -> List.sort Int.compare (Array.to_list ids)
  | B.Shared_pool | B.Local_coin _ -> []

(* A candidate joins the election: ELECT to everyone. *)
let election_round_out candidate ~byz_id ~ids =
  if candidate byz_id then
    Array.to_list (Array.map (fun dst -> (dst, Msg.Elect)) ids)
  else []

let random_msg rng namespace =
  match Rng.int rng 8 with
  | 0 -> Msg.Pk (Phase_king.Vote (Rng.bool rng))
  | 1 -> Msg.Pk (Phase_king.Propose (Rng.bool rng))
  | 2 -> Msg.Pk (Phase_king.King (Rng.bool rng))
  | 3 ->
      Msg.Vld
        (Validator.Input
           ( Fingerprint.of_raw (Rng.int rng max_int) (Rng.int rng max_int),
             Rng.int rng namespace ))
  | 4 ->
      Msg.Vld
        (Validator.Lock
           (if Rng.bool rng then None
            else
              Some
                ( Fingerprint.of_raw (Rng.int rng max_int) (Rng.int rng max_int),
                  Rng.int rng namespace )))
  | 5 -> Msg.Diff (Rng.bool rng)
  | 6 -> Msg.New (Some (1 + Rng.int rng namespace))
  | _ -> Msg.New None

let noise_of candidate (params : B.params) ~rng ~ids : Net.byz_strategy =
  let n = Array.length ids in
  let spies = make_spies () in
  fun ~byz_id ~round ~inbox ->
    let spy = spy_of spies byz_id in
    if spy.view = [] then spy.view <- initial_view params ~ids;
    if round = 0 then election_round_out candidate ~byz_id ~ids
    else begin
      if round = 1 then absorb_elects candidate spy inbox;
      let burst = 1 + Rng.int rng (max 1 (List.length spy.view)) in
      List.init burst (fun _ ->
          let dst =
            match spy.view with
            | [] -> ids.(Rng.int rng n)
            | view ->
                if Rng.bool rng then List.nth view (Rng.int rng (List.length view))
                else ids.(Rng.int rng n)
          in
          (dst, random_msg rng params.namespace))
    end

let random_noise params ~rng ~ids =
  noise_of (candidate params ~ids) params ~rng ~ids

let split_world_of candidate (params : B.params) ~rng ~ids :
    Net.byz_strategy =
  let n = Array.length ids in
  let spies = make_spies () in
  (* Fake NEW identities pushed at a few random nodes, trying to bait a
     premature or wrong decision. Each bait draws its rank, then its
     destination. *)
  let rec baits k =
    if k = 0 then []
    else
      let rank = 1 + Rng.int rng n in
      let dst = ids.(Rng.int rng n) in
      (dst, Msg.New (Some rank)) :: baits (k - 1)
  in
  (* Two-faced equivocation in every vote, proposal, king declaration,
     validator and diff round, then the baits. A member's draws all
     precede the next member's, and the fingerprint's second value is
     drawn before its first. *)
  let rec equivocate b = function
    | [] -> baits 3
    | t :: rest ->
        let v2 = Rng.int rng max_int in
        let v1 = Rng.int rng max_int in
        let fake = Fingerprint.of_raw v1 v2 in
        let count = Rng.int rng n in
        let tl = equivocate b rest in
        let shown = if t.even then b else not b in
        let f = if shown then t.yes else t.no in
        let lock =
          if shown then (t.member, Msg.Vld (Validator.Lock (Some (fake, 0))))
          else t.lock_none
        in
        f.vote :: f.propose :: f.king
        :: (t.member, Msg.Vld (Validator.Input (fake, count)))
        :: lock :: f.diff :: tl
  in
  fun ~byz_id ~round ~inbox ->
    let spy = spy_of spies byz_id in
    if spy.view = [] then spy.view <- initial_view params ~ids;
    if round = 0 then election_round_out candidate ~byz_id ~ids
    else begin
      if round = 1 then absorb_elects candidate spy inbox;
      if spy.built_for != spy.view then begin
        spy.targets <- targets_of spy.view;
        spy.built_for <- spy.view
      end;
      let ts = spy.targets in
      (* Round 1: reveal the identity to only half the committee, so
         correct identity lists diverge at this node's position. *)
      let announce = round = 1 && not spy.announced in
      if announce then spy.announced <- true;
      let rest = equivocate (Rng.bool rng) ts in
      if announce then
        List.fold_right
          (fun t acc -> if t.even then (t.member, Msg.Announce) :: acc else acc)
          ts rest
      else rest
    end

let split_world params ~rng ~ids =
  split_world_of (candidate params ~ids) params ~rng ~ids

type behavior = Silence | Equivocate | Misaddress | Replay | Noise

let behavior_name = function
  | Silence -> "silence"
  | Equivocate -> "equivocate"
  | Misaddress -> "misaddress"
  | Replay -> "replay"
  | Noise -> "noise"

let behavior_of_name = function
  | "silence" -> Some Silence
  | "equivocate" -> Some Equivocate
  | "misaddress" -> Some Misaddress
  | "replay" -> Some Replay
  | "noise" -> Some Noise
  | _ -> None

let all_behaviors = [ Silence; Equivocate; Misaddress; Replay; Noise ]

let scripted (params : B.params) ~rng ~ids ~behaviors : Net.byz_strategy =
  (* One underlying instance per behavior family, shared across the
     scripted nodes of that family — their internal spy tables are keyed
     by byz id, and sharing the rng keeps the whole script a function of
     the ids in the schedule (invocation order is fixed by the engine). *)
  let candidate = candidate params ~ids in
  let noise = noise_of candidate params ~rng ~ids in
  let equivocate = split_world_of candidate params ~rng ~ids in
  let n = Array.length ids in
  let misaddress ~byz_id ~round ~inbox:_ =
    (* Every send targets an identity outside the participant set (ids
       live in [1, namespace]); the engine must drop and count each one
       without disturbing the honest run. Joining the election keeps the
       node visible to strategies that spy on the ELECT round. *)
    let base = election_round_out candidate ~byz_id ~ids in
    let stray =
      List.init 2 (fun i ->
          ( params.B.namespace + 1 + Rng.int rng (n + i + 1),
            random_msg rng params.B.namespace ))
    in
    if round = 0 then base @ stray else stray
  in
  let replay ~byz_id ~round ~inbox =
    (* Re-emit last round's received payloads verbatim at randomly chosen
       participants: stale Responses, NEWs and consensus votes from
       earlier protocol stages arriving out of phase. *)
    if round = 0 then election_round_out candidate ~byz_id ~ids
    else
      List.map
        (fun (e : Net.envelope) -> (ids.(Rng.int rng n), e.msg))
        inbox
  in
  fun ~byz_id ~round ~inbox ->
    match List.assoc_opt byz_id behaviors with
    | None | Some Silence -> []
    | Some Noise -> noise ~byz_id ~round ~inbox
    | Some Equivocate -> equivocate ~byz_id ~round ~inbox
    | Some Misaddress -> misaddress ~byz_id ~round ~inbox
    | Some Replay -> replay ~byz_id ~round ~inbox

let committee_hijack (params : B.params) ~ids : Net.byz_strategy =
  let candidate = candidate params ~ids in
  fun ~byz_id ~round ~inbox:_ ->
    if round = 0 then election_round_out candidate ~byz_id ~ids
    else if round >= 2 then
      (* Every corrupted committee member pushes the same bogus identity
         at everyone, every round, until the honest nodes give up. *)
      Array.to_list (Array.map (fun dst -> (dst, Msg.New (Some 1))) ids)
    else []
