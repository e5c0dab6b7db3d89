module B = Byzantine_renaming
module Msg = Byzantine_renaming.Msg
module Net = Byzantine_renaming.Net
module Rng = Repro_util.Rng
module Fingerprint = Repro_crypto.Fingerprint
module Committee_pool = Repro_crypto.Committee_pool

module Sends = Net.Sends

(* Never written after [create]: one empty buffer serves every call of
   every run, on any domain. *)
let silent : Net.byz_strategy =
  let none = Sends.create () in
  fun ~byz_id:_ ~round:_ ~inbox:_ -> none

(* What [split_world] sends a view member whatever the round's draws
   are, for one face: built once, shared by every member and round. *)
type face = { vote : Msg.t; propose : Msg.t; king : Msg.t; diff : Msg.t }

let face b =
  {
    vote = Msg.Pk_vote b;
    propose = Msg.Pk_propose b;
    king = Msg.Pk_king b;
    diff = Msg.Diff b;
  }

let yes = face true
let no = face false

(* Per-byz-node view tracking: remember the committee members seen in the
   ELECT round (round 0) so later rounds can target them. [view] is
   sorted ascending. *)
type spy = { mutable view : int array; mutable announced : bool }

module Int_tbl = Hashtbl.Make (Int)

(* [List.assoc_opt] on int keys, compared as ints. *)
let rec assoc_int k = function
  | [] -> None
  | (k', v) :: l -> if Int.equal k k' then Some v else assoc_int k l

let make_spies () : spy Int_tbl.t = Int_tbl.create 8

let spy_of spies byz_id =
  match Int_tbl.find spies byz_id with
  | s -> s
  | exception Not_found ->
      let s = { view = [||]; announced = false } in
      Int_tbl.replace spies byz_id s;
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
  let joined =
    List.fold_left
      (fun acc (e : Net.envelope) ->
        match e.msg with
        | Msg.Elect when candidate e.src -> e.src :: acc
        | _ -> acc)
      (Array.to_list spy.view) inbox
  in
  spy.view <- Array.of_list (List.sort_uniq Int.compare joined)

(* The view a node starts from, set while its view is still empty. *)
let init_view (params : B.params) ~ids spy =
  match params.B.committee with
  | B.Everyone ->
      if Array.length spy.view = 0 then begin
        let v = Array.copy ids in
        Array.sort Int.compare v;
        spy.view <- v
      end
  | B.Shared_pool | B.Local_coin _ -> ()

(* A candidate joins the election: ELECT to everyone. *)
let election_round_out candidate buf ~byz_id ~ids =
  if candidate byz_id then
    for i = 0 to Array.length ids - 1 do
      Sends.add buf ids.(i) Msg.Elect
    done

(* Constructor arguments evaluate right to left: a validator message
   draws its count, then the fingerprint's second value, then its first. *)
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

let noise_of candidate (params : B.params) ~rng ~ids : Net.byz_strategy =
  let n = Array.length ids in
  let spies = make_spies () in
  let buf = Sends.create () in
  fun ~byz_id ~round ~inbox ->
    Sends.clear buf;
    let spy = spy_of spies byz_id in
    init_view params ~ids spy;
    if round = 0 then election_round_out candidate buf ~byz_id ~ids
    else begin
      if round = 1 then absorb_elects candidate spy inbox;
      let view = spy.view in
      let k = Array.length view in
      let burst = 1 + Rng.int rng (max 1 k) in
      for _ = 1 to burst do
        let dst =
          if k = 0 then ids.(Rng.int rng n)
          else if Rng.bool rng then view.(Rng.int rng k)
          else ids.(Rng.int rng n)
        in
        Sends.add buf dst (random_msg rng params.namespace)
      done
    end;
    buf

let random_noise params ~rng ~ids =
  noise_of (candidate params ~ids) params ~rng ~ids

let split_world_of candidate (params : B.params) ~rng ~ids :
    Net.byz_strategy =
  let n = Array.length ids in
  let spies = make_spies () in
  let buf = Sends.create () in
  fun ~byz_id ~round ~inbox ->
    Sends.clear buf;
    let spy = spy_of spies byz_id in
    init_view params ~ids spy;
    if round = 0 then election_round_out candidate buf ~byz_id ~ids
    else begin
      if round = 1 then absorb_elects candidate spy inbox;
      let view = spy.view in
      (* Round 1: reveal the identity to only half the committee, so
         correct identity lists diverge at this node's position. *)
      if round = 1 && not spy.announced then begin
        spy.announced <- true;
        for i = 0 to Array.length view - 1 do
          if i mod 2 = 0 then Sends.add buf view.(i) Msg.Announce
        done
      end;
      (* Two-faced equivocation in every vote, proposal, king
         declaration, validator and diff round: members at even
         positions of the view are shown the round's face, odd ones its
         opposite. A member's draws all precede the next member's, and
         the fingerprint's second value is drawn before its first. *)
      let b = Rng.bool rng in
      for i = 0 to Array.length view - 1 do
        let m = view.(i) in
        let v2 = Rng.int rng max_int in
        let v1 = Rng.int rng max_int in
        let fake = Fingerprint.of_raw v1 v2 in
        let count = Rng.int rng n in
        let shown = if i mod 2 = 0 then b else not b in
        let f = if shown then yes else no in
        Sends.add buf m f.vote;
        Sends.add buf m f.propose;
        Sends.add buf m f.king;
        Sends.add buf m (Msg.Vld_input (fake, count));
        Sends.add buf m
          (if shown then Msg.Vld_lock (fake, 0) else Msg.Vld_lock_none);
        Sends.add buf m f.diff
      done;
      (* Fake NEW identities pushed at a few random nodes, trying to
         bait a premature or wrong decision. Each bait draws its rank,
         then its destination. *)
      for _ = 1 to 3 do
        let rank = 1 + Rng.int rng n in
        let dst = ids.(Rng.int rng n) in
        Sends.add buf dst (Msg.New (Some rank))
      done
    end;
    buf

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
  let stray_buf = Sends.create () in
  let misaddress ~byz_id ~round ~inbox:_ =
    (* Every send targets an identity outside the participant set (ids
       live in [1, namespace]); the engine must drop and count each one
       without disturbing the honest run. Joining the election keeps the
       node visible to strategies that spy on the ELECT round. *)
    Sends.clear stray_buf;
    if round = 0 then election_round_out candidate stray_buf ~byz_id ~ids;
    for i = 0 to 1 do
      (* The message is drawn before its destination. *)
      let msg = random_msg rng params.B.namespace in
      let dst = params.B.namespace + 1 + Rng.int rng (n + i + 1) in
      Sends.add stray_buf dst msg
    done;
    stray_buf
  in
  let replay_buf = Sends.create () in
  let replay ~byz_id ~round ~inbox =
    (* Re-emit last round's received payloads verbatim at randomly chosen
       participants: stale Responses, NEWs and consensus votes from
       earlier protocol stages arriving out of phase. *)
    Sends.clear replay_buf;
    if round = 0 then election_round_out candidate replay_buf ~byz_id ~ids
    else
      List.iter
        (fun (e : Net.envelope) ->
          Sends.add replay_buf ids.(Rng.int rng n) e.msg)
        inbox;
    replay_buf
  in
  fun ~byz_id ~round ~inbox ->
    match assoc_int byz_id behaviors with
    | None | Some Silence -> silent ~byz_id ~round ~inbox
    | Some Noise -> noise ~byz_id ~round ~inbox
    | Some Equivocate -> equivocate ~byz_id ~round ~inbox
    | Some Misaddress -> misaddress ~byz_id ~round ~inbox
    | Some Replay -> replay ~byz_id ~round ~inbox

let committee_hijack (params : B.params) ~ids : Net.byz_strategy =
  let candidate = candidate params ~ids in
  let buf = Sends.create () in
  fun ~byz_id ~round ~inbox:_ ->
    Sends.clear buf;
    if round = 0 then election_round_out candidate buf ~byz_id ~ids
    else if round >= 2 then
      (* Every corrupted committee member pushes the same bogus identity
         at everyone, every round, until the honest nodes give up. *)
      for i = 0 to Array.length ids - 1 do
        Sends.add buf ids.(i) (Msg.New (Some 1))
      done;
    buf
