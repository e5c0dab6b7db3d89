module Interval = Repro_util.Interval
module Bitvec = Repro_util.Bitvec
module Fingerprint = Repro_crypto.Fingerprint
module Committee_pool = Repro_crypto.Committee_pool
module Committee_net = Repro_consensus.Committee_net
module Phase_king = Repro_consensus.Phase_king
module Validator = Repro_consensus.Validator
module Trace = Repro_obs.Trace

module Msg = struct
  type t =
    | Elect
    | Announce
    | Pk of Phase_king.msg
    | Vld of (Fingerprint.t * int) Validator.msg
    | VldRaw of (string * int) Validator.msg
        (* ship-segments ablation: the validator value is the raw packed
           segment itself plus its one-count *)
    | Diff of bool
    | New of int option

  module W = Repro_sim.Wire

  (* 3-bit tag plus the exact cost of the Elias-gamma / fixed-width
     payload written by [encode]; each message is O(log N) bits. *)
  let bits = function
    | Elect | Announce -> 3
    | Pk _ -> 3 + 3
    | Vld (Validator.Input (fp, cnt)) ->
        3 + 1 + Fingerprint.bits fp + W.gamma_bits cnt
    | Vld (Validator.Lock None) -> 3 + 2
    | Vld (Validator.Lock (Some (fp, cnt))) ->
        3 + 2 + Fingerprint.bits fp + W.gamma_bits cnt
    | VldRaw (Validator.Input (s, cnt)) ->
        3 + 1 + W.gamma_bits (String.length s) + (8 * String.length s)
        + W.gamma_bits cnt
    | VldRaw (Validator.Lock None) -> 3 + 2
    | VldRaw (Validator.Lock (Some (s, cnt))) ->
        3 + 2 + W.gamma_bits (String.length s) + (8 * String.length s)
        + W.gamma_bits cnt
    | Diff _ -> 3 + 1
    | New None -> 3 + 1
    | New (Some r) -> 3 + 1 + W.gamma_bits r

  let write_fp w fp =
    let v1, v2 = Fingerprint.to_int_pair fp in
    W.Writer.add_fixed w v1 ~width:31;
    W.Writer.add_fixed w v2 ~width:31

  let read_fp r =
    let v1 = W.Reader.read_fixed r ~width:31 in
    let v2 = W.Reader.read_fixed r ~width:31 in
    Fingerprint.of_raw v1 v2

  let write_raw w s =
    W.Writer.add_gamma w (String.length s);
    W.Writer.add_string w s

  (* The length arrives off the wire, where on the socket backend a
     hostile peer controls it; [read_string] bounds it by what the
     message can actually hold before allocating. *)
  let read_raw r = W.Reader.read_string r (W.Reader.read_gamma r)

  let tag w t = W.Writer.add_fixed w t ~width:3

  let write w m =
    match m with
    | Elect -> tag w 0
    | Announce -> tag w 1
    | Pk pk ->
        tag w 2;
        let sub, b =
          match pk with
          | Phase_king.Vote b -> (0, b)
          | Phase_king.Propose b -> (1, b)
          | Phase_king.King b -> (2, b)
        in
        W.Writer.add_fixed w sub ~width:2;
        W.Writer.add_bit w b
    | Vld (Validator.Input (fp, cnt)) ->
        tag w 3;
        W.Writer.add_bit w false;
        write_fp w fp;
        W.Writer.add_gamma w cnt
    | Vld (Validator.Lock lock) -> (
        tag w 3;
        W.Writer.add_bit w true;
        match lock with
        | None -> W.Writer.add_bit w false
        | Some (fp, cnt) ->
            W.Writer.add_bit w true;
            write_fp w fp;
            W.Writer.add_gamma w cnt)
    | VldRaw (Validator.Input (s, cnt)) ->
        tag w 6;
        W.Writer.add_bit w false;
        write_raw w s;
        W.Writer.add_gamma w cnt
    | VldRaw (Validator.Lock lock) -> (
        tag w 6;
        W.Writer.add_bit w true;
        match lock with
        | None -> W.Writer.add_bit w false
        | Some (s, cnt) ->
            W.Writer.add_bit w true;
            write_raw w s;
            W.Writer.add_gamma w cnt)
    | Diff b ->
        tag w 4;
        W.Writer.add_bit w b
    | New None ->
        tag w 5;
        W.Writer.add_bit w false
    | New (Some r) ->
        tag w 5;
        W.Writer.add_bit w true;
        W.Writer.add_gamma w r

  let read r =
    match W.Reader.read_fixed r ~width:3 with
    | 0 -> Elect
    | 1 -> Announce
    | 2 -> (
        let sub = W.Reader.read_fixed r ~width:2 in
        let b = W.Reader.read_bit r in
        match sub with
        | 0 -> Pk (Phase_king.Vote b)
        | 1 -> Pk (Phase_king.Propose b)
        | 2 -> Pk (Phase_king.King b)
        | _ -> invalid_arg "Byzantine_renaming.Msg.read: phase-king tag")
    | 3 ->
        if W.Reader.read_bit r then
          if W.Reader.read_bit r then begin
            let fp = read_fp r in
            let cnt = W.Reader.read_gamma r in
            Vld (Validator.Lock (Some (fp, cnt)))
          end
          else Vld (Validator.Lock None)
        else begin
          let fp = read_fp r in
          let cnt = W.Reader.read_gamma r in
          Vld (Validator.Input (fp, cnt))
        end
    | 4 -> Diff (W.Reader.read_bit r)
    | 5 ->
        if W.Reader.read_bit r then New (Some (W.Reader.read_gamma r))
        else New None
    | 6 ->
        if W.Reader.read_bit r then
          if W.Reader.read_bit r then begin
            let s = read_raw r in
            let cnt = W.Reader.read_gamma r in
            VldRaw (Validator.Lock (Some (s, cnt)))
          end
          else VldRaw (Validator.Lock None)
        else begin
          let s = read_raw r in
          let cnt = W.Reader.read_gamma r in
          VldRaw (Validator.Input (s, cnt))
        end
    | _ -> invalid_arg "Byzantine_renaming.Msg.read: tag"

  let encode m = W.encode_with write m
  let decode s = W.decode_with read s

  let pp ppf = function
    | Elect -> Format.fprintf ppf "elect"
    | Announce -> Format.fprintf ppf "announce"
    | Pk (Phase_king.Vote b) -> Format.fprintf ppf "pk-vote(%b)" b
    | Pk (Phase_king.Propose b) -> Format.fprintf ppf "pk-propose(%b)" b
    | Pk (Phase_king.King b) -> Format.fprintf ppf "pk-king(%b)" b
    | Vld (Validator.Input (fp, cnt)) ->
        Format.fprintf ppf "vld-input(%a,%d)" Fingerprint.pp fp cnt
    | Vld (Validator.Lock None) -> Format.fprintf ppf "vld-lock(-)"
    | Vld (Validator.Lock (Some (fp, cnt))) ->
        Format.fprintf ppf "vld-lock(%a,%d)" Fingerprint.pp fp cnt
    | VldRaw (Validator.Input (s, cnt)) ->
        Format.fprintf ppf "vldraw-input(%d bytes,%d)" (String.length s) cnt
    | VldRaw (Validator.Lock None) -> Format.fprintf ppf "vldraw-lock(-)"
    | VldRaw (Validator.Lock (Some (s, cnt))) ->
        Format.fprintf ppf "vldraw-lock(%d bytes,%d)" (String.length s) cnt
    | Diff b -> Format.fprintf ppf "diff(%b)" b
    | New None -> Format.fprintf ppf "new(null)"
    | New (Some r) -> Format.fprintf ppf "new(%d)" r
end

module Net = Repro_sim.Engine.Make (Msg)

(* Interned message values (the crash protocol's verdict-interning
   mechanism, applied to this protocol's shareable payloads): module-
   level constants are static data, so the hot paths below ship one
   physical value instead of allocating a constructor per recipient —
   and the engine's physical-equality size memo prices each once. *)
let msg_new_null = Msg.New None
let msg_diff_true = Msg.Diff true
let msg_diff_false = Msg.Diff false

type committee_mode = Shared_pool | Everyone | Local_coin of float
type reconcile_mode = Fingerprint_dnc | Ship_segments

type consensus_mode =
  | Phase_king_consensus
  | Common_coin_consensus of int  (* horizon *)

type params = {
  namespace : int;
  shared_seed : int;
  epsilon0 : float;
  pool_probability : [ `Paper | `Fixed of float ];
  committee : committee_mode;
  reconcile : reconcile_mode;
  consensus : consensus_mode;
}

let default_params ~namespace ~shared_seed =
  {
    namespace;
    shared_seed;
    epsilon0 = 0.1;
    pool_probability = `Paper;
    committee = Shared_pool;
    reconcile = Fingerprint_dnc;
    consensus = Phase_king_consensus;
  }

let p0_of_params params ~n =
  match params.pool_probability with
  | `Fixed p -> p
  | `Paper -> Committee_pool.paper_p0 ~n ~epsilon0:params.epsilon0

let pool_of_params params ~n =
  Committee_pool.create ~seed:params.shared_seed ~namespace:params.namespace
    ~p0:(p0_of_params params ~n)

(* Embedding of the consensus sub-protocols into the wire message type.
   A phase-king message is one of six values, so both directions are
   interned: the embedding returns one static message per value (one
   physical payload per round for the engine's size memo) and the
   projection one static option, so counting votes allocates nothing. *)
let pk_vote_true = Msg.Pk (Phase_king.Vote true)
let pk_vote_false = Msg.Pk (Phase_king.Vote false)
let pk_propose_true = Msg.Pk (Phase_king.Propose true)
let pk_propose_false = Msg.Pk (Phase_king.Propose false)
let pk_king_true = Msg.Pk (Phase_king.King true)
let pk_king_false = Msg.Pk (Phase_king.King false)
let some_vote_true = Some (Phase_king.Vote true)
let some_vote_false = Some (Phase_king.Vote false)
let some_propose_true = Some (Phase_king.Propose true)
let some_propose_false = Some (Phase_king.Propose false)
let some_king_true = Some (Phase_king.King true)
let some_king_false = Some (Phase_king.King false)

let pk_embed = function
  | Phase_king.Vote true -> pk_vote_true
  | Phase_king.Vote false -> pk_vote_false
  | Phase_king.Propose true -> pk_propose_true
  | Phase_king.Propose false -> pk_propose_false
  | Phase_king.King true -> pk_king_true
  | Phase_king.King false -> pk_king_false

let pk_project = function
  | Msg.Pk (Phase_king.Vote true) -> some_vote_true
  | Msg.Pk (Phase_king.Vote false) -> some_vote_false
  | Msg.Pk (Phase_king.Propose true) -> some_propose_true
  | Msg.Pk (Phase_king.Propose false) -> some_propose_false
  | Msg.Pk (Phase_king.King true) -> some_king_true
  | Msg.Pk (Phase_king.King false) -> some_king_false
  | _ -> None

let vld_embed m = Msg.Vld m
let vld_project = function Msg.Vld m -> Some m | _ -> None
let vldraw_embed m = Msg.VldRaw m
let vldraw_project = function Msg.VldRaw m -> Some m | _ -> None

let is_diff_report = function Msg.Diff true -> true | _ -> false
let fp_cnt_equal (f1, (c1 : int)) (f2, c2) = Fingerprint.equal f1 f2 && c1 = c2

(* One binary-consensus instance. The coin variant derives its shared
   coin from (shared seed, instance nonce, phase); correct members run
   instances in lock-step, so their nonce counters agree. *)
let make_consensus params ~kings =
  let nonce = ref 0 in
  fun net input ->
    incr nonce;
    match params.consensus with
    | Phase_king_consensus ->
        Phase_king.run ~net ~embed:pk_embed ~project:pk_project ~kings ~input
    | Common_coin_consensus horizon ->
        let instance = !nonce in
        let coin phase =
          let seed =
            params.shared_seed
            lxor (instance * 0x9E3779B1)
            lxor (phase * 0x85EBCA6B)
          in
          Repro_util.Rng.bool (Repro_util.Rng.of_seed seed)
        in
        Repro_consensus.Coin_consensus.run ~net ~embed:pk_embed
          ~project:pk_project ~coin ~horizon ~input

(* The committee member's main loop: divide-and-conquer consensus on the
   identity list (Figure 4, lines 16-31). Returns the reconciled list and
   the member's dirty intervals. *)
let reconcile_identity_list ~mode ~consensus ~net ~key ~namespace l =
  let t = Committee_net.fault_threshold net in
  let dirty = ref [] in
  let completed = ref [] in
  let stack = ref [ Interval.make 1 namespace ] in
  while !stack <> [] do
    let j, rest =
      match !stack with
      | j :: rest -> (j, rest)
      | [] ->
          invalid_arg
            "Byzantine_renaming.reconcile_identity_list: segment stack \
             empty inside the non-empty-stack loop"
    in
    stack := rest;
    if Interval.is_singleton j then begin
      (* Single bit: classical binary consensus pins it down. Validity
         ensures a bit set this way is some correct member's view, hence a
         real (authenticated) identity. *)
      let pos = Interval.point j in
      let bit = consensus net (Bitvec.get l pos) in
      Bitvec.set l pos bit;
      completed := j :: !completed
    end
    else begin
      let success =
        match mode with
        | Fingerprint_dnc ->
            let fp = Fingerprint.of_segment key l j in
            let cnt = Bitvec.count l j in
            (* Agree on the (fingerprint, count) tuple via the weak
               validator, then on whether everyone held the same tuple. *)
            let v =
              Validator.run ~net ~embed:vld_embed ~project:vld_project
                ~equal:fp_cnt_equal ~input:(fp, cnt)
            in
            let same' = consensus net v.Validator.same in
            if not same' then false
            else begin
              let ((_, cnt') as agreed) = v.Validator.value in
              let diff_v = not (fp_cnt_equal (fp, cnt) agreed) in
              (* One round of diff reports: if more members than the
                 fault bound report a mismatch, at least one correct
                 member truly differs and everyone escalates. *)
              Committee_net.broadcast net
                (if diff_v then msg_diff_true else msg_diff_false);
              let reports = Committee_net.count net is_diff_report in
              let diff' = if reports > t then true else diff_v in
              let diff'' = consensus net diff' in
              if diff'' then false
              else begin
                if diff_v then begin
                  (* My segment contradicts the agreed fingerprint: mark
                     it dirty and patch it to carry exactly the agreed
                     number of ones, so global ranks stay consistent
                     with everyone else's. I will answer [null] for
                     identities inside it. *)
                  dirty := j :: !dirty;
                  Bitvec.fill_segment_with_ones l j cnt'
                end;
                true
              end
            end
        | Ship_segments ->
            (* Ablation: the validator carries the raw segment, so an
               agreed value is its own preimage — no diff machinery, no
               dirty intervals — at Ω(|segment|)-bit messages. *)
            let raw = Bitvec.segment_bytes l j in
            let cnt = Bitvec.count l j in
            let equal (s1, (c1 : int)) (s2, c2) =
              String.equal s1 s2 && c1 = c2
            in
            let v =
              Validator.run ~net ~embed:vldraw_embed ~project:vldraw_project
                ~equal ~input:(raw, cnt)
            in
            let same' = consensus net v.Validator.same in
            if not same' then false
            else begin
              let raw', _ = v.Validator.value in
              if 8 * String.length raw' >= Interval.size j then
                Bitvec.set_segment_bytes l j raw';
              true
            end
      in
      if success then completed := j :: !completed
      else begin
        (* Divide and conquer: recurse into both halves, lower first. *)
        stack := Interval.bot j :: Interval.top j :: !stack
      end
    end
  done;
  (List.rev !completed, !dirty)

(* Deterministic plurality over a rank multiset given in ascending order
   (lint D2 contract: the caller extracts the ranks with a sorted fold).
   Highest count wins; equal counts break towards the smallest rank —
   never towards whatever a hashtable happened to iterate first, which
   is what the pre-lint tally did and what OCAMLRUNPARAM=R perturbs. *)
let plurality_rank sorted_ranks =
  let better acc rank (count : int) =
    match acc with
    | Some (_, best_count) when best_count >= count -> acc
    | _ -> Some (rank, count)
  in
  let rec go acc (current : int) count = function
    | [] -> better acc current count
    | r :: rest ->
        if r = current then go acc current (count + 1) rest
        else go (better acc current count) r 1 rest
  in
  match sorted_ranks with
  | [] -> None
  | r :: rest -> Option.map fst (go None r 1 rest)

type telemetry = {
  on_view : id:int -> view:int list -> unit;
  on_reconciled :
    id:int ->
    l:Bitvec.t ->
    partition:Interval.t list ->
    dirty:Interval.t list ->
    unit;
}

(* Stages 2-3 node code and the distribution-collection loop, over any
   network backend satisfying {!Repro_net.Network_intf.S} — the
   simulator's engine or the multi-process socket transport. *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) =
struct
  (* Wait for NEW messages from a majority of the committee view, then take
     the plurality of the non-null ranks. Byzantine members are fewer than
     half the view, so the threshold can only be crossed once the correct
     members have genuinely distributed — and among collected values the
     correct, clean-interval rank (sent by > |B| members, Lemma 3.11) beats
     any fabricated one. [heard.(i)] and [rank.(i)] hold the first NEW of
     the [i]-th view member, and [absorb] is built once. Between inboxes
     the node sleeps in [wait_for_mail]: a round that brings it no message
     does not resume it, and a round that brings nothing new allocates
     nothing. *)
  let collect_new_identity ctx ~view first_inbox =
    let view = Array.of_list view in
    let k = Array.length view in
    let threshold = (k / 2) + 1 in
    let heard = Array.make k false in
    let rank : int option array = Array.make k None in
    let count = ref 0 in
    let absorb ~src = function
      | Msg.New v ->
          let i = Repro_util.Sorted.index view src in
          if i >= 0 && not heard.(i) then begin
            heard.(i) <- true;
            rank.(i) <- v;
            incr count
          end
      | _ -> ()
    in
    let decide () =
      if !count < threshold then None
      else
        Array.fold_left
          (fun acc v -> match v with Some r -> r :: acc | None -> acc)
          [] rank
        |> List.sort Int.compare |> plurality_rank
    in
    let rec go inbox =
      Net.Inbox.iter inbox ~f:absorb;
      match decide () with
      | Some rank -> rank
      | None -> go (Net.wait_for_mail ctx)
    in
    go first_inbox

  let node_program ~pool_for ?telemetry params ctx =
    let me = Net.my_id ctx in
    let n = Net.n ctx in
    let namespace = params.namespace in
    let key = Fingerprint.key_of_seed params.shared_seed in
    (* Stage 1: committee election. [kings] is the shared king order
       restricted to [view]; outside [Shared_pool] it is a permutation of
       [view] itself. *)
    let elected, view, kings =
      match params.committee with
      | Everyone ->
          let ids = List.sort Int.compare (Array.to_list (Net.all_ids ctx)) in
          let arr = Array.of_list ids in
          let shared = Repro_util.Rng.of_seed (params.shared_seed lxor 0x4b1) in
          Repro_util.Rng.shuffle shared arr;
          ignore (Net.skip_round ctx);
          (* keep round numbering aligned with Shared_pool *)
          (true, ids, Array.to_list arr)
      | Shared_pool ->
          let pool = pool_for n in
          let elected = Committee_pool.mem pool me in
          let inbox =
            if elected then Net.broadcast ctx Msg.Elect else Net.skip_round ctx
          in
          let view =
            Net.Inbox.fold inbox ~init:[] ~f:(fun acc ~src msg ->
                match msg with
                | Msg.Elect when Committee_pool.mem pool src -> src :: acc
                | _ -> acc)
            |> List.sort_uniq Int.compare
          in
          (elected, view, Committee_pool.kings_among pool view)
      | Local_coin p ->
          (* No shared randomness for the election: each node flips a local
             coin and self-elects. The crucial difference to [Shared_pool]:
             candidacy is unverifiable, so every Byzantine node can claim
             it, and the committee's Byzantine share is no longer tied to
             f/n (see the negative test in test_local_coin.ml). *)
          let elected = Repro_util.Rng.bernoulli (Net.rng ctx) p in
          let inbox =
            if elected then Net.broadcast ctx Msg.Elect else Net.skip_round ctx
          in
          let view =
            Net.Inbox.fold inbox ~init:[] ~f:(fun acc ~src msg ->
                match msg with Msg.Elect -> src :: acc | _ -> acc)
            |> List.sort_uniq Int.compare
          in
          let arr = Array.of_list view in
          let shared = Repro_util.Rng.of_seed (params.shared_seed lxor 0x10ca1) in
          Repro_util.Rng.shuffle shared arr;
          (elected, view, Array.to_list arr)
    in
    Option.iter (fun t -> t.on_view ~id:me ~view) telemetry;
    (* Stage 2: identity aggregation. *)
    let inbox = Net.exchange ctx (List.map (fun c -> (c, Msg.Announce)) view) in
    let first_inbox =
      if not elected then Net.skip_round ctx
      else begin
        let announced =
          Net.Inbox.fold inbox ~init:[] ~f:(fun acc ~src msg ->
              match msg with Msg.Announce -> src :: acc | _ -> acc)
          |> List.sort_uniq Int.compare
        in
        let l = Bitvec.create namespace in
        List.iter (fun i -> Bitvec.set l i true) announced;
        let net =
          Committee_net.create ~me ~members:view
            ~multisend:(fun ~dsts m ~f ->
              Net.Inbox.iter (Net.multisend ctx ~dsts m) ~f)
            ~skip_round:(fun ~f -> Net.Inbox.iter (Net.skip_round ctx) ~f)
        in
        (* Stage 2b: committee-internal consensus on the identity list. *)
        let consensus = make_consensus params ~kings in
        let partition, dirty =
          reconcile_identity_list ~mode:params.reconcile ~consensus ~net ~key
            ~namespace l
        in
        Option.iter
          (fun t ->
            t.on_reconciled ~id:me ~l:(Bitvec.copy l) ~partition ~dirty)
          telemetry;
        let in_dirty i = List.exists (fun dj -> Interval.contains dj i) dirty in
        (* Stage 3: distribute new identities (rank in the reconciled
           list); null for identities inside my dirty intervals.
           [announced] ascends (sort_uniq above), so the ranks are one
           cumulative word-parallel popcount walk over [l] — O(N/w + n)
           for the whole stage instead of O(n·N/w) repeated rank scans. *)
        let prev = ref 0 and acc = ref 0 in
        (* Verdict interning: dirty recipients share the static [null]
           value, and an announced identity absent from the reconciled
           list repeats its predecessor's rank — reuse that message
           too instead of boxing the same rank again. *)
        let last_rank = ref (-1) in
        let last_msg = ref msg_new_null in
        let out =
          List.map
            (fun u ->
              acc := !acc + Bitvec.count l (Interval.make (!prev + 1) u);
              prev := u;
              if in_dirty u then (u, msg_new_null)
              else begin
                if !acc <> !last_rank then begin
                  last_rank := !acc;
                  last_msg := Msg.New (Some !acc)
                end;
                (u, !last_msg)
              end)
            announced
        in
        Net.exchange ctx out
      end
    in
    collect_new_identity ctx ~view first_inbox

  (* [program ?telemetry params] is one closure for all nodes of a run:
     it builds the shared pool once, for the first node's [n], and keeps
     it in a one-entry cache keyed by [n]. Fibers may run on several
     domains, so the cache is an [Atomic]; domains that miss it at once
     build equal pools. *)
  let program ?telemetry params =
    let cache = Atomic.make None in
    let pool_for n =
      match Atomic.get cache with
      | Some (cached_n, pool) when Int.equal cached_n n -> pool
      | Some _ | None ->
          let pool = pool_of_params params ~n in
          Atomic.set cache (Some (n, pool));
          pool
    in
    node_program ~pool_for ?telemetry params
end

module Node = Make_node (Net)

let program = Node.program

let run ?telemetry ~params ?byz ?trace ?max_rounds ?seed ?shards ~ids () =
  Array.iter
    (fun id ->
      if id < 1 || id > params.namespace then
        invalid_arg "Byzantine_renaming.run: identity outside namespace")
    ids;
  (* Telemetry hooks aggregate across nodes from inside the fibers
     (documented contract), so a telemetry run must stay sequential. *)
  let shards = if Option.is_some telemetry then Some 1 else shards in
  let res =
    Net.run ~ids ?byz ?tap:(Option.map Trace.tap trace)
      ?on_crash:(Option.map Trace.on_crash trace)
      ?on_decide:(Option.map Trace.on_decide trace)
      ?on_round_end:(Option.map Trace.on_round_end trace)
      ?max_rounds ?seed ?shards
      ~program:(program ?telemetry params)
      ()
  in
  Option.iter (fun t -> Trace.finish t res.Repro_sim.Engine.metrics) trace;
  res
