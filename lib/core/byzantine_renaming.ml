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
    | Pk_vote of bool
    | Pk_propose of bool
    | Pk_king of bool
    | Vld_input of Fingerprint.t * int
    | Vld_lock of Fingerprint.t * int
    | Vld_lock_none
    | Vld_raw_input of string * int
        (* ship-segments ablation: the validator value is the raw packed
           segment itself plus its one-count *)
    | Vld_raw_lock of string * int
    | Vld_raw_lock_none
    | Diff of bool
    | New of int option

  module W = Repro_sim.Wire

  (* 3-bit tag plus the exact cost of the Elias-gamma / fixed-width
     payload written by [encode]; each message is O(log N) bits. *)
  let bits = function
    | Elect | Announce -> 3
    | Pk_vote _ | Pk_propose _ | Pk_king _ -> 3 + 3
    | Vld_input (fp, cnt) -> 3 + 1 + Fingerprint.bits fp + W.gamma_bits cnt
    | Vld_lock_none | Vld_raw_lock_none -> 3 + 2
    | Vld_lock (fp, cnt) -> 3 + 2 + Fingerprint.bits fp + W.gamma_bits cnt
    | Vld_raw_input (s, cnt) ->
        3 + 1 + W.gamma_bits (String.length s) + (8 * String.length s)
        + W.gamma_bits cnt
    | Vld_raw_lock (s, cnt) ->
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

  (* A phase-king message: tag 2, a 2-bit kind and the bit. *)
  let write_pk w sub b =
    tag w 2;
    W.Writer.add_fixed w sub ~width:2;
    W.Writer.add_bit w b

  (* A validator message's head under tag [t]: 0 for an input, 10 for
     an empty lock, 11 for a lock that carries a value. *)
  let write_vld w t sub =
    tag w t;
    W.Writer.add_bit w (sub > 0);
    if sub > 0 then W.Writer.add_bit w (sub > 1)

  let write w m =
    match m with
    | Elect -> tag w 0
    | Announce -> tag w 1
    | Pk_vote b -> write_pk w 0 b
    | Pk_propose b -> write_pk w 1 b
    | Pk_king b -> write_pk w 2 b
    | Vld_input (fp, cnt) | Vld_lock (fp, cnt) ->
        write_vld w 3 (match m with Vld_input _ -> 0 | _ -> 2);
        write_fp w fp;
        W.Writer.add_gamma w cnt
    | Vld_lock_none -> write_vld w 3 1
    | Vld_raw_input (s, cnt) | Vld_raw_lock (s, cnt) ->
        write_vld w 6 (match m with Vld_raw_input _ -> 0 | _ -> 2);
        write_raw w s;
        W.Writer.add_gamma w cnt
    | Vld_raw_lock_none -> write_vld w 6 1
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
        | 0 -> Pk_vote b
        | 1 -> Pk_propose b
        | 2 -> Pk_king b
        | _ -> invalid_arg "Byzantine_renaming.Msg.read: phase-king tag")
    | 3 ->
        if W.Reader.read_bit r then
          if W.Reader.read_bit r then begin
            let fp = read_fp r in
            let cnt = W.Reader.read_gamma r in
            Vld_lock (fp, cnt)
          end
          else Vld_lock_none
        else begin
          let fp = read_fp r in
          let cnt = W.Reader.read_gamma r in
          Vld_input (fp, cnt)
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
            Vld_raw_lock (s, cnt)
          end
          else Vld_raw_lock_none
        else begin
          let s = read_raw r in
          let cnt = W.Reader.read_gamma r in
          Vld_raw_input (s, cnt)
        end
    | _ -> invalid_arg "Byzantine_renaming.Msg.read: tag"

  let encode m = W.encode_with write m
  let decode s = W.decode_with read s

  let pp ppf = function
    | Elect -> Format.fprintf ppf "elect"
    | Announce -> Format.fprintf ppf "announce"
    | Pk_vote b -> Format.fprintf ppf "pk-vote(%b)" b
    | Pk_propose b -> Format.fprintf ppf "pk-propose(%b)" b
    | Pk_king b -> Format.fprintf ppf "pk-king(%b)" b
    | Vld_input (fp, cnt) ->
        Format.fprintf ppf "vld-input(%a,%d)" Fingerprint.pp fp cnt
    | Vld_lock_none -> Format.fprintf ppf "vld-lock(-)"
    | Vld_lock (fp, cnt) ->
        Format.fprintf ppf "vld-lock(%a,%d)" Fingerprint.pp fp cnt
    | Vld_raw_input (s, cnt) ->
        Format.fprintf ppf "vldraw-input(%d bytes,%d)" (String.length s) cnt
    | Vld_raw_lock_none -> Format.fprintf ppf "vldraw-lock(-)"
    | Vld_raw_lock (s, cnt) ->
        Format.fprintf ppf "vldraw-lock(%d bytes,%d)" (String.length s) cnt
    | Diff b -> Format.fprintf ppf "diff(%b)" b
    | New None -> Format.fprintf ppf "new(null)"
    | New (Some r) -> Format.fprintf ppf "new(%d)" r
end

module Net = Repro_sim.Engine.Make (Msg)

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

(* How the consensus sub-protocols read and build this protocol's
   messages. The readers look at a message in place, and every
   phase-king message built is a static constant (one physical payload
   per round for the engine's size memo), so reading a kept message or
   casting a vote allocates nothing. *)
let pk_msgs =
  let pick yes no b = if b then yes else no in
  {
    Phase_king.vote = pick (Msg.Pk_vote true) (Msg.Pk_vote false);
    propose = pick (Msg.Pk_propose true) (Msg.Pk_propose false);
    king = pick (Msg.Pk_king true) (Msg.Pk_king false);
    kind =
      (function
      | Msg.Pk_vote _ -> Phase_king.Vote
      | Msg.Pk_propose _ -> Propose
      | Msg.Pk_king _ -> King
      | _ -> Other);
    bit =
      (function
      | Msg.Pk_vote b | Msg.Pk_propose b | Msg.Pk_king b -> b | _ -> false);
  }

let vld_msgs =
  {
    Validator.kind =
      (function
      | Msg.Vld_input _ -> Validator.Input
      | Msg.Vld_lock _ -> Lock
      | _ -> Other);
    same_value =
      (fun a b ->
        match (a, b) with
        | ( (Msg.Vld_input (f1, c1) | Msg.Vld_lock (f1, c1)),
            (Msg.Vld_input (f2, c2) | Msg.Vld_lock (f2, c2)) ) ->
            Fingerprint.equal f1 f2 && Int.equal c1 c2
        | _ -> false);
    lock = (function Msg.Vld_input (fp, c) -> Msg.Vld_lock (fp, c) | m -> m);
    lock_none = Msg.Vld_lock_none;
  }

let vld_raw_msgs =
  {
    Validator.kind =
      (function
      | Msg.Vld_raw_input _ -> Validator.Input
      | Msg.Vld_raw_lock _ -> Lock
      | _ -> Other);
    same_value =
      (fun a b ->
        match (a, b) with
        | ( (Msg.Vld_raw_input (s1, c1) | Msg.Vld_raw_lock (s1, c1)),
            (Msg.Vld_raw_input (s2, c2) | Msg.Vld_raw_lock (s2, c2)) ) ->
            String.equal s1 s2 && Int.equal c1 c2
        | _ -> false);
    lock =
      (function Msg.Vld_raw_input (s, c) -> Msg.Vld_raw_lock (s, c) | m -> m);
    lock_none = Msg.Vld_raw_lock_none;
  }

let is_diff_report = function Msg.Diff true -> true | _ -> false

(* One binary-consensus instance. The coin variant derives its shared
   coin from (shared seed, instance nonce, phase); correct members run
   instances in lock-step, so their nonce counters agree. *)
let make_consensus params ~kings =
  let nonce = ref 0 in
  fun net input ->
    incr nonce;
    match params.consensus with
    | Phase_king_consensus ->
        Phase_king.run ~net ~msgs:pk_msgs ~kings ~input
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
        Repro_consensus.Coin_consensus.run ~net ~msgs:pk_msgs ~coin ~horizon
          ~input

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
            let mine =
              Msg.Vld_input (Fingerprint.of_segment key l j, Bitvec.count l j)
            in
            (* Agree on the (fingerprint, count) tuple via the weak
               validator, then on whether everyone held the same tuple. *)
            let v = Validator.run ~net ~msgs:vld_msgs ~input:mine in
            let same' = consensus net v.Validator.same in
            if not same' then false
            else begin
              let diff_v = not (vld_msgs.same_value mine v.Validator.value) in
              (* One round of diff reports: if more members than the
                 fault bound report a mismatch, at least one correct
                 member truly differs and everyone escalates. *)
              Committee_net.broadcast net
                (if diff_v then Msg.Diff true else Msg.Diff false);
              let reports = Committee_net.count net is_diff_report in
              let diff' = if reports > t then true else diff_v in
              let diff'' = consensus net diff' in
              if diff'' then false
              else begin
                (match v.Validator.value with
                | (Msg.Vld_input (_, cnt') | Msg.Vld_lock (_, cnt'))
                  when diff_v ->
                    (* My segment contradicts the agreed fingerprint:
                       mark it dirty and patch it to carry exactly the
                       agreed number of ones, so global ranks stay
                       consistent with everyone else's. I will answer
                       [null] for identities inside it. *)
                    dirty := j :: !dirty;
                    Bitvec.fill_segment_with_ones l j cnt'
                | _ -> ());
                true
              end
            end
        | Ship_segments ->
            (* Ablation: the validator carries the raw segment, so an
               agreed value is its own preimage — no diff machinery, no
               dirty intervals — at Ω(|segment|)-bit messages. *)
            let mine =
              Msg.Vld_raw_input (Bitvec.segment_bytes l j, Bitvec.count l j)
            in
            let v = Validator.run ~net ~msgs:vld_raw_msgs ~input:mine in
            let same' = consensus net v.Validator.same in
            if not same' then false
            else begin
              (match v.Validator.value with
              | (Msg.Vld_raw_input (raw', _) | Msg.Vld_raw_lock (raw', _))
                when 8 * String.length raw' >= Interval.size j ->
                  Bitvec.set_segment_bytes l j raw'
              | _ -> ());
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
        let last_msg = ref (Msg.New None) in
        let out =
          List.map
            (fun u ->
              acc := !acc + Bitvec.count l (Interval.make (!prev + 1) u);
              prev := u;
              if in_dirty u then (u, Msg.New None)
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
