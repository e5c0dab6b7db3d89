module Interval = Repro_util.Interval
module Ilog = Repro_util.Ilog
module Rng = Repro_util.Rng
module Bitvec = Repro_util.Bitvec

module Msg = struct
  (* A [Response] carries no identity: the transport destination already
     names the recipient and the Figure-3 reaction never reads an id.
     Dropping the field makes every verdict for the same group with the
     same outcome a semantically identical value — the enabler for the
     per-(group, outcome) interning in [Committee.absorb_and_emit] —
     and shaves gamma(id) bits off every verdict on the wire. *)
  type t =
    | Notify
    | Status of { id : int; iv : Interval.t; d : int; p : int }
    | Response of { iv : Interval.t; d : int; p : int }

  (* 2 tag bits plus Elias-gamma coded payload fields (the exact cost of
     [encode]); every field is O(log N) bits as the theorem requires. *)
  let iv_bits iv =
    Repro_sim.Wire.gamma_bits iv.Interval.lo
    + Repro_sim.Wire.gamma_bits (Interval.size iv - 1)

  let bits = function
    | Notify -> 2
    | Status { id; iv; d; p } ->
        2 + Repro_sim.Wire.gamma_bits id + iv_bits iv
        + Repro_sim.Wire.gamma_bits d + Repro_sim.Wire.gamma_bits p
    | Response { iv; d; p } ->
        2 + iv_bits iv + Repro_sim.Wire.gamma_bits d
        + Repro_sim.Wire.gamma_bits p

  let encode m =
    let w = Repro_sim.Wire.Writer.create () in
    let payload iv d p =
      Repro_sim.Wire.Writer.add_gamma w iv.Interval.lo;
      Repro_sim.Wire.Writer.add_gamma w (Interval.size iv - 1);
      Repro_sim.Wire.Writer.add_gamma w d;
      Repro_sim.Wire.Writer.add_gamma w p
    in
    (match m with
    | Notify -> Repro_sim.Wire.Writer.add_fixed w 0 ~width:2
    | Status { id; iv; d; p } ->
        Repro_sim.Wire.Writer.add_fixed w 1 ~width:2;
        Repro_sim.Wire.Writer.add_gamma w id;
        payload iv d p
    | Response { iv; d; p } ->
        Repro_sim.Wire.Writer.add_fixed w 2 ~width:2;
        payload iv d p);
    (Repro_sim.Wire.Writer.contents w, Repro_sim.Wire.Writer.bit_length w)

  let decode s =
    let r = Repro_sim.Wire.Reader.of_string s in
    let payload () =
      let lo = Repro_sim.Wire.Reader.read_gamma r in
      let span = Repro_sim.Wire.Reader.read_gamma r in
      let d = Repro_sim.Wire.Reader.read_gamma r in
      let p = Repro_sim.Wire.Reader.read_gamma r in
      (Interval.make lo (lo + span), d, p)
    in
    match Repro_sim.Wire.Reader.read_fixed r ~width:2 with
    | 0 -> Some Notify
    | 1 ->
        let id = Repro_sim.Wire.Reader.read_gamma r in
        let iv, d, p = payload () in
        Some (Status { id; iv; d; p })
    | 2 ->
        let iv, d, p = payload () in
        Some (Response { iv; d; p })
    | _ -> None
    | exception Invalid_argument _ -> None

  let pp ppf = function
    | Notify -> Format.fprintf ppf "notify"
    | Status { id; iv; d; p } ->
        Format.fprintf ppf "status(%d,%a,d=%d,p=%d)" id Interval.pp iv d p
    | Response { iv; d; p } ->
        Format.fprintf ppf "response(%a,d=%d,p=%d)" Interval.pp iv d p
end

module Net = Repro_sim.Engine.Make (Msg)

type reelection_policy = On_demand | Every_phase

type params = {
  election_constant : float;
  phase_factor : int;
  reelection : reelection_policy;
  target : [ `Strong | `Loose of int ];
}

let paper_params =
  {
    election_constant = 256.;
    phase_factor = 3;
    reelection = On_demand;
    target = `Strong;
  }

let experiment_params =
  {
    election_constant = 3.;
    phase_factor = 3;
    reelection = On_demand;
    target = `Strong;
  }

let target_size params ~n =
  match params.target with
  | `Strong -> n
  | `Loose m ->
      if m < n then invalid_arg "Crash_renaming: loose target below n";
      m

let phases params ~n =
  let m = target_size params ~n in
  if m <= 1 then 0 else params.phase_factor * Ilog.ceil_log2 m

let election_probability params ~n ~p =
  if n <= 1 then 1.
  else
    let log_n = log (float_of_int n) /. log 2. in
    Float.min 1.
      (params.election_constant *. (2. ** float_of_int p) *. log_n
      /. float_of_int n)

(* Per-run memo over [p]: the probability costs a [log] and a power per
   call and is drawn on every committee-silence escalation, so cache it.
   The cached value comes from the byte-identical expression above —
   refactoring the float arithmetic (e.g. to [ldexp]) could flip a
   rounding and with it a pinned [Rng.bernoulli] outcome. *)
type elect_memo = { mutable probs : float array }

let elect_memo () = { probs = [||] }

let elect_prob memo params ~n p =
  (if p >= Array.length memo.probs then begin
     let len = max (p + 1) (max 8 (2 * Array.length memo.probs)) in
     let a = Array.make len Float.nan in
     Array.blit memo.probs 0 a 0 (Array.length memo.probs);
     memo.probs <- a
   end);
  let v = memo.probs.(p) in
  if Float.is_nan v then begin
    let v = election_probability params ~n ~p in
    memo.probs.(p) <- v;
    v
  end
  else v

(* Per-node mutable state: exactly the variables of Figure 1. *)
type state = {
  mutable iv : Interval.t;
  mutable dv : int;
  mutable pv : int;
  mutable elected : bool;
}

type telemetry = {
  on_phase_end :
    phase:int ->
    id:int ->
    iv:Interval.t ->
    d:int ->
    p:int ->
    elected:bool ->
    unit;
}

exception Invalid_committee_inbox of string

(* The node-side algorithm, over any network backend. The functor
   argument is the node-facing slice of the engine's API
   ({!Repro_net.Network_intf.S}); applying it to
   [Repro_sim.Engine.Make (Msg)] recovers the historical single-process
   implementation below, and applying it to
   [Repro_net.Socket_net.Host (Msg)] runs the very same node code over
   OS processes and real sockets. *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) =
struct
  (* {1 Consumption fast path}

     There is no intermediate "decoded" message store: the engine's
     inbox view already is a struct-of-arrays decode of the round (the
     merged per-recipient/shared streams, sorted by source), performed
     once at delivery. Both consumers — the committee absorb below and
     the Figure-3 adoption sweep — iterate that view directly, keeping
     all selection state in plain [int] fields of per-run records, so a
     steady-state round allocates nothing on the consumption side. An
     earlier draft copied each inbox into separate packed columns
     first; the copy doubled the per-entry walk (and paid a pointer
     write barrier per interval) for no information gain, costing ~15%
     of no-fault round throughput. *)

  (* {1 Flattened committee state}

     Struct-of-arrays over dense {e slot} indices: slot [i+1] (1-based,
     matching [Bitvec] positions) is the participant with the [i]-th
     smallest identity. A committee member keeps, per slot, the last
     status it received from that participant plus cached gamma sizes, and
     maintains the Figure-2 verdict-group index {e incrementally} across
     phases: a round's inbox is absorbed as a delta (changed, new and
     vanished reporters), and only those deltas touch the index while the
     minimum depth stands still. Group membership is a [Bitvec] over
     slots, so reporter ranks are range popcounts; the depth sweep is a
     first-set probe over the depth-occupancy bitvec.

     Input contract, checked while absorbing (any violation raises
     {!Invalid_committee_inbox} naming the failed precondition):
     - every status's [id] equals its transport-level source (honest
       crash-model nodes report their own identity),
     - sources are strictly ascending (the engine's inbox order), each
       reporting at most once,
     - minimum-depth non-singleton intervals are pairwise disjoint (the
       shared halving-tree invariant),
     - depths and escalation levels stay below {!depth_cap} (bounds the
       histogram arrays; honest values are O(log n)).

     Honest crash-model traffic meets all four by construction, so a
     violation is a bug in whatever produced the inbox, not an input to
     absorb. Under the contract slot order = ascending identity = inbox
     order, so verdicts go out in inbox order, and a rank "reporters of
     the interval with identity <= id" equals a popcount of member slots
     at positions <= slot. *)

  let gamma = Repro_sim.Wire.gamma_bits
  let depth_cap = 1 lsl 20

  module Committee = struct
    let violated what = raise (Invalid_committee_inbox what)
    let overlap () = violated "overlapping minimum-depth intervals"

    module Vec = Repro_util.Arena.Vec
    module Bitpool = Repro_util.Arena.Bitpool

    type t = {
      cn : int;
      full : Interval.t;  (* [1, cn]: the slot universe *)
      sorted_ids : int array;  (* slot i+1 <-> sorted_ids.(i) *)
      (* stored statuses, valid where [present] is set *)
      s_lo : int array;
      s_hi : int array;
      s_d : int array;
      s_p : int array;
      s_iv : Interval.t array;  (* the sender's interval record, shared *)
      s_ivb : int array;  (* gamma(lo) + gamma(size-1), cached *)
      s_db : int array;  (* gamma(d), cached *)
      (* per-slot last verdict, a content-addressed cache: reused
         whenever this round's verdict has the same payload (frozen
         singletons and echoes re-verdict identically every phase) *)
      v_msg : Msg.t array;
      mutable present : Bitvec.t;  (* slots reporting in the last round *)
      mutable scratch : Bitvec.t;  (* slots reporting this round *)
      (* depth / escalation histograms over present statuses *)
      mutable d_hist : int array;
      mutable d_ne : Bitvec.t;  (* bit (d+1) set iff d_hist.(d) > 0 *)
      mutable p_hist : int array;
      mutable p_max : int;  (* max present p; -1 when none *)
      (* this round's delta log, arena-backed: sized to the actual churn
         (empty forever while wholesale absorbs rule).  [ch_slot] holds
         the changed slots, then the vanished slots appended. *)
      ch_slot : int Vec.t;
      ch_old_lo : int Vec.t;
      ch_old_hi : int Vec.t;
      ch_old_d : int Vec.t;  (* -1: the slot was absent last round *)
      rm_lo : int Vec.t;
      rm_hi : int Vec.t;
      rm_d : int Vec.t;
      mutable stamp : int;  (* absorb counter, marks fresh groups *)
      (* Retained-state maintenance policy: when the previous absorb
         churned more than half the membership, the next one skips the
         delta log and histogram upkeep wholesale and rebuilds both in
         one sweep — the committee-killer (and the steady no-fault
         cadence, where every reporter deepens each phase) would
         otherwise pay full delta bookkeeping and then rebuild anyway.
         Self-calibrating: each absorb re-measures its own churn. *)
      mutable wholesale : bool;
      (* verdict-group index: parallel arrays sorted by [g_lo], valid for
         minimum depth [g_depth] *)
      mutable g_len : int;
      mutable g_depth : int;  (* -1: invalid, next absorb rebuilds *)
      mutable g_lo : int array;
      mutable g_hi : int array;
      mutable g_bot_hi : int array;
      mutable g_bot_size : int array;
      mutable g_b : int array;  (* #present statuses with iv inside bot *)
      mutable g_ndmin : int array;  (* #present depth-g_depth exact reporters *)
      mutable g_bot_iv : Interval.t array;  (* shared verdict intervals *)
      mutable g_top_iv : Interval.t array;
      mutable g_bot_ivb : int array;  (* cached verdict interval sizes *)
      mutable g_top_ivb : int array;
      (* interned verdicts: one canonical [Msg.t] per (group, outcome)
         per round, built on first use (stamp-guarded) and shared
         physically by every recipient in the group *)
      mutable g_bot_msg : Msg.t array;
      mutable g_top_msg : Msg.t array;
      mutable g_bot_mst : int array;  (* stamp the interned msg is for *)
      mutable g_top_mst : int array;
      mutable g_members : Bitvec.t array;  (* exact reporters, by slot *)
      mutable g_fresh : int array;  (* stamp of the absorb that inserted *)
      mutable g_cur_slot : int array;  (* emission rank cursors *)
      mutable g_cur_rank : int array;
      pool : Bitpool.t;  (* recycled member sets *)
      (* sized outbox buffers, arena-backed, reused every round *)
      out_dsts : int Vec.t;
      out_msgs : Msg.t Vec.t;
      out_sizes : int Vec.t;
    }

    let create ~ids =
      let cn = Array.length ids in
      let sorted_ids = Array.copy ids in
      Array.sort Int.compare sorted_ids;
      let dummy_iv = Interval.singleton 1 in
      {
        cn;
        full = Interval.full (max 1 cn);
        sorted_ids;
        s_lo = Array.make cn 0;
        s_hi = Array.make cn 0;
        s_d = Array.make cn 0;
        s_p = Array.make cn 0;
        s_iv = Array.make cn dummy_iv;
        s_ivb = Array.make cn 0;
        s_db = Array.make cn 0;
        v_msg = Array.make cn Msg.Notify;
        present = Bitvec.create cn;
        scratch = Bitvec.create cn;
        d_hist = Array.make 64 0;
        d_ne = Bitvec.create 64;
        p_hist = Array.make 64 0;
        p_max = -1;
        ch_slot = Vec.create ~dummy:0;
        ch_old_lo = Vec.create ~dummy:0;
        ch_old_hi = Vec.create ~dummy:0;
        ch_old_d = Vec.create ~dummy:0;
        rm_lo = Vec.create ~dummy:0;
        rm_hi = Vec.create ~dummy:0;
        rm_d = Vec.create ~dummy:0;
        stamp = 0;
        wholesale = true;  (* first absorb has no retained state to keep *)
        g_len = 0;
        g_depth = -1;
        g_lo = [||];
        g_hi = [||];
        g_bot_hi = [||];
        g_bot_size = [||];
        g_b = [||];
        g_ndmin = [||];
        g_bot_iv = [||];
        g_top_iv = [||];
        g_bot_ivb = [||];
        g_top_ivb = [||];
        g_bot_msg = [||];
        g_top_msg = [||];
        g_bot_mst = [||];
        g_top_mst = [||];
        g_members = [||];
        g_fresh = [||];
        g_cur_slot = [||];
        g_cur_rank = [||];
        pool = Bitpool.create ~width:cn;
        out_dsts = Vec.create ~dummy:0;
        out_msgs = Vec.create ~dummy:Msg.Notify;
        out_sizes = Vec.create ~dummy:0;
      }

    let clear_log cs =
      Vec.clear cs.ch_slot;
      Vec.clear cs.ch_old_lo;
      Vec.clear cs.ch_old_hi;
      Vec.clear cs.ch_old_d;
      Vec.clear cs.rm_lo;
      Vec.clear cs.rm_hi;
      Vec.clear cs.rm_d

    let clear_groups cs =
      for j = 0 to cs.g_len - 1 do
        Bitpool.release cs.pool cs.g_members.(j)
      done;
      cs.g_len <- 0;
      cs.g_depth <- -1

    let grow_hist h need =
      let len = max need (2 * Array.length h) in
      let h' = Array.make len 0 in
      Array.blit h 0 h' 0 (Array.length h);
      h'

    let ensure_depth cs d =
      if d + 2 > Array.length cs.d_hist then begin
        cs.d_hist <- grow_hist cs.d_hist (d + 2);
        let ne = Bitvec.create (Array.length cs.d_hist) in
        Bitvec.iter_set cs.d_ne
          (Interval.full (Bitvec.length cs.d_ne))
          ~f:(fun pos -> Bitvec.set ne pos true);
        cs.d_ne <- ne
      end

    let ensure_p cs p =
      if p + 1 > Array.length cs.p_hist then
        cs.p_hist <- grow_hist cs.p_hist (p + 1)

    let hist_add cs d p =
      ensure_depth cs d;
      ensure_p cs p;
      let c = cs.d_hist.(d) + 1 in
      cs.d_hist.(d) <- c;
      if c = 1 then Bitvec.set cs.d_ne (d + 1) true;
      cs.p_hist.(p) <- cs.p_hist.(p) + 1;
      if p > cs.p_max then cs.p_max <- p

    let hist_remove cs d p =
      let c = cs.d_hist.(d) - 1 in
      cs.d_hist.(d) <- c;
      if c = 0 then Bitvec.set cs.d_ne (d + 1) false;
      cs.p_hist.(p) <- cs.p_hist.(p) - 1;
      if p = cs.p_max && cs.p_hist.(p) = 0 then begin
        let q = ref (cs.p_max - 1) in
        while !q >= 0 && cs.p_hist.(!q) = 0 do
          decr q
        done;
        cs.p_max <- !q
      end

    (* Index of the rightmost group with [g_lo <= lo]; -1 if none. *)
    let locate cs lo =
      let l = ref 0 and h = ref cs.g_len in
      while !l < !h do
        let m = (!l + !h) / 2 in
        if Array.unsafe_get cs.g_lo m <= lo then l := m + 1 else h := m
      done;
      !l - 1

    let ensure_gcap cs =
      if cs.g_len = Array.length cs.g_lo then begin
        let cap = max 8 (2 * cs.g_len) in
        let grow_i a =
          let b = Array.make cap 0 in
          Array.blit a 0 b 0 cs.g_len;
          b
        in
        let dummy_iv = Interval.singleton 1 in
        let grow_iv a =
          let b = Array.make cap dummy_iv in
          Array.blit a 0 b 0 cs.g_len;
          b
        in
        let grow_m a =
          let b = Array.make cap Msg.Notify in
          Array.blit a 0 b 0 cs.g_len;
          b
        in
        let grow_bv a =
          let b = Array.make cap cs.scratch in
          Array.blit a 0 b 0 cs.g_len;
          b
        in
        cs.g_lo <- grow_i cs.g_lo;
        cs.g_hi <- grow_i cs.g_hi;
        cs.g_bot_hi <- grow_i cs.g_bot_hi;
        cs.g_bot_size <- grow_i cs.g_bot_size;
        cs.g_b <- grow_i cs.g_b;
        cs.g_ndmin <- grow_i cs.g_ndmin;
        cs.g_bot_iv <- grow_iv cs.g_bot_iv;
        cs.g_top_iv <- grow_iv cs.g_top_iv;
        cs.g_bot_ivb <- grow_i cs.g_bot_ivb;
        cs.g_top_ivb <- grow_i cs.g_top_ivb;
        cs.g_bot_msg <- grow_m cs.g_bot_msg;
        cs.g_top_msg <- grow_m cs.g_top_msg;
        cs.g_bot_mst <- grow_i cs.g_bot_mst;
        cs.g_top_mst <- grow_i cs.g_top_mst;
        cs.g_members <- grow_bv cs.g_members;
        cs.g_fresh <- grow_i cs.g_fresh;
        cs.g_cur_slot <- grow_i cs.g_cur_slot;
        cs.g_cur_rank <- grow_i cs.g_cur_rank
      end

    let insert_group cs ~at ~iv =
      ensure_gcap cs;
      let tail = cs.g_len - at in
      let shift_i (a : int array) = Array.blit a at a (at + 1) tail in
      let shift_iv (a : Interval.t array) = Array.blit a at a (at + 1) tail in
      let shift_m (a : Msg.t array) = Array.blit a at a (at + 1) tail in
      let shift_bv (a : Bitvec.t array) = Array.blit a at a (at + 1) tail in
      shift_i cs.g_lo;
      shift_i cs.g_hi;
      shift_i cs.g_bot_hi;
      shift_i cs.g_bot_size;
      shift_i cs.g_b;
      shift_i cs.g_ndmin;
      shift_iv cs.g_bot_iv;
      shift_iv cs.g_top_iv;
      shift_i cs.g_bot_ivb;
      shift_i cs.g_top_ivb;
      shift_m cs.g_bot_msg;
      shift_m cs.g_top_msg;
      shift_i cs.g_bot_mst;
      shift_i cs.g_top_mst;
      shift_bv cs.g_members;
      shift_i cs.g_fresh;
      shift_i cs.g_cur_slot;
      shift_i cs.g_cur_rank;
      let bot = Interval.bot iv and top = Interval.top iv in
      cs.g_lo.(at) <- iv.Interval.lo;
      cs.g_hi.(at) <- iv.Interval.hi;
      cs.g_bot_hi.(at) <- bot.Interval.hi;
      cs.g_bot_size.(at) <- Interval.size bot;
      cs.g_b.(at) <- 0;
      cs.g_ndmin.(at) <- 0;
      cs.g_bot_iv.(at) <- bot;
      cs.g_top_iv.(at) <- top;
      cs.g_bot_ivb.(at) <-
        gamma bot.Interval.lo + gamma (Interval.size bot - 1);
      cs.g_top_ivb.(at) <-
        gamma top.Interval.lo + gamma (Interval.size top - 1);
      cs.g_bot_msg.(at) <- Msg.Notify;
      cs.g_top_msg.(at) <- Msg.Notify;
      cs.g_bot_mst.(at) <- 0;
      cs.g_top_mst.(at) <- 0;
      cs.g_members.(at) <- Bitpool.acquire cs.pool;
      cs.g_fresh.(at) <- cs.stamp;
      cs.g_len <- cs.g_len + 1

    let remove_group cs at =
      Bitpool.release cs.pool cs.g_members.(at);
      let tail = cs.g_len - at - 1 in
      let shift_i (a : int array) = Array.blit a (at + 1) a at tail in
      let shift_iv (a : Interval.t array) = Array.blit a (at + 1) a at tail in
      let shift_m (a : Msg.t array) = Array.blit a (at + 1) a at tail in
      let shift_bv (a : Bitvec.t array) = Array.blit a (at + 1) a at tail in
      shift_i cs.g_lo;
      shift_i cs.g_hi;
      shift_i cs.g_bot_hi;
      shift_i cs.g_bot_size;
      shift_i cs.g_b;
      shift_i cs.g_ndmin;
      shift_iv cs.g_bot_iv;
      shift_iv cs.g_top_iv;
      shift_i cs.g_bot_ivb;
      shift_i cs.g_top_ivb;
      shift_m cs.g_bot_msg;
      shift_m cs.g_top_msg;
      shift_i cs.g_bot_mst;
      shift_i cs.g_top_mst;
      shift_bv cs.g_members;
      shift_i cs.g_fresh;
      shift_i cs.g_cur_slot;
      shift_i cs.g_cur_rank;
      cs.g_len <- cs.g_len - 1

    (* The group for minimum-depth non-singleton interval [iv], inserting
       it if new; it must not overlap a distinct existing group (the
       shared-tree disjointness invariant). *)
    let ensure_group cs ~lo ~hi ~iv =
      let at = locate cs lo in
      if at >= 0 && cs.g_lo.(at) = lo then
        if cs.g_hi.(at) = hi then at else overlap ()
      else if at >= 0 && lo <= cs.g_hi.(at) then overlap ()
      else if at + 1 < cs.g_len && cs.g_lo.(at + 1) <= hi then overlap ()
      else begin
        insert_group cs ~at:(at + 1) ~iv;
        at + 1
      end

    (* A freshly inserted group's contributions, computed wholesale from
       every present status (the per-slot delta adds skip fresh groups). *)
    let fill_group cs at d_min =
      let glo = cs.g_lo.(at) and ghi = cs.g_hi.(at) in
      let gbh = cs.g_bot_hi.(at) in
      let members = cs.g_members.(at) in
      Bitvec.iter_set cs.present cs.full ~f:(fun slot ->
          let i = slot - 1 in
          let lo = Array.unsafe_get cs.s_lo i
          and hi = Array.unsafe_get cs.s_hi i in
          if lo = glo && hi = ghi then begin
            Bitvec.set members slot true;
            if cs.s_d.(i) = d_min then cs.g_ndmin.(at) <- cs.g_ndmin.(at) + 1
          end
          else if glo <= lo && hi <= gbh then cs.g_b.(at) <- cs.g_b.(at) + 1)

    (* Rebuild the whole index for a new minimum depth: collect the
       distinct non-singleton depth-[d_min] intervals, then one fill sweep
       routes every present status to its (at most one) group. *)
    let rebuild cs d_min =
      clear_groups cs;
      Bitvec.iter_set cs.present cs.full ~f:(fun slot ->
          let i = slot - 1 in
          if cs.s_d.(i) = d_min && cs.s_lo.(i) < cs.s_hi.(i) then
            ignore
              (ensure_group cs ~lo:cs.s_lo.(i) ~hi:cs.s_hi.(i) ~iv:cs.s_iv.(i)));
      Bitvec.iter_set cs.present cs.full ~f:(fun slot ->
          let i = slot - 1 in
          let lo = Array.unsafe_get cs.s_lo i
          and hi = Array.unsafe_get cs.s_hi i in
          let at = locate cs lo in
          if at >= 0 && lo <= cs.g_hi.(at) then
            if lo = cs.g_lo.(at) && hi = cs.g_hi.(at) then begin
              Bitvec.set cs.g_members.(at) slot true;
              if cs.s_d.(i) = d_min then cs.g_ndmin.(at) <- cs.g_ndmin.(at) + 1
            end
            else if hi <= cs.g_bot_hi.(at) then cs.g_b.(at) <- cs.g_b.(at) + 1);
      cs.g_depth <- d_min

    (* The minimum depth stood still: retract the change log's old
       contributions, prune groups left without a defining reporter, then
       add the new contributions — inserting (and wholesale-filling) any
       group a changed status newly defines. *)
    let apply_deltas cs d_min =
      let ch_len = Vec.length cs.ch_old_d and rm_len = Vec.length cs.rm_d in
      let ch_slot = Vec.data cs.ch_slot in
      let ch_old_lo = Vec.data cs.ch_old_lo
      and ch_old_hi = Vec.data cs.ch_old_hi
      and ch_old_d = Vec.data cs.ch_old_d in
      let rm_lo = Vec.data cs.rm_lo
      and rm_hi = Vec.data cs.rm_hi
      and rm_d = Vec.data cs.rm_d in
      let remove_old ~lo ~hi ~d ~slot =
        let at = locate cs lo in
        if at >= 0 && lo <= cs.g_hi.(at) then
          if lo = cs.g_lo.(at) && hi = cs.g_hi.(at) then begin
            Bitvec.set cs.g_members.(at) slot false;
            if d = d_min then begin
              cs.g_ndmin.(at) <- cs.g_ndmin.(at) - 1;
              if cs.g_ndmin.(at) = 0 then remove_group cs at
            end
          end
          else if hi <= cs.g_bot_hi.(at) then cs.g_b.(at) <- cs.g_b.(at) - 1
      in
      for k = 0 to rm_len - 1 do
        remove_old ~lo:rm_lo.(k) ~hi:rm_hi.(k) ~d:rm_d.(k)
          ~slot:ch_slot.(ch_len + k)
      done;
      for k = 0 to ch_len - 1 do
        if ch_old_d.(k) >= 0 then
          remove_old ~lo:ch_old_lo.(k) ~hi:ch_old_hi.(k) ~d:ch_old_d.(k)
            ~slot:ch_slot.(k)
      done;
      for k = 0 to ch_len - 1 do
        let slot = ch_slot.(k) in
        let i = slot - 1 in
        let lo = cs.s_lo.(i) and hi = cs.s_hi.(i) and d = cs.s_d.(i) in
        let at = locate cs lo in
        if at >= 0 && cs.g_lo.(at) = lo && cs.g_hi.(at) = hi then begin
          (* exact reporter of an existing group *)
          if cs.g_fresh.(at) <> cs.stamp then begin
            Bitvec.set cs.g_members.(at) slot true;
            if d = d_min then cs.g_ndmin.(at) <- cs.g_ndmin.(at) + 1
          end
        end
        else if at >= 0 && lo <= cs.g_hi.(at) then begin
          (* inside a distinct group's interval *)
          if d = d_min && lo < hi then overlap ()
          else if cs.g_fresh.(at) <> cs.stamp && hi <= cs.g_bot_hi.(at) then
            cs.g_b.(at) <- cs.g_b.(at) + 1
        end
        else if d = d_min && lo < hi then begin
          (* a new depth-minimal interval: becomes a fresh group *)
          let at = ensure_group cs ~lo ~hi ~iv:cs.s_iv.(i) in
          fill_group cs at d_min
        end
      done

    type outcome = Empty | Emitted of int

    (* Content-addressed per-slot verdict reuse: a frozen singleton (or
       a stable echo) receives the very same payload every phase, so
       last round's message is reusable whenever its fields match. Pure
       cache — never invalidated, only checked; on mismatch a fresh
       message is built and stored. *)
    let cached_verdict cs i ~iv ~d ~p =
      match Array.unsafe_get cs.v_msg i with
      | Msg.Response { iv = civ; d = cd; p = cp } as m
        when civ == iv && cd = d && cp = p ->
          m
      | _ ->
          let m = Msg.Response { iv; d; p } in
          Array.unsafe_set cs.v_msg i m;
          m

    (* Absorb one status round straight off the inbox view — a single
       pass; the view is already the round's struct-of-arrays decode —
       and fill the sized outbox buffers with the verdicts, in inbox
       (= ascending slot) order. *)
    let absorb_and_emit cs (st : state) inbox =
      cs.stamp <- cs.stamp + 1;
      clear_log cs;
      let wholesale = cs.wholesale in
      let m = ref 0 in
      let ptr = ref 0 in
      let churn = ref 0 in
      Net.Inbox.iter inbox ~f:(fun ~src msg ->
          match msg with
          | Msg.Notify | Msg.Response _ -> ()
          | Msg.Status { id; iv; d; p } ->
              incr m;
              let lo = iv.Interval.lo and hi = iv.Interval.hi in
              if id <> src then violated "status id differs from its source";
              if d < 0 || d >= depth_cap || p < 0 || p >= depth_cap then
                violated "depth or escalation level out of range";
              let k = ref !ptr in
              let ids = cs.sorted_ids in
              while !k < cs.cn && Array.unsafe_get ids !k < src do
                incr k
              done;
              if !k >= cs.cn || Array.unsafe_get ids !k <> src then
                violated "source unknown or not ascending";
              ptr := !k;
              let i = !k in
              let slot = i + 1 in
              if Bitvec.get cs.scratch slot then
                violated "source reports twice";
              Bitvec.set cs.scratch slot true;
              let was = Bitvec.get cs.present slot in
              if
                was && cs.s_lo.(i) = lo && cs.s_hi.(i) = hi
                && cs.s_d.(i) = d && cs.s_p.(i) = p
              then () (* unchanged: contributes exactly as indexed *)
              else begin
                incr churn;
                if wholesale then begin
                  (* wholesale round: no delta log, no histogram upkeep —
                     both get rebuilt in one sweep below. Gamma recomputes
                     still skip unchanged components. *)
                  if not (was && cs.s_lo.(i) = lo && cs.s_hi.(i) = hi)
                  then begin
                    cs.s_lo.(i) <- lo;
                    cs.s_hi.(i) <- hi;
                    cs.s_iv.(i) <- iv;
                    cs.s_ivb.(i) <- gamma lo + gamma (hi - lo)
                  end;
                  if not (was && cs.s_d.(i) = d) then begin
                    cs.s_d.(i) <- d;
                    cs.s_db.(i) <- gamma d
                  end;
                  cs.s_p.(i) <- p
                end
                else begin
                  Vec.push cs.ch_slot slot;
                  if was then begin
                    Vec.push cs.ch_old_lo cs.s_lo.(i);
                    Vec.push cs.ch_old_hi cs.s_hi.(i);
                    Vec.push cs.ch_old_d cs.s_d.(i);
                    hist_remove cs cs.s_d.(i) cs.s_p.(i)
                  end
                  else begin
                    Vec.push cs.ch_old_lo 0;
                    Vec.push cs.ch_old_hi 0;
                    Vec.push cs.ch_old_d (-1)
                  end;
                  hist_add cs d p;
                  cs.s_lo.(i) <- lo;
                  cs.s_hi.(i) <- hi;
                  cs.s_d.(i) <- d;
                  cs.s_p.(i) <- p;
                  cs.s_iv.(i) <- iv;
                  cs.s_ivb.(i) <- gamma lo + gamma (hi - lo);
                  cs.s_db.(i) <- gamma d
                end
              end);
      if !m = 0 then Empty
      else begin
        (* vanished reporters: in [present] but silent this round; in
           delta rounds their slots ride in [ch_slot] past the change
           entries, wholesale rounds only count them *)
        let vanished = ref 0 in
        (if wholesale then
           Bitvec.iter_diff cs.present cs.scratch ~f:(fun _ ->
               incr vanished)
         else
           Bitvec.iter_diff cs.present cs.scratch ~f:(fun slot ->
               let i = slot - 1 in
               Vec.push cs.ch_slot slot;
               Vec.push cs.rm_lo cs.s_lo.(i);
               Vec.push cs.rm_hi cs.s_hi.(i);
               Vec.push cs.rm_d cs.s_d.(i);
               incr vanished;
               hist_remove cs cs.s_d.(i) cs.s_p.(i)));
        let old = cs.present in
        cs.present <- cs.scratch;
        cs.scratch <- old;
        Bitvec.clear_all cs.scratch;
        (if wholesale then begin
           Array.fill cs.d_hist 0 (Array.length cs.d_hist) 0;
           Bitvec.clear_all cs.d_ne;
           Array.fill cs.p_hist 0 (Array.length cs.p_hist) 0;
           cs.p_max <- -1;
           Bitvec.iter_set cs.present cs.full ~f:(fun slot ->
               let i = slot - 1 in
               hist_add cs cs.s_d.(i) cs.s_p.(i))
         end);
        let d_min =
          match
            Bitvec.first_set cs.d_ne (Interval.full (Bitvec.length cs.d_ne))
          with
          | Some pos -> pos - 1
          | None -> violated "statuses absorbed but no depth indexed"
        in
        if cs.p_max > st.pv then st.pv <- cs.p_max;
        (* Delta replay wins when few statuses moved; under churn (a
           committee killer reshuffles most reporters every round, and
           the steady no-fault cadence deepens every reporter every
           phase) the retained-state upkeep costs more than a wholesale
           sweep. Measure this round's churn and pick next round's mode
           accordingly. Both routes index the same state identically —
           the committee tests check both against a reference oracle — so
           the threshold is pure policy. *)
        let n_present = Bitvec.count_all cs.present in
        let churned = !churn + !vanished in
        cs.wholesale <- 2 * churned > n_present;
        if wholesale || cs.g_depth <> d_min || 2 * churned > n_present then
          rebuild cs d_min
        else apply_deltas cs d_min;
        (* emission: one verdict per present slot, ascending — group
           verdicts are interned (one canonical message per (group,
           outcome), shared by every recipient), singletons and echoes
           reuse last round's message when the payload is unchanged, and
           precomputed size components make billing pure table lookups *)
        for j = 0 to cs.g_len - 1 do
          cs.g_cur_slot.(j) <- 0;
          cs.g_cur_rank.(j) <- 0
        done;
        Vec.clear cs.out_dsts;
        Vec.clear cs.out_msgs;
        Vec.clear cs.out_sizes;
        let pv = st.pv in
        let pvb = gamma pv in
        let d1 = d_min + 1 in
        let d1b = gamma d1 in
        let k = ref 0 in
        Bitvec.iter_set cs.present cs.full ~f:(fun slot ->
            let i = slot - 1 in
            let id = Array.unsafe_get cs.sorted_ids i in
            let d = Array.unsafe_get cs.s_d i in
            let lo = Array.unsafe_get cs.s_lo i
            and hi = Array.unsafe_get cs.s_hi i in
            let msg, sz =
              if d <> d_min then
                ( cached_verdict cs i ~iv:cs.s_iv.(i) ~d ~p:pv,
                  2 + cs.s_ivb.(i) + cs.s_db.(i) + pvb )
              else if lo = hi then
                ( cached_verdict cs i ~iv:cs.s_iv.(i) ~d:d1 ~p:pv,
                  2 + cs.s_ivb.(i) + d1b + pvb )
              else begin
                let at = locate cs lo in
                if at < 0 || cs.g_lo.(at) <> lo || cs.g_hi.(at) <> hi then
                  violated "minimum-depth status without a verdict group";
                (* rank via a cumulative range popcount: queried slots
                   ascend, so each member word is scanned once per round *)
                let prev = cs.g_cur_slot.(at) in
                let add =
                  Bitvec.count_range cs.g_members.(at) ~lo:(prev + 1) ~hi:slot
                in
                cs.g_cur_slot.(at) <- slot;
                let rank = cs.g_cur_rank.(at) + add in
                cs.g_cur_rank.(at) <- rank;
                if cs.g_b.(at) + rank <= cs.g_bot_size.(at) then begin
                  (if cs.g_bot_mst.(at) <> cs.stamp then begin
                     cs.g_bot_msg.(at) <-
                       Msg.Response { iv = cs.g_bot_iv.(at); d = d1; p = pv };
                     cs.g_bot_mst.(at) <- cs.stamp
                   end);
                  (cs.g_bot_msg.(at), 2 + cs.g_bot_ivb.(at) + d1b + pvb)
                end
                else begin
                  (if cs.g_top_mst.(at) <> cs.stamp then begin
                     cs.g_top_msg.(at) <-
                       Msg.Response { iv = cs.g_top_iv.(at); d = d1; p = pv };
                     cs.g_top_mst.(at) <- cs.stamp
                   end);
                  (cs.g_top_msg.(at), 2 + cs.g_top_ivb.(at) + d1b + pvb)
                end
              end
            in
            Vec.push cs.out_dsts id;
            Vec.push cs.out_msgs msg;
            Vec.push cs.out_sizes sz;
            incr k);
        Emitted !k
      end
  end

  (* Figure 3: adopt the deepest (then leftmost) committee verdict; on
     committee silence, escalate p and maybe self-elect. The sweep
     iterates the inbox view directly, tracking the winner in the int
     fields of a per-run scratch record — no intermediate tuples, no
     per-call ref cells, and the only pointer write is the (rare)
     improvement of the winning interval. *)

  type adopt_scratch = {
    mutable a_found : bool;
    mutable a_best_d : int;
    mutable a_best_lo : int;
    mutable a_best_iv : Interval.t;  (* winner, valid when [a_found] *)
    mutable a_p_hat : int;
  }

  let adopt_scratch () =
    {
      a_found = false;
      a_best_d = 0;
      a_best_lo = 0;
      a_best_iv = Interval.singleton 1;
      a_p_hat = min_int;
    }

  (* The sweep body, closed over its scratch once per run so the
     per-phase [Inbox.iter] call allocates nothing. First occurrence
     wins depth/leftmost ties — the same element a stable sort would
     put first. *)
  let adopt_sweep sc ~src:_ msg =
    match msg with
    | Msg.Notify | Msg.Status _ -> ()
    | Msg.Response { iv; d; p } ->
        let lo = iv.Interval.lo in
        if not sc.a_found then begin
          sc.a_found <- true;
          sc.a_best_d <- d;
          sc.a_best_lo <- lo;
          sc.a_best_iv <- iv;
          sc.a_p_hat <- p
        end
        else begin
          if d > sc.a_best_d || (d = sc.a_best_d && lo < sc.a_best_lo)
          then begin
            sc.a_best_d <- d;
            sc.a_best_lo <- lo;
            sc.a_best_iv <- iv
          end;
          if p > sc.a_p_hat then sc.a_p_hat <- p
        end

  let node_action params ~n memo rng st sc sweep inbox =
    let self_elect () =
      if not st.elected then
        st.elected <- Rng.bernoulli rng (elect_prob memo params ~n st.pv)
    in
    sc.a_found <- false;
    sc.a_p_hat <- min_int;
    Net.Inbox.iter inbox ~f:sweep;
    if not sc.a_found then begin
      st.pv <- st.pv + 1;
      self_elect ()
    end
    else begin
      if not (Interval.is_singleton st.iv) then begin
        st.dv <- sc.a_best_d;
        st.iv <- sc.a_best_iv
      end;
      if sc.a_p_hat > st.pv then begin
        st.pv <- sc.a_p_hat;
        self_elect ()
      end
    end

  let program ?telemetry ?alloc_emit params ctx =
    let n = Net.n ctx in
    let rng = Net.rng ctx in
    let my_id = Net.my_id ctx in
    let full_iv = Interval.full (target_size params ~n) in
    let st = { iv = full_iv; dv = 0; pv = 0; elected = false } in
    (* Per-node adoption scratch (with its preallocated sweep closure)
       and election-probability memo: per-run state owned by this
       closure, reused every phase. *)
    let sc = adopt_scratch () in
    let sweep = adopt_sweep sc in
    let memo = elect_memo () in
    (* Committee-id scratch buffer, reused across phases: the committee
       list is rebuilt from every announcement inbox by each of the n
       nodes, so building it with a fold + [List.rev] doubled the cons
       cells of the whole round. *)
    let cbuf = ref (Array.make 16 0) in
    (* Interned committee destination list: with on-demand re-election
       the announcement round names the same members phase after phase,
       so the cons cells of the previous phase's list are reusable
       whenever the buffered ids match — checking costs the same walk
       that rebuilding would, minus the allocation. *)
    let c_list = ref [] in
    let c_len = ref 0 in
    let committee_of_buf ck =
      let rec matches i = function
        | [] -> i = ck
        | x :: tl -> i < ck && x = (!cbuf).(i) && matches (i + 1) tl
      in
      if not (!c_len = ck && matches 0 !c_list) then begin
        let l = ref [] in
        for i = ck - 1 downto 0 do
          l := (!cbuf).(i) :: !l
        done;
        c_list := !l;
        c_len := ck
      end;
      !c_list
    in
    (* Last sent status: a frozen node (decided singleton, stable p)
       reports the identical payload every phase, so reuse the message
       value — the engine's physical-equality memo then bills it without
       re-measuring. *)
    let last_status = ref Msg.Notify in
    let status_msg () =
      match !last_status with
      | Msg.Status { id = _; iv; d; p } as m
        when iv == st.iv && d = st.dv && p = st.pv ->
          m
      | _ ->
          let m = Msg.Status { id = my_id; iv = st.iv; d = st.dv; p = st.pv } in
          last_status := m;
          m
    in
    (* Flattened committee state, allocated on first election only: most
       nodes never serve. Persists across phases — that persistence is
       what the incremental index trades on. *)
    let cstate = ref None in
    let committee_state () =
      match !cstate with
      | Some cs -> cs
      | None ->
          let cs = Committee.create ~ids:(Net.all_ids ctx) in
          cstate := Some cs;
          cs
    in
    (* The emission bracket closes before the exchange suspends: once
       the effect performs, the engine's own resume bracket takes over
       (see [Engine.alloc_probe]). *)
    let emitting = alloc_emit <> None in
    let probe_words () = Gc.minor_words () in
    let committee_round cs inbox =
      let w0 = if emitting then probe_words () else 0. in
      let out = Committee.absorb_and_emit cs st inbox in
      (match alloc_emit with
      | Some acc -> acc := !acc +. (probe_words () -. w0)
      | None -> ());
      match out with
      | Committee.Empty -> Net.exchange ctx []
      | Committee.Emitted len ->
          Net.exchange_sized ctx
            ~dsts:(Committee.Vec.data cs.Committee.out_dsts)
            ~msgs:(Committee.Vec.data cs.Committee.out_msgs)
            ~sizes:(Committee.Vec.data cs.Committee.out_sizes)
            ~len
    in
    st.elected <- Rng.bernoulli rng (elect_prob memo params ~n 0);
    for phase = 1 to phases params ~n do
      (* Round 1: committee announcement. *)
      let inbox1 =
        if st.elected then Net.broadcast ctx Msg.Notify else Net.skip_round ctx
      in
      let ck = ref 0 in
      Net.Inbox.iter inbox1 ~f:(fun ~src msg ->
          match msg with
          | Msg.Notify ->
              (if !ck = Array.length !cbuf then begin
                 let a = Array.make (2 * !ck) 0 in
                 Array.blit !cbuf 0 a 0 !ck;
                 cbuf := a
               end);
              (!cbuf).(!ck) <- src;
              incr ck
          | Msg.Status _ | Msg.Response _ -> ());
      (* Ascending src order; interned across phases (see above). *)
      let committee = committee_of_buf !ck in
      (* Round 2: report status to every announced committee member — one
         message value fanned out by the engine. *)
      let inbox2 = Net.multisend ctx ~dsts:committee (status_msg ()) in
      (* Round 3: committee verdicts out, node reaction in.  The p-hat
         adoption that used to sit here folds into the committee pass
         over the same inbox. *)
      let inbox3 =
        if st.elected then committee_round (committee_state ()) inbox2
        else Net.exchange ctx []
      in
      node_action params ~n memo rng st sc sweep inbox3;
      (* Ablation: the paper re-elects only after committee silence or a p
         bump; the [Every_phase] policy lets every node retry each phase,
         inflating the committee over time (measured in bench E9). *)
      (match params.reelection with
      | On_demand -> ()
      | Every_phase ->
          if not st.elected then
            st.elected <- Rng.bernoulli rng (elect_prob memo params ~n st.pv));
      Option.iter
        (fun t ->
          t.on_phase_end ~phase ~id:my_id ~iv:st.iv ~d:st.dv ~p:st.pv
            ~elected:st.elected)
        telemetry
    done;
    (* Theorem 1.2: after 3·⌈log n⌉ phases every surviving node's interval
       is a singleton — its new identity. *)
    assert (Interval.is_singleton st.iv);
    Interval.point st.iv

  module For_tests = struct
    (* One committee member driven through fabricated round inboxes;
       after each absorb, [f] gets the member state, the route flag the
       absorb started with, and its outcome. *)
    let drive ~pv ~ids rounds f =
      let st = { iv = Interval.full 1; dv = 0; pv; elected = true } in
      let cs = Committee.create ~ids in
      let out =
        List.map
          (fun pairs ->
            let wholesale = cs.Committee.wholesale in
            let inbox = Net.Inbox.of_pairs_unchecked ~dst:0 pairs in
            f cs ~wholesale (Committee.absorb_and_emit cs st inbox))
          rounds
      in
      (out, st.pv)

    let committee_verdicts ~pv ~ids rounds =
      fst
        (drive ~pv ~ids rounds (fun cs ~wholesale:_ -> function
           | Committee.Empty -> []
           | Committee.Emitted len ->
               List.init len (fun k ->
                   ( Committee.Vec.get cs.Committee.out_dsts k,
                     Committee.Vec.get cs.Committee.out_msgs k,
                     Committee.Vec.get cs.Committee.out_sizes k ))))

    let state_pv ~pv ~ids rounds =
      snd (drive ~pv ~ids rounds (fun _ ~wholesale:_ _ -> ()))

    let absorb_routes ~ids rounds =
      fst
        (drive ~pv:0 ~ids rounds (fun _ ~wholesale _ ->
             if wholesale then `Wholesale else `Delta))
  end
end

module Node = Make_node (Net)

let program = Node.program

module For_tests = Node.For_tests

let run ?(params = experiment_params) ?telemetry ?crash ?tap ?alloc_probe
    ?on_crash ?on_decide ?on_round_end ?seed ?shards ~ids () =
  (* Telemetry hooks aggregate across nodes from inside the fibers
     (documented contract), so a telemetry run must stay sequential.
     The alloc probe is sequential-only too (engine contract). *)
  let shards =
    if Option.is_some telemetry || Option.is_some alloc_probe then Some 1
    else shards
  in
  (* Committee emission allocates inside the fibers; an accumulator
     shared by all node programs separates it out of the engine's
     resume bracket. All nodes run on one domain here, so the shared
     cell is race-free. *)
  let alloc_emit = Option.map (fun _ -> ref 0.) alloc_probe in
  let res =
    Net.run ~ids ?crash ?tap ?alloc_probe ?on_crash ?on_decide ?on_round_end
      ?seed ?shards
      ~program:(Node.program ?telemetry ?alloc_emit params)
      ()
  in
  (match (alloc_probe, alloc_emit) with
  | Some p, Some acc ->
      p.Repro_sim.Engine.ap_emit <- p.Repro_sim.Engine.ap_emit +. !acc
  | _ -> ());
  res
