module Interval = Repro_util.Interval
module Ilog = Repro_util.Ilog
module Rng = Repro_util.Rng
module Trace = Repro_obs.Trace

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

     Struct-of-arrays over dense {e slot} indices: slot [i] is the
     participant with the [i]-th smallest identity. A committee member
     keeps, per slot, the last status it received from that participant
     plus cached gamma sizes, and rebuilds the Figure-2 verdict-group
     index from scratch on every absorb, in four passes over the round's
     reporters:
     - absorb: check the input contract, store the statuses, and take
       the minimum depth and the largest escalation level;
     - groups: collect the distinct minimum-depth non-singleton
       intervals, sorted by [lo] — appended in honest runs, inserted
       otherwise;
     - fill: write each exact reporter's group into the per-slot column
       [s_grp], and count the statuses inside each group's bottom half;
     - emission: rank each exact reporter with a per-group counter and
       push its verdict.

     Input contract, checked while absorbing (any violation raises
     {!Invalid_committee_inbox} naming the failed precondition):
     - every status's [id] equals its transport-level source (honest
       crash-model nodes report their own identity),
     - sources are strictly ascending (the engine's inbox order), each
       reporting at most once,
     - minimum-depth non-singleton intervals are pairwise disjoint (the
       shared halving-tree invariant),
     - depths and escalation levels stay below {!depth_cap} (honest
       values are O(log n)).

     Honest crash-model traffic meets all four by construction, so a
     violation is a bug in whatever produced the inbox, not an input to
     absorb. Under the contract slot order = ascending identity = inbox
     order, so verdicts go out in inbox order, and a rank "reporters of
     the interval with identity <= id" is the number of the group's
     exact reporters the emission pass has met so far. *)

  let gamma = Repro_sim.Wire.gamma_bits
  let depth_cap = 1 lsl 20

  module Committee = struct
    let violated what = raise (Invalid_committee_inbox what)
    let overlap () = violated "overlapping minimum-depth intervals"

    module Vec = Repro_util.Arena.Vec

    type t = {
      cn : int;
      sorted_ids : int array;  (* slot i <-> sorted_ids.(i) *)
      (* last status per slot; [s_lo > s_hi] before the first report *)
      s_lo : int array;
      s_hi : int array;
      s_d : int array;
      s_iv : Interval.t array;  (* the sender's interval record, shared *)
      s_ivb : int array;  (* gamma(lo) + gamma(size-1), cached *)
      s_db : int array;  (* gamma(d), cached *)
      s_grp : int array;  (* this round: the group the slot reports, or -1 *)
      (* per-slot last verdict, a content-addressed cache: reused
         whenever this round's verdict has the same payload (frozen
         singletons and echoes re-verdict identically every phase) *)
      v_msg : Msg.t array;
      r_slot : int array;  (* this round's reporting slots, ascending *)
      (* verdict-group index, rebuilt every absorb: parallel arrays
         sorted by [g_lo] *)
      mutable g_len : int;
      mutable g_lo : int array;
      mutable g_hi : int array;
      mutable g_iv : Interval.t array;  (* a defining status's interval *)
      mutable g_b : int array;  (* #other statuses inside bot *)
      mutable g_rank : int array;  (* emission rank counters *)
      (* interned verdicts: one canonical [Msg.t] per (group, outcome),
         built on first use ([Notify] until then) and shared physically
         by every recipient in the group, with its billed size *)
      mutable g_bot_msg : Msg.t array;
      mutable g_top_msg : Msg.t array;
      mutable g_bot_bits : int array;
      mutable g_top_bits : int array;
      (* sized outbox buffers, arena-backed, reused every round *)
      out_dsts : int Vec.t;
      out_msgs : Msg.t Vec.t;
      out_sizes : int Vec.t;
    }

    let rec ascending (ids : int array) i =
      i >= Array.length ids || (ids.(i - 1) < ids.(i) && ascending ids (i + 1))

    let create ~ids =
      let cn = Array.length ids in
      (* Callers hand over ascending ids ([Experiment.random_ids] sorts
         them); the committee only reads the array, so alias it. *)
      let sorted_ids =
        if ascending ids 1 then ids
        else begin
          let a = Array.copy ids in
          Array.sort Int.compare a;
          a
        end
      in
      let dummy_iv = Interval.singleton 1 in
      {
        cn;
        sorted_ids;
        s_lo = Array.make cn 0;
        s_hi = Array.make cn (-1);
        s_d = Array.make cn (-1);
        s_iv = Array.make cn dummy_iv;
        s_ivb = Array.make cn 0;
        s_db = Array.make cn 0;
        s_grp = Array.make cn (-1);
        v_msg = Array.make cn Msg.Notify;
        r_slot = Array.make cn 0;
        g_len = 0;
        g_lo = [||];
        g_hi = [||];
        g_iv = [||];
        g_b = [||];
        g_rank = [||];
        g_bot_msg = [||];
        g_top_msg = [||];
        g_bot_bits = [||];
        g_top_bits = [||];
        out_dsts = Vec.create ~dummy:0;
        out_msgs = Vec.create ~dummy:Msg.Notify;
        out_sizes = Vec.create ~dummy:0;
      }

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
        let grow a dummy =
          let b = Array.make cap dummy in
          Array.blit a 0 b 0 cs.g_len;
          b
        in
        let dummy_iv = Interval.singleton 1 in
        cs.g_lo <- grow cs.g_lo 0;
        cs.g_hi <- grow cs.g_hi 0;
        cs.g_iv <- grow cs.g_iv dummy_iv;
        cs.g_b <- Array.make cap 0;
        cs.g_rank <- Array.make cap 0;
        cs.g_bot_msg <- Array.make cap Msg.Notify;
        cs.g_top_msg <- Array.make cap Msg.Notify;
        cs.g_bot_bits <- Array.make cap 0;
        cs.g_top_bits <- Array.make cap 0
      end

    (* Only the defining columns are live while groups are being
       collected; the per-round counters are reset once the set is
       complete. *)
    let insert_group cs ~at ~lo ~hi ~iv =
      ensure_gcap cs;
      let tail = cs.g_len - at in
      if tail > 0 then begin
        Array.blit cs.g_lo at cs.g_lo (at + 1) tail;
        Array.blit cs.g_hi at cs.g_hi (at + 1) tail;
        Array.blit cs.g_iv at cs.g_iv (at + 1) tail
      end;
      cs.g_lo.(at) <- lo;
      cs.g_hi.(at) <- hi;
      cs.g_iv.(at) <- iv;
      cs.g_len <- cs.g_len + 1

    (* The group for minimum-depth non-singleton interval [lo, hi],
       inserted if new; it must not overlap a distinct existing group
       (the shared-tree disjointness invariant). *)
    let ensure_group cs ~lo ~hi ~iv =
      let at = locate cs lo in
      if at >= 0 && cs.g_lo.(at) = lo then begin
        if cs.g_hi.(at) <> hi then overlap ()
      end
      else if at >= 0 && lo <= cs.g_hi.(at) then overlap ()
      else if at + 1 < cs.g_len && cs.g_lo.(at + 1) <= hi then overlap ()
      else insert_group cs ~at:(at + 1) ~lo ~hi ~iv

    (* The groups: the distinct minimum-depth non-singleton intervals.
       Their defining statuses arrive in ascending slot order and, in
       honest runs, with ascending intervals, so each new group is
       appended past the last one with no overlap left to check; any
       other status that is not the last group's goes through
       [ensure_group]. *)
    let build_groups cs m d_min =
      cs.g_len <- 0;
      for k = 0 to m - 1 do
        let i = Array.unsafe_get cs.r_slot k in
        let lo = cs.s_lo.(i) and hi = cs.s_hi.(i) in
        if cs.s_d.(i) = d_min && lo < hi then begin
          let last = cs.g_len - 1 in
          if last < 0 || lo > cs.g_hi.(last) then
            insert_group cs ~at:cs.g_len ~lo ~hi ~iv:cs.s_iv.(i)
          else if not (lo = cs.g_lo.(last) && hi = cs.g_hi.(last)) then
            ensure_group cs ~lo ~hi ~iv:cs.s_iv.(i)
        end
      done;
      let len = cs.g_len in
      Array.fill cs.g_b 0 len 0;
      Array.fill cs.g_rank 0 len 0;
      Array.fill cs.g_bot_msg 0 len Msg.Notify;
      Array.fill cs.g_top_msg 0 len Msg.Notify

    (* One sweep routes every status to its (at most one) group: an
       exact reporter of a group's interval gets the group in [s_grp];
       any other status inside the group's bottom half counts in
       [g_b]. *)
    let fill cs m =
      for k = 0 to m - 1 do
        let i = Array.unsafe_get cs.r_slot k in
        let lo = cs.s_lo.(i) and hi = cs.s_hi.(i) in
        let at = locate cs lo in
        cs.s_grp.(i) <- -1;
        if at >= 0 && lo <= cs.g_hi.(at) then
          if lo = cs.g_lo.(at) && hi = cs.g_hi.(at) then cs.s_grp.(i) <- at
          else if hi <= Interval.mid cs.g_iv.(at) then
            cs.g_b.(at) <- cs.g_b.(at) + 1
      done

    type outcome = Empty | Emitted of int

    let push cs id msg sz =
      Vec.push cs.out_dsts id;
      Vec.push cs.out_msgs msg;
      Vec.push cs.out_sizes sz

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

    (* Group [at]'s verdict for its reporter of rank [rank]: the bottom
       half while the statuses inside it plus the rank still fit there,
       the top half otherwise. [tail] is the billed size of the depth
       and escalation fields. *)
    let group_verdict cs id at ~rank ~d1 ~pv ~tail =
      let giv = cs.g_iv.(at) in
      if cs.g_b.(at) + rank <= Interval.mid giv - giv.Interval.lo + 1 then begin
        (match cs.g_bot_msg.(at) with
        | Msg.Notify ->
            let iv = Interval.bot giv in
            cs.g_bot_msg.(at) <- Msg.Response { iv; d = d1; p = pv };
            cs.g_bot_bits.(at) <-
              2 + gamma iv.Interval.lo + gamma (Interval.size iv - 1) + tail
        | Msg.Status _ | Msg.Response _ -> ());
        push cs id cs.g_bot_msg.(at) cs.g_bot_bits.(at)
      end
      else begin
        (match cs.g_top_msg.(at) with
        | Msg.Notify ->
            let iv = Interval.top giv in
            cs.g_top_msg.(at) <- Msg.Response { iv; d = d1; p = pv };
            cs.g_top_bits.(at) <-
              2 + gamma iv.Interval.lo + gamma (Interval.size iv - 1) + tail
        | Msg.Status _ | Msg.Response _ -> ());
        push cs id cs.g_top_msg.(at) cs.g_top_bits.(at)
      end

    (* Absorb one status round straight off the inbox view — the view is
       already the round's struct-of-arrays decode — rebuild the group
       index, and fill the sized outbox buffers with the verdicts, in
       inbox (= ascending slot) order. *)
    let absorb_and_emit cs (st : state) inbox =
      let m = ref 0 and last = ref (-1) in
      let d_min = ref max_int and p_max = ref (-1) in
      Net.Inbox.iter inbox ~f:(fun ~src msg ->
          match msg with
          | Msg.Notify | Msg.Response _ -> ()
          | Msg.Status { id; iv; d; p } ->
              if id <> src then violated "status id differs from its source";
              if d < 0 || d >= depth_cap || p < 0 || p >= depth_cap then
                violated "depth or escalation level out of range";
              let ids = cs.sorted_ids in
              let k = ref (max 0 !last) in
              while !k < cs.cn && Array.unsafe_get ids !k < src do
                incr k
              done;
              if !k >= cs.cn || Array.unsafe_get ids !k <> src then
                violated "source unknown or not ascending";
              let i = !k in
              if i = !last then violated "source reports twice";
              last := i;
              cs.r_slot.(!m) <- i;
              incr m;
              let lo = iv.Interval.lo and hi = iv.Interval.hi in
              (* gamma sizes are recomputed only for changed fields *)
              if cs.s_lo.(i) <> lo || cs.s_hi.(i) <> hi then begin
                cs.s_lo.(i) <- lo;
                cs.s_hi.(i) <- hi;
                cs.s_iv.(i) <- iv;
                cs.s_ivb.(i) <- gamma lo + gamma (hi - lo)
              end;
              if cs.s_d.(i) <> d then begin
                cs.s_d.(i) <- d;
                cs.s_db.(i) <- gamma d
              end;
              if d < !d_min then d_min := d;
              if p > !p_max then p_max := p);
      let m = !m and d_min = !d_min in
      if m = 0 then Empty
      else begin
        if !p_max > st.pv then st.pv <- !p_max;
        build_groups cs m d_min;
        fill cs m;
        (* emission: one verdict per reporter, ascending — group
           verdicts are interned (one canonical message per (group,
           outcome), shared by every recipient), singletons and echoes
           reuse last round's message when the payload is unchanged, and
           precomputed size components make billing pure table lookups *)
        Vec.clear cs.out_dsts;
        Vec.clear cs.out_msgs;
        Vec.clear cs.out_sizes;
        let pv = st.pv in
        let pvb = gamma pv in
        let d1 = d_min + 1 in
        let d1b = gamma d1 in
        for k = 0 to m - 1 do
          let i = Array.unsafe_get cs.r_slot k in
          let id = Array.unsafe_get cs.sorted_ids i in
          let d = cs.s_d.(i) and at = cs.s_grp.(i) in
          let rank =
            if at < 0 then 0
            else begin
              let r = cs.g_rank.(at) + 1 in
              cs.g_rank.(at) <- r;
              r
            end
          in
          if d <> d_min then
            push cs id
              (cached_verdict cs i ~iv:cs.s_iv.(i) ~d ~p:pv)
              (2 + cs.s_ivb.(i) + cs.s_db.(i) + pvb)
          else if at < 0 then
            (* every minimum-depth non-singleton defines a group, so this
               is a minimum-depth singleton *)
            push cs id
              (cached_verdict cs i ~iv:cs.s_iv.(i) ~d:d1 ~p:pv)
              (2 + cs.s_ivb.(i) + d1b + pvb)
          else group_verdict cs id at ~rank ~d1 ~pv ~tail:(d1b + pvb)
        done;
        Emitted m
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
       nodes never serve. Persists across phases, so its columns and
       verdict caches are reused. *)
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
    type committee = Committee.t

    (* One committee member driven through fabricated round inboxes;
       after each absorb, [f] gets the member state and its outcome. *)
    let drive ~pv ~ids rounds f =
      let st = { iv = Interval.full 1; dv = 0; pv; elected = true } in
      let cs = Committee.create ~ids in
      let out =
        List.map
          (fun pairs ->
            let inbox = Net.Inbox.of_pairs_unchecked ~dst:0 pairs in
            f cs (Committee.absorb_and_emit cs st inbox))
          rounds
      in
      (out, st.pv)

    let committee_verdicts ~pv ~ids rounds =
      fst
        (drive ~pv ~ids rounds (fun cs -> function
           | Committee.Empty -> []
           | Committee.Emitted len ->
               List.init len (fun k ->
                   ( Committee.Vec.get cs.Committee.out_dsts k,
                     Committee.Vec.get cs.Committee.out_msgs k,
                     Committee.Vec.get cs.Committee.out_sizes k ))))

    let state_pv ~pv ~ids rounds =
      snd (drive ~pv ~ids rounds (fun _ _ -> ()))

    let footprint ~ids rounds last =
      let st = { iv = Interval.full 1; dv = 0; pv = 0; elected = true } in
      let cs = Committee.create ~ids in
      List.iter
        (fun pairs ->
          ignore
            (Committee.absorb_and_emit cs st
               (Net.Inbox.of_pairs_unchecked ~dst:0 pairs)))
        rounds;
      let inbox = Net.Inbox.of_pairs_unchecked ~dst:0 last in
      let w0 = Gc.minor_words () in
      ignore (Committee.absorb_and_emit cs st inbox);
      let words = Gc.minor_words () -. w0 in
      (words, cs)
  end
end

module Node = Make_node (Net)

let program = Node.program

module For_tests = Node.For_tests

let run ?(params = experiment_params) ?telemetry ?crash ?trace ?seed ?shards
    ~ids () =
  (* Telemetry hooks aggregate across nodes from inside the fibers
     (documented contract), so a telemetry run must stay sequential. *)
  let shards = if Option.is_some telemetry then Some 1 else shards in
  let res =
    Net.run ~ids ?crash ?tap:(Option.map Trace.tap trace)
      ?on_crash:(Option.map Trace.on_crash trace)
      ?on_decide:(Option.map Trace.on_decide trace)
      ?on_round_end:(Option.map Trace.on_round_end trace)
      ?seed ?shards
      ~program:(Node.program ?telemetry params)
      ()
  in
  Option.iter (fun t -> Trace.finish t res.Repro_sim.Engine.metrics) trace;
  res
