module type MSG = sig
  type t

  val bits : t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (M : MSG) = struct
  type msg = M.t

  (* The protocol-facing inbox: an allocation-free view over two
     src-sorted streams a backend refills every round.

     - The {e dedicated} stream ([d_*]) holds messages delivered
       specifically to this node: unicasts, multisends, byzantine
       traffic and a mid-send victim's surviving share of a broadcast.
       The parallel arrays belong to this view and are reused across
       rounds.
     - The {e shared} stream ([s_*]) aliases one round-global pair of
       arrays holding this round's broadcasts (one entry per
       broadcasting sender, not per recipient — the O(n²) → O(n)
       saving). Every live recipient's view points at the same arrays;
       only the per-view length differs from zero.

     Both streams are filled in ascending sender-identity order and a
     sender's whole outbox lands in exactly one stream, so a two-stream
     merge yields ascending-src order. The view is only valid until the
     node's next exchange: the backend rewinds and refills the arrays
     each round. *)
  type inbox = {
    ib_dst : int;
    mutable d_src : int array;
    mutable d_msg : M.t array;
    mutable d_len : int;
    mutable s_src : int array;
    mutable s_msg : M.t array;
    mutable s_len : int;
  }

  let empty_view ib_dst =
    {
      ib_dst;
      d_src = [||];
      d_msg = [||];
      d_len = 0;
      s_src = [||];
      s_msg = [||];
      s_len = 0;
    }

  (* Append to a view's dedicated stream, growing it on demand. *)
  let push v src msg =
    let len = v.d_len in
    if len = Array.length v.d_src then begin
      let cap = max 16 (2 * len) in
      let nsrc = Array.make cap 0 in
      Array.blit v.d_src 0 nsrc 0 len;
      v.d_src <- nsrc;
      let nmsg = Array.make cap msg in
      Array.blit v.d_msg 0 nmsg 0 len;
      v.d_msg <- nmsg
    end;
    v.d_src.(len) <- src;
    v.d_msg.(len) <- msg;
    v.d_len <- len + 1

  module Inbox = struct
    type t = inbox

    let length t = t.d_len + t.s_len

    (* Rounds are usually single-stream — all-unicast/multisend rounds
       have no shared entries, all-broadcast rounds no dedicated ones —
       so the merge loop is bypassed with tight array sweeps in those
       cases.  Indices stay below [d_len]/[s_len], which backends keep
       within the arrays' lengths. *)
    let iter t ~f =
      if t.s_len = 0 then
        for i = 0 to t.d_len - 1 do
          f ~src:(Array.unsafe_get t.d_src i) (Array.unsafe_get t.d_msg i)
        done
      else if t.d_len = 0 then
        for j = 0 to t.s_len - 1 do
          f ~src:(Array.unsafe_get t.s_src j) (Array.unsafe_get t.s_msg j)
        done
      else begin
        let i = ref 0 and j = ref 0 in
        while !i < t.d_len || !j < t.s_len do
          if
            !j >= t.s_len
            || (!i < t.d_len && t.d_src.(!i) <= t.s_src.(!j))
          then begin
            f ~src:t.d_src.(!i) t.d_msg.(!i);
            incr i
          end
          else begin
            f ~src:t.s_src.(!j) t.s_msg.(!j);
            incr j
          end
        done
      end

    let fold t ~init ~f =
      if t.s_len = 0 then begin
        let acc = ref init in
        for i = 0 to t.d_len - 1 do
          acc :=
            f !acc ~src:(Array.unsafe_get t.d_src i)
              (Array.unsafe_get t.d_msg i)
        done;
        !acc
      end
      else if t.d_len = 0 then begin
        let acc = ref init in
        for j = 0 to t.s_len - 1 do
          acc :=
            f !acc ~src:(Array.unsafe_get t.s_src j)
              (Array.unsafe_get t.s_msg j)
        done;
        !acc
      end
      else begin
        let acc = ref init in
        let i = ref 0 and j = ref 0 in
        while !i < t.d_len || !j < t.s_len do
          if
            !j >= t.s_len
            || (!i < t.d_len && t.d_src.(!i) <= t.s_src.(!j))
          then begin
            acc := f !acc ~src:t.d_src.(!i) t.d_msg.(!i);
            incr i
          end
          else begin
            acc := f !acc ~src:t.s_src.(!j) t.s_msg.(!j);
            incr j
          end
        done;
        !acc
      end

    (* Exactly [fold] run right-to-left: descending source order, the
       shared stream first on (impossible in practice) source ties.
       Building a list with [fun acc ... -> x :: acc] therefore yields
       inbox order directly, without the [List.rev] copy a forward fold
       would need. *)
    let fold_rev t ~init ~f =
      if t.s_len = 0 then begin
        let acc = ref init in
        for i = t.d_len - 1 downto 0 do
          acc :=
            f !acc ~src:(Array.unsafe_get t.d_src i)
              (Array.unsafe_get t.d_msg i)
        done;
        !acc
      end
      else if t.d_len = 0 then begin
        let acc = ref init in
        for j = t.s_len - 1 downto 0 do
          acc :=
            f !acc ~src:(Array.unsafe_get t.s_src j)
              (Array.unsafe_get t.s_msg j)
        done;
        !acc
      end
      else begin
        let acc = ref init in
        let i = ref (t.d_len - 1) and j = ref (t.s_len - 1) in
        while !i >= 0 || !j >= 0 do
          if !j < 0 || (!i >= 0 && t.d_src.(!i) > t.s_src.(!j)) then begin
            acc := f !acc ~src:t.d_src.(!i) t.d_msg.(!i);
            decr i
          end
          else begin
            acc := f !acc ~src:t.s_src.(!j) t.s_msg.(!j);
            decr j
          end
        done;
        !acc
      end

    let pairs t =
      fold_rev t ~init:[] ~f:(fun acc ~src msg -> (src, msg) :: acc)

    (* Test seam: fabricate a free-standing inbox view from explicit
       [(src, msg)] pairs, bypassing the backend (and its ascending-src
       delivery invariant — "unchecked"). Lets fixture tests drive
       inbox consumers with malformed traffic no honest run produces. *)
    let of_pairs_unchecked ~dst pairs =
      {
        (empty_view dst) with
        d_src = Array.of_list (List.map fst pairs);
        d_msg = Array.of_list (List.map snd pairs);
        d_len = List.length pairs;
      }
  end

  (* One sender's traffic for the round: entries [\[0, len)] of [dst], in
     emission order, each carrying [msg.(j)] of [size.(j)] bits — or,
     with [fan] set, all carrying the single [msg.(0)] of [size.(0)]
     bits. A broadcast is a [fan] over the [ids] array with [bcast] set.
     An empty outbox has [len = 0] and both flags clear. [fan] keeps a
     multisend's retained buffers at one word per destination.

     A node stages its outbox here itself, inside its exchange-class
     call and before it yields, so the hand-off carries no payload; the
     backend reads the slot while the node is suspended.

     [dst]/[msg]/[size] normally point at the slot's [own_*] buffers,
     retained while the node runs. An [exchange_sized] batch aliases the
     sender's arrays instead: a suspended sender cannot touch them. A
     broadcast aliases [ids]. Entries are written only after [use_own]
     has pointed [dst]/[msg]/[size] back at [own_*].

     [memo]/[memo_bits] are a payload→bits memo of at most one message,
     hit by physical equality: a broadcast or multisend repeats one
     physical message value. It is per slot rather than a payload-keyed
     table, so there is no structural hashing (lint D3) and no top-level
     state (D4): the memo lives and dies with the run. *)
  type out = {
    mutable dst : int array;
    mutable msg : M.t array;
    mutable size : int array;
    mutable len : int;
    mutable fan : bool;
    mutable bcast : bool;
    mutable own_dst : int array;
    mutable own_msg : M.t array;
    mutable own_size : int array;
    mutable memo : M.t array;
    mutable memo_bits : int;
  }

  let empty_out () =
    {
      dst = [||];
      msg = [||];
      size = [||];
      len = 0;
      fan = false;
      bcast = false;
      own_dst = [||];
      own_msg = [||];
      own_size = [||];
      memo = [||];
      memo_bits = 0;
    }

  let empty_outs n = Array.init n (fun _ -> empty_out ())

  let bits_of o m =
    let memo = o.memo in
    if Array.length memo > 0 && memo.(0) == m then o.memo_bits
    else begin
      let b = M.bits m in
      if Array.length memo = 0 then o.memo <- [| m |] else memo.(0) <- m;
      o.memo_bits <- b;
      b
    end

  (* Point [o] at its own buffers, grown to at least [cap] destinations
     and [cap_msg] messages ([m] fills fresh message slots). Growth drops
     the old contents; callers read what they still need beforehand. *)
  let use_own o cap cap_msg m =
    if Array.length o.own_dst < cap then
      o.own_dst <- Array.make (max cap (2 * Array.length o.own_dst)) 0;
    if Array.length o.own_msg < cap_msg then begin
      let c = max cap_msg (2 * Array.length o.own_msg) in
      o.own_msg <- Array.make c m;
      o.own_size <- Array.make c 0
    end;
    o.dst <- o.own_dst;
    o.msg <- o.own_msg;
    o.size <- o.own_size

  (* One message for every destination: [msg.(0)] of [b] bits. *)
  let set_fan o m b =
    o.msg.(0) <- m;
    o.size.(0) <- b;
    o.fan <- true

  (* List-to-buffer fills as plain recursion: a [List.iter] closure
     would capture the per-sender message and allocate on every sender
     of every round. *)
  let rec fill_dsts o j = function
    | [] -> o.len <- j
    | d :: tl ->
        o.dst.(j) <- d;
        fill_dsts o (j + 1) tl

  (* An unicast outbox usually repeats one physical message (a status
     fanned to the committee): size the first once, re-size only
     messages that differ from it. *)
  let rec fill_unicast o m0 b0 j = function
    | [] -> o.len <- j
    | (d, m) :: tl ->
        o.dst.(j) <- d;
        o.msg.(j) <- m;
        o.size.(j) <- (if m == m0 then b0 else M.bits m);
        fill_unicast o m0 b0 (j + 1) tl

  (* A slot that will never send again gives its buffers back. *)
  let release o =
    o.dst <- [||];
    o.own_dst <- [||];
    o.msg <- [||];
    o.own_msg <- [||];
    o.size <- [||];
    o.own_size <- [||];
    o.memo <- [||]

  let rewind o =
    o.len <- 0;
    o.fan <- false;
    o.bcast <- false

  type ctx = {
    id : int;
    ids : int array;
    node_rng : Repro_util.Rng.t;
    current_round : int ref;
    out : out;  (* the node's slot, where it stages each outbox *)
  }

  let my_id ctx = ctx.id
  let n ctx = Array.length ctx.ids
  let all_ids ctx = ctx.ids
  let round ctx = !(ctx.current_round)
  let rng ctx = ctx.node_rng

  (* The round barrier. The outbox is already staged in the caller's
     slot, so the effect carries nothing. *)
  type _ Effect.t += Exchange : inbox Effect.t

  (* The slot arrives clean: [len = 0], both flags clear ([resume]
     rewinds it). *)
  let exchange ctx l =
    (match l with
    | [] -> ()
    | (_, m0) :: _ ->
        let o = ctx.out and len = List.length l in
        use_own o len len m0;
        fill_unicast o m0 (M.bits m0) 0 l);
    Effect.perform Exchange

  let multisend ctx ~dsts m =
    let o = ctx.out in
    use_own o (List.length dsts) 1 m;
    set_fan o m (bits_of o m);
    fill_dsts o 0 dsts;
    Effect.perform Exchange

  let broadcast ctx m =
    let o = ctx.out in
    use_own o 0 1 m;
    set_fan o m (bits_of o m);
    o.dst <- ctx.ids;
    o.len <- Array.length ctx.ids;
    o.bcast <- true;
    Effect.perform Exchange

  let skip_round _ctx = Effect.perform Exchange

  let exchange_sized ctx ~dsts ~msgs ~sizes ~len =
    if
      len < 0
      || len > Array.length dsts
      || len > Array.length msgs
      || len > Array.length sizes
    then invalid_arg "Node.exchange_sized: batch length out of bounds";
    let o = ctx.out in
    o.dst <- dsts;
    o.msg <- msgs;
    o.size <- sizes;
    o.len <- len;
    Effect.perform Exchange

  (* Per-node runtime state, indexed by slot. A [Running] node is
     suspended at a round barrier; its outbox already sits in the slot's
     {!out}. A fiber's run to its next barrier returns its new state
     directly: [Running] from the effect handler, [Finished] from the
     program's return. *)
  type 'r node_state =
    | Running of (inbox, 'r node_state) Effect.Deep.continuation
    | Finished of 'r
    | Dead of int
    | Byz_node

  (* The handler's answer to [Exchange]: it captures nothing, since the
     continuation is all a suspended node keeps, and is built once here
     because a [Some] built inside the handler is allocated per yield. *)
  let suspend :
      type r.
      ((inbox, r node_state) Effect.Deep.continuation -> r node_state) option
      =
    Some (fun k -> Running k)

  let start_fiber (type r) (program : ctx -> r) ctx : r node_state =
    Effect.Deep.match_with program ctx
      {
        retc = (fun r -> Finished r);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, r node_state) Effect.Deep.continuation -> r node_state)
               option ->
            match eff with Exchange -> suspend | _ -> None);
      }

  let resume o k view =
    rewind o;
    match Effect.Deep.continue k view with
    | Finished _ as st ->
        release o;
        st
    | st -> st
end
