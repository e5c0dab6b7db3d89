type 'r node_outcome =
  | Decided of 'r
  | Crashed of int
  | Byzantine
  | Unfinished

type 'r run_result = {
  outcomes : (int * 'r node_outcome) list;
  metrics : Metrics.t;
}

exception Max_rounds_exceeded of int

(* Minor-word attribution across the round loop's phases. [ap_deliver]
   counts the transmit phase (byzantine traffic, crash orders, metrics
   billing, inbox pushes); [ap_resume] the node resumes — i.e.
   everything the fibers do, protocol emission included (a node stages
   its own outbox before it yields); [ap_book] the engine's own round
   bookkeeping (view install/rewind, round-end hooks). Filled only when
   the run has one shard: with more, domains allocate from private
   minor heaps and a single counter would under-report. *)
type alloc_probe = {
  mutable ap_deliver : float;
  mutable ap_resume : float;
  mutable ap_book : float;
}

let alloc_probe () = { ap_deliver = 0.; ap_resume = 0.; ap_book = 0. }

module type MSG = Node.MSG
module Int_tbl = Hashtbl.Make (Int)

module Make (M : MSG) = struct
  (* The node side: inbox views, outbox slots, exchange-class calls and
     fibers. [type msg] makes the module satisfy
     [Repro_net.Network_intf.S] structurally (the functored protocol
     wrappers close over it). *)
  include Node.Make (M)

  type envelope = { src : int; dst : int; msg : M.t }

  module Inbox = struct
    include Inbox

    let to_list t =
      fold_rev t ~init:[] ~f:(fun acc ~src msg ->
          { src; dst = t.ib_dst; msg } :: acc)
  end

  type observation = {
    obs_round : int;
    obs_alive : int list;
    obs_outboxes : (int * envelope list) list;
    obs_crashed : int list;
  }

  type crash_order = { victim : int; delivered : envelope -> bool }
  type crash_step = Orders of crash_order list | Final of crash_order list
  type crash_adversary = observation -> crash_step

  (* A strategy's sends for one call, entries [\[0, len)] in emission
     order. The strategy owns it and refills it on every call; the
     arrays grow on demand and are kept. *)
  module Sends = struct
    type t = {
      mutable dst : int array;
      mutable msg : M.t array;
      mutable len : int;
    }

    let create () = { dst = [||]; msg = [||]; len = 0 }
    let clear b = b.len <- 0

    let add b d m =
      let len = b.len in
      if len = Array.length b.dst then begin
        let cap = max 8 (2 * len) in
        let dst = Array.make cap 0 and msg = Array.make cap m in
        Array.blit b.dst 0 dst 0 len;
        Array.blit b.msg 0 msg 0 len;
        b.dst <- dst;
        b.msg <- msg
      end;
      b.dst.(len) <- d;
      b.msg.(len) <- m;
      b.len <- len + 1
  end

  type byz_strategy = byz_id:int -> round:int -> inbox:envelope list -> Sends.t

  let run ~ids ?byz ?crash ?tap ?alloc_probe ?on_crash ?on_decide
      ?on_round_end ?(max_rounds = 100_000) ?(seed = 1) ?shards ~program () =
    let n = Array.length ids in
    let shards =
      match shards with
      | Some s ->
          if s < 1 then invalid_arg "Engine.run: shards must be at least 1";
          s
      | None -> Repro_util.Domain_pool.available ~unset:1
    in
    (* Never more shards than recipient slots. One shard is the same
       loop through a 1-shard pool, which runs the phase inline: no
       domains, no locking. *)
    let pool_shards = Repro_util.Shard.count ~n ~shards in
    (* Slot indexing: one id → slot table built at start; all per-node
       state lives in arrays indexed by slot. *)
    let slot_index =
      Repro_util.Slot_index.create ids ~duplicate:(fun _ ->
          Invalid_argument "Engine.run: duplicate identities")
    in
    let find_slot id = Repro_util.Slot_index.find slot_index id in
    let byz_list, byz_strategy =
      match byz with
      | None -> ([], fun ~byz_id:_ ~round:_ ~inbox:_ -> Sends.create ())
      | Some (bs, strat) ->
          List.iter
            (fun b ->
              if find_slot b < 0 then
                invalid_arg "Engine.run: byzantine id not a participant")
            bs;
          (List.sort_uniq Int.compare bs, strat)
    in
    let is_byz = Array.make n false in
    List.iter (fun b -> is_byz.(find_slot b) <- true) byz_list;
    (* Byzantine slots in ascending identity order: strategies may share
       an rng across nodes, so the invocation order is part of the
       deterministic contract. *)
    let byz_slots = Array.of_list (List.map find_slot byz_list) in
    let metrics = Metrics.create () in
    (* Observability hooks, resolved once so the hookless hot path pays a
       single physical-equality-style branch per event. All three fire in
       deterministic order (crashes before delivery, decides in slot
       order after the resumes, the round boundary last). *)
    let note_crash =
      match on_crash with
      | Some f -> fun ~round id -> f ~round ~id
      | None -> fun ~round:_ _ -> ()
    in
    let note_decide =
      match on_decide with
      | Some f -> fun ~round id -> f ~round ~id
      | None -> fun ~round:_ _ -> ()
    in
    let note_round_end =
      match on_round_end with
      | Some f -> fun ~round -> f ~round metrics
      | None -> fun ~round:_ -> ()
    in
    (* Each slot's {!out}, payload→bits memo included. A slot is only
       touched by the shard owning it (its fiber stages there while the
       shard resumes it), or by the main domain between parallel
       phases. *)
    let outs = empty_outs n in
    let master_rng = Repro_util.Rng.of_seed seed in
    let current_round = ref 0 in
    let running_count = ref 0 in
    (* Start every honest fiber; each runs up to its first round barrier.
       Identities are processed in array order so each node's private rng
       stream depends only on ([ids], [seed]). *)
    let states : 'r node_state array = Array.make n Byz_node in
    for s = 0 to n - 1 do
      if not is_byz.(s) then begin
        let ctx =
          {
            id = ids.(s);
            ids;
            node_rng = Repro_util.Rng.split master_rng;
            current_round;
            out = outs.(s);
          }
        in
        let st = start_fiber program ctx in
        states.(s) <- st;
        match st with
        | Finished _ ->
            (* Decided without ever exchanging: attributed to round 0,
               the round about to execute. *)
            note_decide ~round:0 ids.(s)
        | Running _ | Dead _ | Byz_node -> incr running_count
      end
    done;
    (* Delivery iterates senders in ascending identity order, so each
       recipient's streams accumulate already grouped and sorted by
       source id — no per-recipient sort. *)
    let order = Array.init n (fun s -> s) in
    Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
    (* One inbox view per slot, created once and refilled every round. *)
    let views = Array.map empty_view ids in
    (* The round's shared broadcast table, kept as the dedicated stream
       of a view of its own: one entry per broadcasting sender, in
       ascending id order. Built sequentially on the main domain before
       the transmit phase and aliased by every live view's shared stream;
       the pool's phase barrier publishes main's writes, and main only
       mutates the table between pool phases. *)
    let table = empty_view (-1) in
    let build_broadcast_table () =
      table.d_len <- 0;
      for i = 0 to n - 1 do
        let s = order.(i) in
        let o = outs.(s) in
        if o.bcast then push table ids.(s) o.msg.(0)
      done
    in
    let byz_prev_inbox : envelope list array = Array.make n [] in
    (* Byzantine traffic, settled on main: every entry of the
       strategy's buffer is billed (as Byzantine) in emission order, and
       misaddressed ones are dropped and counted here, so the slot's
       {!out} holds only deliverable entries. The copy is done before
       the next strategy call, which may refill the same buffer. *)
    let emit_byz s =
      let b =
        byz_strategy ~byz_id:ids.(s) ~round:!current_round
          ~inbox:byz_prev_inbox.(s)
      in
      let len = b.Sends.len in
      if len > 0 then begin
        let o = outs.(s) and bdst = b.Sends.dst and bmsg = b.Sends.msg in
        use_own o len len bmsg.(0);
        let j = ref 0 in
        for i = 0 to len - 1 do
          let dst = bdst.(i) and msg = bmsg.(i) in
          let bits = bits_of o msg in
          Metrics.add_byz metrics ~bits;
          if find_slot dst < 0 then Metrics.record_byz_misaddressed metrics
          else begin
            o.dst.(!j) <- dst;
            o.msg.(!j) <- msg;
            o.size.(!j) <- bits;
            incr j
          end
        done;
        o.len <- !j
      end
    in
    let bad_dst src dst =
      invalid_arg
        (Printf.sprintf
           "Engine.exchange: node %d sent to %d, not a participant" src dst)
    in
    (* The crash adversary's observation materializes each running
       node's outbox from its {!out}. *)
    let materialize s =
      let o = outs.(s) and src = ids.(s) in
      List.init o.len (fun j ->
          { src; dst = o.dst.(j); msg = o.msg.(if o.fan then 0 else j) })
    in
    (* A mid-send victim's filter, applied once per envelope of its
       materialized outbox in emission order, compacts the slot's entries
       into its own buffers ([envs] lines up positionally with them). A
       broadcast victim leaves the shared table: its surviving subset is
       a plain [fan], whose [msg.(0)]/[size.(0)] are already own. *)
    let compact s keep envs =
      let o = outs.(s) in
      match envs with
      | [] -> o.len <- 0
      | (e0 : envelope) :: _ ->
          let size = o.size and fan = o.fan and len = List.length envs in
          use_own o len (if fan then 1 else len) e0.msg;
          o.bcast <- false;
          let w = ref 0 in
          List.iteri
            (fun j (e : envelope) ->
              if keep e then begin
                o.dst.(!w) <- e.dst;
                if not fan then begin
                  o.msg.(!w) <- e.msg;
                  o.size.(!w) <- size.(j)
                end;
                incr w
              end)
            envs;
          o.len <- !w
    in
    let pre_envs : envelope list array = Array.make n [] in
    (* Let the crash adversary observe and act; true when its step was
       [Final]. Victims' filters then run once, on main, in ascending
       sender order — they may be stateful ([Crash.random] draws a coin
       per envelope), so they must never run per shard. *)
    let apply_crash_orders round_no crash =
      let filters = Array.make n None in
      let collect f =
        let acc = ref [] in
        for s = n - 1 downto 0 do
          match f s with Some x -> acc := x :: !acc | None -> ()
        done;
        !acc
      in
      let observation =
        {
          obs_round = round_no;
          obs_alive =
            collect (fun s ->
                match states.(s) with Running _ -> Some ids.(s) | _ -> None);
          obs_outboxes =
            collect (fun s ->
                match states.(s) with
                | Running _ ->
                    let envs = materialize s in
                    pre_envs.(s) <- envs;
                    Some (ids.(s), envs)
                | _ -> None);
          obs_crashed =
            collect (fun s ->
                match states.(s) with Dead _ -> Some ids.(s) | _ -> None);
        }
      in
      (* First order per victim wins; orders against dead or unknown
         nodes are ignored. A running victim's suspended outbox still
         goes out through its filter; a finished one has none. *)
      let kill s victim delivered =
        filters.(s) <- Some delivered;
        states.(s) <- Dead round_no;
        Metrics.record_crash metrics;
        note_crash ~round:round_no victim
      in
      let step = crash observation in
      let (Orders orders | Final orders) = step in
      List.iter
        (fun { victim; delivered } ->
          let s = find_slot victim in
          if s >= 0 && filters.(s) = None then
            match states.(s) with
            | Running _ ->
                decr running_count;
                kill s victim delivered
            | Finished _ -> kill s victim delivered
            | Dead _ | Byz_node -> ())
        orders;
      Array.iter
        (fun s ->
          match filters.(s) with
          | Some keep -> compact s keep pre_envs.(s)
          | None -> ())
        order;
      Array.fill pre_envs 0 n [];
      match step with Final _ -> true | Orders _ -> false
    in
    (* Wire tap: every message handed to the network this round (post
       crash filter), including those addressed to finished or crashed
       recipients — exactly the messages {!Metrics} counts for honest
       senders, each with the size it is billed. The contract fixes a
       global order (ascending sender id, emission order within a
       sender) no shard-local pass can reproduce, so the tap runs as one
       pass on main before delivery; it validates destinations in that
       same order. *)
    let tap_round f =
      let round = !current_round in
      for i = 0 to n - 1 do
        let s = order.(i) in
        let o = outs.(s) and src = ids.(s) in
        for j = 0 to o.len - 1 do
          let dst = o.dst.(j) and k = if o.fan then 0 else j in
          if find_slot dst < 0 then bad_dst src dst;
          f ~round ~src ~dst ~bits:o.size.(k) o.msg.(k)
        done
      done
    in
    let ranges =
      Array.init pool_shards (fun k ->
          Repro_util.Shard.range ~n ~shards:pool_shards k)
    in
    let bill_msgs = Array.make pool_shards 0 in
    let bill_bits = Array.make pool_shards 0 in
    (* Transmit, one pass per shard: walk every sender in ascending id
       order; bill the honest senders the shard owns (sums of [size],
       merged on main in shard order — sums commute, so totals and
       per-round rows do not depend on the shard count); push only into
       recipient slots the shard owns, so each inbox is filled by exactly
       one domain, sorted by construction. Every shard resolves every
       destination, so a non-participant raises from every shard at the
       same first offending sender, and the pool's lowest-index re-raise
       is deterministic. Broadcasts are already in the shared table. *)
    let transmit k =
      let lo, hi = ranges.(k) in
      let msgs = ref 0 and bits = ref 0 in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get order i in
        let o = outs.(s) in
        let len = o.len and fan = o.fan and size = o.size in
        if s >= lo && s < hi && not is_byz.(s) then begin
          msgs := !msgs + len;
          if fan then bits := !bits + (len * size.(0))
          else
            for j = 0 to len - 1 do
              bits := !bits + Array.unsafe_get size j
            done
        end;
        if not o.bcast then begin
          let src = ids.(s) and dst = o.dst and msg = o.msg in
          for j = 0 to len - 1 do
            let dst_id = Array.unsafe_get dst j in
            let d = find_slot dst_id in
            if d < 0 then bad_dst src dst_id
            else if d >= lo && d < hi then
              match states.(d) with
              | Running _ | Byz_node ->
                  push views.(d) src
                    (Array.unsafe_get msg (if fan then 0 else j))
              | Finished _ | Dead _ -> ()
          done
        end
      done;
      bill_msgs.(k) <- !msgs;
      bill_bits.(k) <- !bits
    in
    (* Minor-word phase attribution (see {!alloc_probe}), only with one
       shard: domains allocate from private minor heaps, and a single
       counter would under-report. [marks] holds the round's readings:
       start, after transmit, before and after the resumes. *)
    let probing = alloc_probe <> None && pool_shards = 1 in
    let marks = Array.make 4 0. in
    (* Slots that decided this round: shard [k] writes its in ascending
       slot order into [dec_slots.(lo_k ..)] and the count into
       [dec_count.(k)]. *)
    let dec_slots = Array.make n 0 in
    let dec_count = Array.make pool_shards 0 in
    (* Install the round's broadcast table into the shard's live views,
       hand Byzantine slots their inboxes as envelope lists (one of the
       two sanctioned materialization points), then resume the shard's
       fibers; each stages its next outbox in its slot before yielding.
       A fiber is pinned to the shard owning its slot, so node-local
       mutable protocol state, and the slot it stages into, stay
       domain-local. [step] is the resume rule the socket host shares:
       a node in [wait_for_mail] whose view is empty stays suspended,
       its slot still clean. Decisions are collected per shard;
       [on_decide] fires on main. *)
    let resume_shard k =
      let lo, hi = ranges.(k) in
      for s = lo to hi - 1 do
        match states.(s) with
        | Running _ | Byz_node ->
            let v = views.(s) in
            v.s_src <- table.d_src;
            v.s_msg <- table.d_msg;
            v.s_len <- table.d_len
        | Finished _ | Dead _ -> ()
      done;
      for s = lo to hi - 1 do
        if is_byz.(s) then byz_prev_inbox.(s) <- Inbox.to_list views.(s)
      done;
      if probing then marks.(2) <- Gc.minor_words ();
      let dec = ref lo in
      for s = lo to hi - 1 do
        if step states outs views s then begin
          dec_slots.(!dec) <- s;
          incr dec
        end
      done;
      if probing then marks.(3) <- Gc.minor_words ();
      (* Rewind the views for the next round's fill: a view is only
         valid during the resume above. *)
      for s = lo to hi - 1 do
        let v = views.(s) in
        v.d_len <- 0;
        v.s_len <- 0
      done;
      dec_count.(k) <- !dec - lo
    in
    (* The attached crash adversary, until it returns [Final]. *)
    let adversary = ref crash in
    let rec rounds pool =
      if !running_count = 0 then ()
      else if !current_round >= max_rounds then
        raise (Max_rounds_exceeded max_rounds)
      else begin
        let round_no = !current_round in
        if probing then marks.(0) <- Gc.minor_words ();
        (* 1. Byzantine traffic for this round, from last round's
           inboxes (each Byzantine inbox is built exactly once). *)
        Array.iter emit_byz byz_slots;
        (* 2. Crash orders for this round. An adversary that returns
           [Final] is dropped: later rounds build no observation, as in a
           run without one. *)
        (match !adversary with
        | Some crash when apply_crash_orders round_no crash -> adversary := None
        | Some _ | None -> ());
        (* 3. Transmit: tap, shared table, per-shard billing and
           delivery. *)
        Option.iter tap_round tap;
        build_broadcast_table ();
        Repro_util.Domain_pool.run pool transmit;
        for k = 0 to pool_shards - 1 do
          Metrics.add_honest_bulk metrics ~msgs:bill_msgs.(k)
            ~bits:bill_bits.(k)
        done;
        if probing then marks.(1) <- Gc.minor_words ();
        Metrics.end_round metrics;
        incr current_round;
        (* 4. Resume. The inbox of [round_no] is what let a node decide,
           so the decision belongs to that round even though
           [current_round] already moved on. *)
        Repro_util.Domain_pool.run pool resume_shard;
        for k = 0 to pool_shards - 1 do
          let lo, _ = ranges.(k) in
          for i = lo to lo + dec_count.(k) - 1 do
            decr running_count;
            note_decide ~round:round_no ids.(dec_slots.(i))
          done
        done;
        (* Round boundary: after the resumes, so decisions taken on this
           round's inboxes are already reported when the hook fires. The
           metrics row for [round_no] is closed at this point. *)
        note_round_end ~round:round_no;
        (match alloc_probe with
        | Some p when probing ->
            let w4 = Gc.minor_words () in
            p.ap_deliver <- p.ap_deliver +. (marks.(1) -. marks.(0));
            p.ap_resume <- p.ap_resume +. (marks.(3) -. marks.(2));
            p.ap_book <-
              p.ap_book +. (marks.(2) -. marks.(1)) +. (w4 -. marks.(3))
        | _ -> ());
        rounds pool
      end
    in
    Repro_util.Domain_pool.with_pool ~shards:pool_shards rounds;
    let outcomes =
      List.init n (fun s ->
          ( ids.(s),
            match states.(s) with
            | Finished r -> Decided r
            | Dead r -> Crashed r
            | Byz_node -> Byzantine
            | Running _ -> Unfinished ))
    in
    { outcomes; metrics }


  module Crash = struct
    let none : crash_adversary = fun _ -> Final []

    let deliver_all _ = true

    (* Each canned adversary retires with [Final] as soon as nothing it
       could still do is left: past the last round of its schedule, or
       with its budget spent. *)
    let step ~final orders = if final then Final orders else Orders orders

    (* A delivery decision must be a pure function of the envelope — the
       filter can be re-evaluated and replayed — so the [`Subset] case
       derives a coin from (salt, dst) with a splitmix-style mix rather
       than consuming any rng stream. *)
    let subset_keeps salt (e : envelope) =
      let z = (salt lxor (e.dst * 0x9E3779B9)) * 0x2545F4914F6CDD1D in
      let z = (z lxor (z lsr 27)) * 0x369DEA0F31A53F85 in
      (z lxor (z lsr 31)) land 1 = 0

    let scripted events : crash_adversary =
      let last =
        List.fold_left (fun m (round, _, _) -> max m round) (-1) events
      in
     fun obs ->
      step ~final:(obs.obs_round >= last)
        (List.filter_map
           (fun (round, victim, mode) ->
             if round <> obs.obs_round then None
             else
               let delivered =
                 match mode with
                 | `All -> deliver_all
                 | `Nothing -> fun _ -> false
                 | `Subset salt -> subset_keeps salt
               in
               Some { victim; delivered })
           events)

    let random ~rng ~f ?(horizon = 64) ?(mid_send_prob = 0.5) () :
        crash_adversary =
      (* Pre-draw f crash rounds uniformly over the horizon; victims are
         picked adaptively among still-alive nodes when each round
         arrives. The rng is drawn only in rounds with crashes due, so
         retiring after the last of them changes nothing. *)
      let schedule = Array.make (max horizon 1) 0 in
      for _ = 1 to f do
        let r = Repro_util.Rng.int rng (max horizon 1) in
        schedule.(r) <- schedule.(r) + 1
      done;
      let last = ref (-1) in
      Array.iteri (fun r due -> if due > 0 then last := r) schedule;
      let last = !last in
      fun obs ->
        let due =
          if obs.obs_round < Array.length schedule then
            schedule.(obs.obs_round)
          else 0
        in
        (* More crashes may fall due in a round than nodes remain alive;
           clamp so we never request more victims than candidates (the
           surplus is simply lost, as those nodes are already gone). *)
        let due = min due (List.length obs.obs_alive) in
        step ~final:(obs.obs_round >= last)
          (if due = 0 then []
           else
             let victims =
               Repro_util.Rng.sample_without_replacement rng due
                 (Array.of_list obs.obs_alive)
             in
             Array.to_list victims
             |> List.map (fun victim ->
                    let delivered =
                      if Repro_util.Rng.bernoulli rng mid_send_prob then
                        fun _ -> Repro_util.Rng.bool rng
                      else deliver_all
                    in
                    { victim; delivered }))

    let patient_killer ~budget () : crash_adversary =
      (* The message-maximising play: let every committee generation serve
         one full phase (so its traffic is paid), then kill each member at
         its next announcement with nothing delivered — the survivors see
         a silent committee, escalate p, and elect a bigger replacement.
         Cost to Eve: one crash per member; cost to the algorithm: a full
         phase of the escalated committee each time. *)
      let remaining = ref budget in
      let seen_announcing = Int_tbl.create 64 in
      fun obs ->
        if !remaining <= 0 then Final []
        else begin
          let alive_count = List.length obs.obs_alive in
          let broadcasters =
            List.filter_map
              (fun (src, envs) ->
                if List.length envs >= alive_count && alive_count > 1 then
                  Some src
                else None)
              obs.obs_outboxes
          in
          let victims =
            List.filter (fun src -> Int_tbl.mem seen_announcing src)
              broadcasters
          in
          List.iter
            (fun src -> Int_tbl.replace seen_announcing src ())
            broadcasters;
          let victims = List.filteri (fun i _ -> i < !remaining) victims in
          remaining := !remaining - List.length victims;
          step ~final:(!remaining <= 0)
            (List.map
               (fun victim -> { victim; delivered = (fun _ -> false) })
               victims)
        end

    let committee_killer ~rng ~budget ?(partial = false) () : crash_adversary =
      (* Eve's strongest play against the crash-resilient algorithm: any
         node that broadcasts to (almost) everyone has just revealed
         itself as a committee member; kill it on the spot, up to the
         crash budget. With [partial] the kill happens mid-send, so an
         adversary-chosen subset of the announcement still lands,
         splitting the survivors' views. *)
      let remaining = ref budget in
      fun obs ->
        if !remaining <= 0 then Final []
        else
          let alive_count = List.length obs.obs_alive in
          let broadcasters =
            List.filter_map
              (fun (src, envs) ->
                if List.length envs >= alive_count && alive_count > 1 then
                  Some src
                else None)
              obs.obs_outboxes
          in
          let victims =
            if List.length broadcasters <= !remaining then broadcasters
            else
              Array.to_list
                (Repro_util.Rng.sample_without_replacement rng !remaining
                   (Array.of_list broadcasters))
          in
          remaining := !remaining - List.length victims;
          step ~final:(!remaining <= 0)
            (List.map
               (fun victim ->
                 let delivered =
                   if partial then fun _ -> Repro_util.Rng.bool rng
                   else deliver_all
                 in
                 { victim; delivered })
               victims)
  end
end
