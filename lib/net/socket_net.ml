module Wire = Repro_sim.Wire
module Metrics = Repro_sim.Metrics
module Rng = Repro_util.Rng
open Round_tables

(* Stream format version + endpoint check, first field of both handshake
   frames; bump when the frame layout changes. *)
let magic = 0x524e33

let proto_error fmt =
  Printf.ksprintf (fun s -> raise (Frame.Protocol_error s)) fmt

(* Embedded byte strings are length-prefixed; a length beyond the
   frame's remaining bits is malformed, and is rejected before the
   string is allocated. *)
module Codec = struct
  let add_bytes w s =
    Wire.Writer.add_gamma w (String.length s);
    Wire.Writer.add_string w s

  let read_bytes r =
    let len = Wire.Reader.read_gamma r in
    if len > Wire.Reader.bits_remaining r / 8 then
      proto_error "embedded byte string of %d bytes exceeds the frame" len;
    Wire.Reader.read_string r len
end

(* Count fields precede variable-size repetitions; each counted entry
   costs at least two bits of stream, so a count beyond the remaining
   bits is malformed — reject it before allocating for it. *)
let read_count r =
  let c = Wire.Reader.read_gamma r in
  if c > Wire.Reader.bits_remaining r then
    proto_error "count %d exceeds remaining frame bits" c;
  c

(* Round frames (every field Elias-gamma; a payload is its bit length,
   then its bits zero-padded to whole bytes, [idx] indexes the same
   frame's payload table and [l] its destination-list table; a list is
   its length, then its destination slots in emission order, repeats
   kept):

   host -> coordinator
     round; T, T x payload;  L, L x list;
     per slot of the host's range:  0 idle | 1 v decided v
                                  | 2 l, c, c x idx batch: entry j of list
                                      l carries payload j (c = l's length)
                                  | 3 idx broadcast | 4 l, idx fan over l
   coordinator -> host
     round; stop; unless stop:
     T, T x payload;  B, B x (src, idx) the round's broadcasts;
     L, L x list: the round's lists, each restricted to the host's range;
     R, R x (src, 2, l, c, c x idx | src, 4, l, idx) one record per fan
       or batch sender whose list reaches the host

   Tables are content-interned, so each distinct payload and each
   distinct destination list crosses each link once per round, and a
   broadcast or a fan once per sender rather than once per recipient.
   Broadcast rows and records are in ascending sender identity. A reply
   names only the payloads its rows and records use, renumbered; its
   lists keep their round indices.

   Both sides build every round frame in a writer kept per link and read
   it into a buffer kept per link ([Frame.begin_framed] /
   [Frame.read_framed]), so a round allocates no frame-sized memory. No
   payload becomes a string on the way: the coordinator interns each one
   where it lies in the frame ([Payloads.read_entry]) and copies it into
   its reply from the table's arena. A host keeps a codec memo
   ([Memo]) per slot for each direction: it writes a message with
   [M.write] only when the slot's send memo does not hold it, copying
   the encoding into the memo's arena, and reads a reply payload with
   [M.read] in the frame only when the sender's receive memo does not
   hold the same bits at that record position. *)

type config = { ids : int array; seed : int; n_hosts : int; extra : string }

type result = { run : int Repro_sim.Engine.run_result }

(* {2 Coordinator} *)

type slot_status = S_running | S_decided of int | S_crashed of int

(* A slot's outbox for the round being routed, messages named by their
   index in the round's payload table and destinations by their index
   in the round's list table — the coordinator never decodes protocol
   payloads. Its fields live in per-slot int arrays — [ob_list], [ob_pay]
   and the bits it is billed, [ob_bits] — so parsing a frame allocates
   nothing. *)
type round_outbox = No_outbox | Ob_bcast | Ob_fan | Ob_batch

let ignore_sigpipe () =
  (* A peer dying between our read and write must surface as [EPIPE]
     on the write, not kill the process. No-op on systems without
     sigpipe. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Unix.Unix_error _ -> ()

let serve ~listen ~config ?(max_rounds = 100_000) ?on_message () =
  ignore_sigpipe ();
  let { ids; seed; n_hosts; extra } = config in
  let n = Array.length ids in
  if n = 0 then invalid_arg "Socket_net.serve: empty ids";
  if seed < 0 then invalid_arg "Socket_net.serve: negative seed";
  if n_hosts < 1 || n_hosts > n then invalid_arg "Socket_net.serve: n_hosts";
  let ranges =
    Array.init n_hosts (fun k -> Repro_util.Shard.range ~n ~shards:n_hosts k)
  in
  let owner = Array.make n 0 in
  Array.iteri (fun h (lo, hi) -> Array.fill owner lo (hi - lo) h) ranges;
  (* Accept + handshake: each host frames its index; ship the config. *)
  let pending : (Unix.file_descr * Frame.io) option array =
    Array.make n_hosts None
  in
  for _ = 1 to n_hosts do
    let fd, _addr = Unix.accept listen in
    let io = Frame.io_of_fd fd in
    let r = Wire.Reader.of_string (Frame.read_frame io) in
    if Wire.Reader.read_gamma r <> magic then
      proto_error "hello: bad magic (mismatched peer?)";
    let h = Wire.Reader.read_gamma r in
    if h >= n_hosts then proto_error "hello: host index %d out of range" h;
    if Option.is_some pending.(h) then
      proto_error "hello: duplicate host index %d" h;
    pending.(h) <- Some (fd, io)
  done;
  let fds = Array.map (fun p -> fst (Option.get p)) pending in
  let ios = Array.map (fun p -> snd (Option.get p)) pending in
  let cfg_frame =
    let w = Wire.Writer.create () in
    Wire.Writer.add_gamma w magic;
    Wire.Writer.add_gamma w n;
    Wire.Writer.add_gamma w n_hosts;
    Wire.Writer.add_gamma w seed;
    Array.iter (fun id -> Wire.Writer.add_gamma w id) ids;
    Codec.add_bytes w extra;
    Wire.Writer.contents w
  in
  Array.iter (fun io -> Frame.write_frame io cfg_frame) ios;
  (* Per-link frame memory, kept across rounds. *)
  let writers = Array.init n_hosts (fun _ -> Wire.Writer.create ()) in
  let inbufs = Array.init n_hosts (fun _ -> Frame.inbuf ()) in
  (* Round state. *)
  let status = Array.make n S_running in
  let outboxes = Array.make n No_outbox in
  let ob_list = Array.make n 0 and ob_pay = Array.make n 0 in
  let ob_bits = Array.make n 0 in
  (* The round's payload and list tables; [frame_gids]/[frame_lists] map
     the frame being parsed's table indices to the round's. A batch's
     payloads are [batch_gids] from [ob_pay.(s)] on, one per entry of
     its list. *)
  let table = Payloads.create () and lists = Lists.create () in
  let frame_gids = Ibuf.create () and frame_lists = Ibuf.create () in
  let list_buf = Ibuf.create () and batch_gids = Ibuf.create () in
  (* Routed: the round's broadcasts as (src, gid) pairs, and the senders
     of its fans and batches, both in ascending sender identity. *)
  let bcasts = Ibuf.create () and listed = Ibuf.create () in
  (* Each round list split by host range: host [h]'s share of list [l]
     is the positions [parts.(h)] from [part_starts.(h).(l)] to
     [part_starts.(h).(l + 1)], in list order. *)
  let parts = Array.init n_hosts (fun _ -> Ibuf.create ()) in
  let part_starts = Array.init n_hosts (fun _ -> Ibuf.create ()) in
  let alive = Array.make n_hosts true in
  let metrics = Metrics.create () in
  let current_round = ref 0 in
  (* Delivery iterates senders in ascending identity order, like the
     engine, so every recipient's inbox arrives sorted by source id. *)
  let order = Array.init n (fun s -> s) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let kill_host h =
    alive.(h) <- false;
    (try Unix.close fds.(h) with Unix.Unix_error _ -> ());
    let lo, hi = ranges.(h) in
    for s = lo to hi - 1 do
      match status.(s) with
      | S_running ->
          status.(s) <- S_crashed !current_round;
          Metrics.record_crash metrics;
          outboxes.(s) <- No_outbox
      | S_decided _ | S_crashed _ -> ()
    done
  in
  let parse_host_frame h r =
    let lo, hi = ranges.(h) in
    let round = Wire.Reader.read_gamma r in
    if round <> !current_round then
      proto_error "host %d is at round %d, coordinator at %d" h round
        !current_round;
    let t = read_count r in
    Ibuf.clear frame_gids;
    for _ = 1 to t do
      Ibuf.push frame_gids (Payloads.read_entry r table)
    done;
    let nl = read_count r in
    Ibuf.clear frame_lists;
    for _ = 1 to nl do
      let len = read_count r in
      Ibuf.clear list_buf;
      for _ = 1 to len do
        let dst = Wire.Reader.read_gamma r in
        if dst >= n then proto_error "host %d: destination slot %d" h dst;
        Ibuf.push list_buf dst
      done;
      Ibuf.push frame_lists (Lists.intern lists list_buf.a len)
    done;
    let read_gid () =
      let i = Wire.Reader.read_gamma r in
      if i >= t then proto_error "host %d: payload index %d of %d" h i t;
      frame_gids.a.(i)
    in
    let read_list s =
      let i = Wire.Reader.read_gamma r in
      if i >= nl then proto_error "host %d: list index %d of %d" h i nl;
      ob_list.(s) <- frame_lists.a.(i)
    in
    for s = lo to hi - 1 do
      match Wire.Reader.read_gamma r with
      | 0 ->
          (match status.(s) with
          | S_running -> proto_error "host %d: running slot %d sent no outbox" h s
          | S_decided _ | S_crashed _ -> ());
          outboxes.(s) <- No_outbox
      | 1 ->
          let v = Wire.Reader.read_gamma r in
          (match status.(s) with
          | S_running -> status.(s) <- S_decided v
          | S_decided _ | S_crashed _ ->
              proto_error "host %d: decision for non-running slot %d" h s);
          outboxes.(s) <- No_outbox
      | 2 ->
          read_list s;
          let c = read_count r and len = Lists.length_of lists ob_list.(s) in
          if c <> len then
            proto_error "host %d: batch of %d payloads over a list of %d" h c
              len;
          ob_pay.(s) <- batch_gids.len;
          ob_bits.(s) <- 0;
          for _ = 1 to c do
            let g = read_gid () in
            Ibuf.push batch_gids g;
            ob_bits.(s) <- ob_bits.(s) + Payloads.bits table g
          done;
          outboxes.(s) <- Ob_batch
      | 3 ->
          ob_pay.(s) <- read_gid ();
          ob_bits.(s) <- n * Payloads.bits table ob_pay.(s);
          outboxes.(s) <- Ob_bcast
      | 4 ->
          read_list s;
          ob_pay.(s) <- read_gid ();
          ob_bits.(s) <-
            Lists.length_of lists ob_list.(s) * Payloads.bits table ob_pay.(s);
          outboxes.(s) <- Ob_fan
      | t -> proto_error "host %d: unknown outbox tag %d" h t
    done
  in
  let split_lists () =
    for h = 0 to n_hosts - 1 do
      Ibuf.clear parts.(h);
      Ibuf.clear part_starts.(h);
      Ibuf.push part_starts.(h) 0
    done;
    for l = 0 to Lists.length lists - 1 do
      for j = 0 to Lists.length_of lists l - 1 do
        Ibuf.push parts.(owner.(Lists.entry lists l j)) j
      done;
      for h = 0 to n_hosts - 1 do
        Ibuf.push part_starts.(h) parts.(h).len
      done
    done
  in
  (* [f] on every copy, in the engine's billing order: ascending sender
     identity, then emission order, a broadcast on links [0 .. n-1]. *)
  let each_copy f =
    Array.iter
      (fun s ->
        let l = ob_list.(s) and p = ob_pay.(s) in
        match outboxes.(s) with
        | No_outbox -> ()
        | Ob_bcast ->
            for d = 0 to n - 1 do
              f ~src:s ~dst:d ~bits:(Payloads.bits table p)
            done
        | Ob_fan ->
            for j = 0 to Lists.length_of lists l - 1 do
              f ~src:s ~dst:(Lists.entry lists l j)
                ~bits:(Payloads.bits table p)
            done
        | Ob_batch ->
            for j = 0 to Lists.length_of lists l - 1 do
              f ~src:s ~dst:(Lists.entry lists l j)
                ~bits:(Payloads.bits table batch_gids.a.(p + j))
            done)
      order
  in
  (* Bill the round like the engine — every copy once per link, a
     broadcast on all n links, including self and already-finished
     recipients — but in bulk, from each outbox's [ob_bits]; collect the
     broadcasts and the listed senders in ascending identity, and split
     the round's lists by host. Only [on_message] walks the copies. *)
  let route () =
    let msgs = ref 0 and bits = ref 0 in
    Array.iter
      (fun s ->
        match outboxes.(s) with
        | No_outbox -> ()
        | Ob_bcast ->
            msgs := !msgs + n;
            bits := !bits + ob_bits.(s);
            Ibuf.push bcasts s;
            Ibuf.push bcasts ob_pay.(s)
        | Ob_fan | Ob_batch ->
            msgs := !msgs + Lists.length_of lists ob_list.(s);
            bits := !bits + ob_bits.(s);
            Ibuf.push listed s)
      order;
    Metrics.add_honest_bulk metrics ~msgs:!msgs ~bits:!bits;
    Option.iter each_copy on_message;
    split_lists ()
  in
  (* A reply ships only the payloads it names, renumbered in first-use
     order: [local.(g)] is round payload [g]'s index in the reply being
     built (-1 if unnamed yet), [named] lists them. It ships every round
     list, restricted to the host's range, under its round index. *)
  let local = ref [||] and named = Ibuf.create () in
  let reply_frame h ~stop =
    let w = writers.(h) in
    Frame.begin_framed w;
    Wire.Writer.add_gamma w !current_round;
    Wire.Writer.add_gamma w (if stop then 1 else 0);
    if not stop then begin
      local := grow !local (Payloads.length table) (-1);
      let local = !local and part = parts.(h) in
      let part_start = part_starts.(h).a in
      let name g =
        if local.(g) < 0 then begin
          local.(g) <- named.len;
          Ibuf.push named g
        end
      in
      (* Pass 1: name every payload the reply uses, and count its
         records — one per listed sender whose list reaches the host. *)
      for i = 0 to (bcasts.len / 2) - 1 do
        name bcasts.a.((2 * i) + 1)
      done;
      let records = ref 0 in
      for i = 0 to listed.len - 1 do
        let s = listed.a.(i) in
        let l = ob_list.(s) in
        if part_start.(l + 1) > part_start.(l) then begin
          incr records;
          match outboxes.(s) with
          | Ob_fan -> name ob_pay.(s)
          | Ob_batch | Ob_bcast | No_outbox ->
              for q = part_start.(l) to part_start.(l + 1) - 1 do
                name batch_gids.a.(ob_pay.(s) + part.a.(q))
              done
        end
      done;
      (* Pass 2: the payloads, the broadcast rows, the lists, the
         records. *)
      Wire.Writer.add_gamma w named.len;
      for i = 0 to named.len - 1 do
        Payloads.add_entry w table named.a.(i)
      done;
      Wire.Writer.add_gamma w (bcasts.len / 2);
      for i = 0 to (bcasts.len / 2) - 1 do
        Wire.Writer.add_gamma w bcasts.a.(2 * i);
        Wire.Writer.add_gamma w local.(bcasts.a.((2 * i) + 1))
      done;
      Wire.Writer.add_gamma w (Lists.length lists);
      for l = 0 to Lists.length lists - 1 do
        Wire.Writer.add_gamma w (part_start.(l + 1) - part_start.(l));
        for q = part_start.(l) to part_start.(l + 1) - 1 do
          Wire.Writer.add_gamma w (Lists.entry lists l part.a.(q))
        done
      done;
      Wire.Writer.add_gamma w !records;
      for i = 0 to listed.len - 1 do
        let s = listed.a.(i) in
        let l = ob_list.(s) in
        let a = part_start.(l) and b = part_start.(l + 1) in
        if b > a then begin
          Wire.Writer.add_gamma w s;
          match outboxes.(s) with
          | Ob_fan ->
              Wire.Writer.add_gamma w 4;
              Wire.Writer.add_gamma w l;
              Wire.Writer.add_gamma w local.(ob_pay.(s))
          | Ob_batch | Ob_bcast | No_outbox ->
              Wire.Writer.add_gamma w 2;
              Wire.Writer.add_gamma w l;
              Wire.Writer.add_gamma w (b - a);
              for q = a to b - 1 do
                Wire.Writer.add_gamma w
                  local.(batch_gids.a.(ob_pay.(s) + part.a.(q)))
              done
        end
      done;
      for i = 0 to named.len - 1 do
        local.(named.a.(i)) <- -1
      done;
      Ibuf.clear named
    end;
    w
  in
  let send_replies ~stop =
    for h = 0 to n_hosts - 1 do
      if alive.(h) then
        try Frame.write_framed ios.(h) (reply_frame h ~stop)
        with Unix.Unix_error _ | Frame.Protocol_error _ -> kill_host h
    done
  in
  let any_running () =
    Array.exists (function S_running -> true | _ -> false) status
  in
  let rec loop () =
    if !current_round >= max_rounds then ()
    else begin
      for h = 0 to n_hosts - 1 do
        if alive.(h) then
          match Frame.read_framed ios.(h) inbufs.(h) with
          | r -> (
              try parse_host_frame h r
              with Frame.Protocol_error _ | Invalid_argument _ -> kill_host h)
          | exception (Frame.Protocol_error _ | Unix.Unix_error _) ->
              kill_host h
      done;
      if any_running () then begin
        route ();
        Metrics.end_round metrics;
        send_replies ~stop:false;
        Payloads.clear table;
        Lists.clear lists;
        Ibuf.clear batch_gids;
        Ibuf.clear bcasts;
        Ibuf.clear listed;
        Array.fill outboxes 0 n No_outbox;
        incr current_round;
        loop ()
      end
    end
  in
  loop ();
  send_replies ~stop:true;
  Array.iteri
    (fun h fd ->
      if alive.(h) then try Unix.close fd with Unix.Unix_error _ -> ())
    fds;
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun s st ->
           ( ids.(s),
             match st with
             | S_decided v -> Repro_sim.Engine.Decided v
             | S_crashed r -> Repro_sim.Engine.Crashed r
             | S_running -> Repro_sim.Engine.Unfinished ))
         status)
  in
  { run = { Repro_sim.Engine.outcomes; metrics } }

(* {2 Host} *)

module Host (M : Network_intf.WIRE_MSG) = struct
  (* The node side — views, slots, exchange-class calls, fibers — is the
     engine's. A slot's view is kept for the whole run and refilled in
     place by every reply ([read_reply]), so the view a node receives is
     valid only until its next exchange-class call, which is when the
     next reply is read. *)
  include Repro_sim.Node.Make (M)

  let slot_of index dst =
    let s = Repro_util.Slot_index.find index dst in
    if s < 0 then
      invalid_arg
        (Printf.sprintf "Socket_net: destination %d is not a participant" dst);
    s

  (* The payload-table entry of message [m] at position [j] of a slot's
     outbox, given the slot's send memo: the messages of its latest
     outbox by position, each with its encoding. A message physically
     equal to the previous entry takes that entry's, one equal to the
     slot's previous outbox at [j] the memo's encoding; any other is
     written into the scratch writer [sw] with [M.write] and remembered,
     its bytes copied into the memo. The memo holds its own copies —
     callers refill their arrays in place — and every position pairs a
     message with its own encoding, so a physically equal message can
     take the position's encoding whatever round stored it. *)
  let intern_at tbl sw (gids : Ibuf.t) memo j m =
    if j > 0 && Memo.mem memo (j - 1) m then begin
      if not (Memo.mem memo j m) then
        Memo.store memo j m (Memo.arena memo)
          ~pos:(Memo.offset memo (j - 1))
          ~bits:(Memo.bits memo (j - 1));
      gids.a.(gids.len - 1)
    end
    else begin
      if not (Memo.mem memo j m) then begin
        Wire.Writer.reset sw;
        M.write sw m;
        Memo.store memo j m (Wire.Writer.unsafe_bytes sw) ~pos:0
          ~bits:(Wire.Writer.bit_length sw)
      end;
      Payloads.intern tbl (Memo.arena memo) ~pos:(Memo.offset memo j)
        ~bits:(Memo.bits memo j)
    end

  (* A round frame takes two passes over the outboxes: [intern_outbox]
     adds each payload to the frame's table, recording its index in
     [gids] in frame order, and a fan's or batch's destinations to the
     frame's list table, recording its index in [list_of]; once the
     tables are written, [write_outbox] emits the slot record, taking
     the payload indices back from [gids] at [cur] and returning the
     cursor past them. A list's identities are resolved to slots
     ([slots], in step with the table's entries) only when it first
     enters the table. Both are loops: a local function would be a
     closure allocated per slot and round. *)
  let intern_outbox ~index tbl sw gids lists slots list_of s memo o =
    let c = if o.fan then 1 else o.len in
    Memo.reserve memo c;
    for j = 0 to c - 1 do
      Ibuf.push gids (intern_at tbl sw gids memo j o.msg.(j))
    done;
    if not o.bcast then begin
      let fresh = Lists.length lists in
      let l = Lists.intern lists o.dst o.len in
      if l = fresh then
        for j = 0 to o.len - 1 do
          Ibuf.push slots (slot_of index o.dst.(j))
        done;
      list_of.(s) <- l
    end

  (* A broadcast is tag 3 with its one payload, a fan tag 4 with its
     list and one payload, a batch tag 2 with its list and one payload
     per destination. *)
  let write_outbox w (gids : Ibuf.t) cur l o =
    if o.bcast then begin
      Wire.Writer.add_gamma w 3;
      Wire.Writer.add_gamma w gids.a.(cur);
      cur + 1
    end
    else if o.fan then begin
      Wire.Writer.add_gamma w 4;
      Wire.Writer.add_gamma w l;
      Wire.Writer.add_gamma w gids.a.(cur);
      cur + 1
    end
    else begin
      Wire.Writer.add_gamma w 2;
      Wire.Writer.add_gamma w l;
      Wire.Writer.add_gamma w o.len;
      for j = 0 to o.len - 1 do
        Wire.Writer.add_gamma w gids.a.(cur + j)
      done;
      cur + o.len
    end

  let running states s =
    match states.(s) with
    | Running _ -> true
    | Finished _ | Dead _ | Byz_node -> false

  (* A payload index of a reply whose table has [t] entries. *)
  let read_payload r t =
    let k = Wire.Reader.read_gamma r in
    if k >= t then proto_error "payload index %d of %d" k t;
    k

  (* Reply parsing state kept across rounds: the reply's frame
     ([frame], its first [frame_len] bytes); where its payload table
     entries lie in it ([at], [width]), which are resolved ([resolved])
     and to what ([decoded]); the reader that reads them ([rd], made for
     the reply at its first read when [rd_stale]); the receive memo of
     every source slot ([heard]), by position in the sender's row or
     record — a slot's own sends keep a memo of their own, by outbox
     position, which a batch's record restricted to the host does not
     share; the round's broadcast rows, kept as the dedicated stream of
     a view of its own that every slot's view shares, as the engine
     keeps its broadcast table; the reply's lists ([lists] from
     [list_starts.(l)] to [list_starts.(l + 1)]); its records as
     (source slot, list, payload) triples, where a batch's payload
     [-1 - k] means its payloads are [batch.(k ..)]; and per-list
     record and per-slot delivery counts. *)
  type reply_bufs = {
    mutable frame : Bytes.t;
    mutable frame_len : int;
    at : Ibuf.t;
    width : Ibuf.t;
    mutable resolved : bool array;
    mutable decoded : M.t array;
    mutable rd : Wire.Reader.t;
    mutable rd_stale : bool;
    heard : M.t Memo.t array;
    bcast : inbox;
    lists : Ibuf.t;
    list_starts : Ibuf.t;
    records : Ibuf.t;
    batch : Ibuf.t;
    mutable per_list : int array;
    need : int array;
  }

  let reply_bufs n =
    {
      frame = Bytes.empty;
      frame_len = 0;
      at = Ibuf.create ();
      width = Ibuf.create ();
      resolved = [||];
      decoded = [||];
      rd = Wire.Reader.of_string "";
      rd_stale = true;
      heard = Array.init n (fun _ -> Memo.create ());
      bcast = empty_view (-1);
      lists = Ibuf.create ();
      list_starts = Ibuf.create ();
      records = Ibuf.create ();
      batch = Ibuf.create ();
      per_list = [||];
      need = Array.make n 0;
    }

  (* Table entry [k] of the reply resolves to [m]. *)
  let settle bufs k m =
    bufs.decoded <- grow bufs.decoded (Array.length bufs.resolved) m;
    bufs.decoded.(k) <- m;
    bufs.resolved.(k) <- true

  (* Read table entry [k] with [M.read], bounded to its bits, and
     resolve it to the result. [bufs.rd] only moves forward; an entry
     behind it (a reply naming its entries out of table order) takes a
     fresh reader over the frame, as does a reply's first read. *)
  let read_entry bufs k =
    let pos = bufs.at.a.(k) in
    if bufs.rd_stale || Wire.Reader.position bufs.rd > pos then begin
      bufs.rd <- Wire.Reader.of_bytes bufs.frame ~len:bufs.frame_len;
      bufs.rd_stale <- false
    end;
    Wire.Reader.skip bufs.rd (pos - Wire.Reader.position bufs.rd);
    match Wire.Reader.within bufs.rd ~bits:bufs.width.a.(k) M.read with
    | m ->
        settle bufs k m;
        m
    | exception Invalid_argument _ -> proto_error "undecodable payload"

  (* Resolve table entry [k] at its first use, at position [j] of source
     slot [src]'s row or record; later uses take its message as it is.
     If [src]'s memo holds the entry's bit length and bits at [j], the
     memo's message is the entry's; otherwise the entry is read and the
     memo remembers it. So every entry delivered was read, or is
     bit-equal to an earlier successful read ([M.read] is a pure
     function of the bits). *)
  let first_use bufs src j k =
    let memo = bufs.heard.(src) in
    let pos = bufs.at.a.(k) and bits = bufs.width.a.(k) in
    if Memo.holds memo j bufs.frame ~pos ~bits then
      settle bufs k (Memo.msg memo j)
    else Memo.store memo j (read_entry bufs k) bufs.frame ~pos ~bits

  let[@inline] resolve bufs src j k =
    if not bufs.resolved.(k) then first_use bufs src j k;
    k

  (* A round's reply: [true] for stop, else every inbox view of the
     host's slots refilled in place — the records delivered into the
     dedicated streams of their lists' running slots, as an engine
     shard's transmit pushes them, the shared stream pointed at the
     broadcast rows. Each view grows once, to the round's count, which
     the per-list record counts give in one pass over the lists. The
     payload table is skipped on the way in, and each entry resolved
     at its first use ([resolve]); one that no row or record names is
     read all the same. A resolved message is shared by every recipient
     ([M.t] values are immutable). A frame that ends early is malformed
     like any other bad field. *)
  let read_reply r bufs ~round ~ids ~lo ~hi ~states views =
    try
      let got = Wire.Reader.read_gamma r in
      if got <> round then
        proto_error "reply for round %d at round %d" got round;
      if Wire.Reader.read_gamma r = 1 then true
      else begin
        let n = Array.length ids in
        bufs.frame <- Wire.Reader.unsafe_bytes r;
        bufs.frame_len <-
          (Wire.Reader.position r + Wire.Reader.bits_remaining r) / 8;
        let t = read_count r in
        let { at; width; lists; list_starts; records; batch; _ } = bufs in
        Ibuf.clear at;
        Ibuf.clear width;
        for _ = 1 to t do
          let bits = Wire.Reader.read_gamma r in
          if bits > Wire.Reader.bits_remaining r then
            proto_error "embedded message of %d bits exceeds the frame" bits;
          Ibuf.push at (Wire.Reader.position r);
          Ibuf.push width bits;
          Wire.Reader.skip r (8 * ((bits + 7) / 8))
        done;
        bufs.resolved <- grow bufs.resolved t false;
        Array.fill bufs.resolved 0 t false;
        bufs.rd_stale <- true;
        (* The broadcast rows, into [bc]'s dedicated stream, grown to
           their count at once. *)
        let bc = bufs.bcast in
        let c = read_count r in
        bc.d_len <- 0;
        for i = 0 to c - 1 do
          let src = Wire.Reader.read_gamma r in
          if src >= n then proto_error "source slot %d" src;
          let k = resolve bufs src 0 (read_payload r t) in
          let m = bufs.decoded.(k) in
          if i = 0 && c > Array.length bc.d_src then begin
            bc.d_src <- Array.make c 0;
            bc.d_msg <- Array.make c m
          end;
          push bc ids.(src) m
        done;
        let nl = read_count r in
        Ibuf.clear lists;
        Ibuf.clear list_starts;
        Ibuf.push list_starts 0;
        for _ = 1 to nl do
          for _ = 1 to read_count r do
            let d = Wire.Reader.read_gamma r in
            if d < lo || d >= hi then proto_error "list slot %d off the host" d;
            Ibuf.push lists d
          done;
          Ibuf.push list_starts lists.len
        done;
        bufs.per_list <- grow bufs.per_list nl 0;
        let per_list = bufs.per_list in
        Array.fill per_list 0 nl 0;
        let nr = read_count r in
        Ibuf.clear records;
        Ibuf.clear batch;
        for _ = 1 to nr do
          let src = Wire.Reader.read_gamma r in
          if src >= n then proto_error "source slot %d" src;
          let tag = Wire.Reader.read_gamma r in
          let l = Wire.Reader.read_gamma r in
          if l >= nl then proto_error "list index %d of %d" l nl;
          Ibuf.push records src;
          Ibuf.push records l;
          (match tag with
          | 4 -> Ibuf.push records (resolve bufs src 0 (read_payload r t))
          | 2 ->
              let c = read_count r in
              let len = list_starts.a.(l + 1) - list_starts.a.(l) in
              if c <> len then
                proto_error "batch of %d payloads over a list of %d" c len;
              Ibuf.push records (-1 - batch.len);
              for j = 0 to c - 1 do
                Ibuf.push batch (resolve bufs src j (read_payload r t))
              done
          | tag -> proto_error "unknown record tag %d" tag);
          per_list.(l) <- per_list.(l) + 1
        done;
        for k = 0 to t - 1 do
          if not bufs.resolved.(k) then ignore (read_entry bufs k)
        done;
        let need = bufs.need and decoded = bufs.decoded in
        Array.fill need lo (hi - lo) 0;
        for l = 0 to nl - 1 do
          if per_list.(l) > 0 then
            for e = list_starts.a.(l) to list_starts.a.(l + 1) - 1 do
              let d = lists.a.(e) in
              need.(d) <- need.(d) + per_list.(l)
            done
        done;
        for s = lo to hi - 1 do
          let v = views.(s) in
          v.d_len <- 0;
          if running states s && need.(s) > Array.length v.d_src then begin
            v.d_src <- Array.make need.(s) 0;
            v.d_msg <- Array.make need.(s) decoded.(0)
          end;
          v.s_src <- bc.d_src;
          v.s_msg <- bc.d_msg;
          v.s_len <- bc.d_len
        done;
        for i = 0 to nr - 1 do
          let src = ids.(records.a.(3 * i)) and l = records.a.((3 * i) + 1) in
          let p = records.a.((3 * i) + 2) and first = list_starts.a.(l) in
          for e = first to list_starts.a.(l + 1) - 1 do
            let d = lists.a.(e) in
            if running states d then
              push views.(d) src
                decoded.(if p >= 0 then p else batch.a.(-1 - p + e - first))
          done
        done;
        false
      end
    with Invalid_argument e -> proto_error "reply: %s" e

  let run ~fd ~host_index ~program =
    ignore_sigpipe ();
    let io = Frame.io_of_fd fd in
    let hello =
      let w = Wire.Writer.create () in
      Wire.Writer.add_gamma w magic;
      Wire.Writer.add_gamma w host_index;
      Wire.Writer.contents w
    in
    Frame.write_frame io hello;
    let r = Wire.Reader.of_string (Frame.read_frame io) in
    if Wire.Reader.read_gamma r <> magic then
      proto_error "config: bad magic (mismatched peer?)";
    let n = Wire.Reader.read_gamma r in
    let n_hosts = Wire.Reader.read_gamma r in
    let seed = Wire.Reader.read_gamma r in
    (* n is wire-derived: cap it (Frame.max_frame is far above any real
       run) so a hostile coordinator cannot force an absurd allocation. *)
    if n = 0 || n > Frame.max_frame || n_hosts < 1 || host_index >= n_hosts
    then
      proto_error "config: n=%d n_hosts=%d host_index=%d" n n_hosts host_index;
    let ids = Array.make n 0 in
    for s = 0 to n - 1 do
      ids.(s) <- Wire.Reader.read_gamma r
    done;
    let extra = Codec.read_bytes r in
    let lo, hi = Repro_util.Shard.range ~n ~shards:n_hosts host_index in
    let index =
      Repro_util.Slot_index.create ids ~duplicate:(fun id ->
          Frame.Protocol_error
            (Printf.sprintf "config: duplicate identity %d" id))
    in
    let current_round = ref 0 in
    let prog = program ~extra in
    (* Slots outside the range never run here. A decided slot is
       reported in the next frame and then leaves the run ([Dead]). *)
    let states = Array.make n (Dead 0) in
    let outs = empty_outs n in
    (* Split the master stream once per slot in global slot order — the
       exact derivation the engine performs — keeping only our slice. *)
    let master = Rng.of_seed seed in
    for s = 0 to n - 1 do
      let node_rng = Rng.split master in
      if s >= lo && s < hi then
        let out = outs.(s) in
        states.(s) <-
          start_fiber prog { id = ids.(s); ids; node_rng; current_round; out }
    done;
    let sent = Array.init n (fun _ -> Memo.create ()) in
    let views = Array.map empty_view ids in
    let bufs = reply_bufs n in
    let tbl = Payloads.create () and gids = Ibuf.create () in
    let sw = Wire.Writer.create () in
    let lists = Lists.create () and slots = Ibuf.create () in
    let list_of = Array.make n 0 in
    let w = Wire.Writer.create () and ib = Frame.inbuf () in
    let continue_running = ref true in
    while !continue_running do
      for s = lo to hi - 1 do
        match states.(s) with
        | Running _ ->
            intern_outbox ~index tbl sw gids lists slots list_of s sent.(s)
              outs.(s)
        | Finished _ | Dead _ | Byz_node -> ()
      done;
      Frame.begin_framed w;
      Wire.Writer.add_gamma w !current_round;
      Wire.Writer.add_gamma w (Payloads.length tbl);
      for g = 0 to Payloads.length tbl - 1 do
        Payloads.add_entry w tbl g
      done;
      Wire.Writer.add_gamma w (Lists.length lists);
      for l = 0 to Lists.length lists - 1 do
        Wire.Writer.add_gamma w (Lists.length_of lists l);
        for e = Lists.start lists l to Lists.start lists (l + 1) - 1 do
          Wire.Writer.add_gamma w slots.a.(e)
        done
      done;
      let cur = ref 0 in
      for s = lo to hi - 1 do
        match states.(s) with
        | Finished v ->
            Wire.Writer.add_gamma w 1;
            Wire.Writer.add_gamma w v;
            states.(s) <- Dead !current_round
        | Dead _ | Byz_node -> Wire.Writer.add_gamma w 0
        | Running _ -> cur := write_outbox w gids !cur list_of.(s) outs.(s)
      done;
      Payloads.clear tbl;
      Ibuf.clear gids;
      Lists.clear lists;
      Ibuf.clear slots;
      Frame.write_framed io w;
      let stop =
        read_reply (Frame.read_framed io ib) bufs ~round:!current_round ~ids
          ~lo ~hi ~states views
      in
      if stop then continue_running := false
      else begin
        incr current_round;
        (* The engine's resume rule: a node in [wait_for_mail] sleeps
           through an empty view. Its slot stays clean, so its next
           record is the empty batch a [skip_round] would stage. *)
        for s = lo to hi - 1 do
          match states.(s) with
          | Running _ when sleeps outs.(s) views.(s) -> ()
          | Running { k } -> states.(s) <- resume outs.(s) k views.(s)
          | Finished _ | Dead _ | Byz_node -> ()
        done
      end
    done
end
