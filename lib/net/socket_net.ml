module Wire = Repro_sim.Wire
module Metrics = Repro_sim.Metrics
module Rng = Repro_util.Rng
open Round_tables

(* Stream format version + endpoint check, first field of both handshake
   frames; bump when the frame layout changes. *)
let magic = 0x524e34

let proto_error fmt =
  Printf.ksprintf (fun s -> raise (Frame.Protocol_error s)) fmt

(* A gamma field: a read past the frame's end is malformed traffic. *)
let field r =
  try Wire.Reader.read_gamma r with Invalid_argument e -> proto_error "%s" e

(* Count fields precede variable-size repetitions; each counted entry
   costs at least two bits of stream, so a count beyond the remaining
   bits is malformed — reject it before allocating for it. *)
let read_count r =
  let c = field r in
  if c > Wire.Reader.bits_remaining r then
    proto_error "count %d exceeds remaining frame bits" c;
  c

(* An index into a frame's table of [bound] entries. *)
let read_index r bound what =
  let i = field r in
  if i >= bound then proto_error "%s index %d of %d" what i bound;
  i

(* A counted sequence of ints in [\[lo, hi)], appended to [buf]. *)
let read_seq r (buf : Ibuf.t) ~lo ~hi what =
  let len = read_count r in
  for _ = 1 to len do
    let e = field r in
    if e < lo || e >= hi then proto_error "%s %d off [%d, %d)" what e lo hi;
    Ibuf.push buf e
  done;
  len

(* Table [t]'s count, then each sequence counted, entries mapped by [f]. *)
let write_seqs w t f =
  Wire.Writer.add_gamma w (Lists.length t);
  for l = 0 to Lists.length t - 1 do
    Wire.Writer.add_gamma w (Lists.length_of t l);
    for j = 0 to Lists.length_of t l - 1 do
      Wire.Writer.add_gamma w (f (Lists.entry t l j))
    done
  done

(* Round frames (every field Elias-gamma; a payload is its bit length,
   then its bits zero-padded to whole bytes; a list is its length, then
   its destination slots in emission order, repeats kept; a vector is
   its length, then one payload index per entry; [idx], [v] and [l]
   index the same frame's payload, vector and list tables):

   host -> coordinator
     round; T, T x payload;  V, V x vector;  L, L x list;
     per slot of the host's range:  0 idle | 1 v decided v
                                  | 2 l v batch: entry j of list l carries
                                      entry j of vector v (of l's length)
                                  | 3 idx broadcast | 4 l idx fan over l
   coordinator -> host
     round; stop; unless stop:
     T, T x payload;  V, V x vector;  B, B x (src, idx) the broadcasts;
     L, L x list: the round's lists, each restricted to the host's range;
     R, R x (src, 2, l, v | src, 4, l, idx) one record per fan or batch
       sender whose list reaches the host

   Tables are content-interned, so each distinct payload, list and
   vector crosses each link once per round: a broadcast or a fan once
   per sender rather than once per recipient, and a verdict vector that
   every committee member sends once rather than once per member.
   Broadcast rows and records are in ascending sender identity. A reply
   names only the payloads its rows and records use, renumbered; its
   lists keep their round indices; a batch's vector is restricted to
   the host's share of its list, once per (list, vector) pair.

   Both sides build every round frame in a writer kept per link and read
   it into a buffer kept per link ([Frame.begin_framed] /
   [Frame.read_framed]), so a round allocates no frame-sized memory. No
   payload becomes a string on the way: the coordinator interns each one
   where it lies in the frame ([Payloads.read_entry]) and copies it into
   its reply from the table's arena. A host keeps a codec memo
   ([Memo]) per slot for each direction: it writes a message with
   [M.write] only when the slot's send memo does not hold it
   ([Memo.intern]), and reads a reply payload with [M.read] in the frame
   only when the sender's receive memo does not hold the same bits at
   that record position. *)

type config = { ids : int array; seed : int; n_hosts : int; extra : string }

type result = {
  run : int Repro_sim.Engine.run_result;
  bytes_read : int;
  bytes_written : int;
}

(* {2 Coordinator} *)

type slot_status = S_running | S_decided of int | S_crashed of int

(* A slot's outbox for the round being routed, messages named by their
   index in the round's payload table (a batch's by its vector's index
   in the round's vector table) and destinations by their index in the
   round's list table — the coordinator never decodes protocol
   payloads. Its fields live in per-slot int arrays — [ob_list],
   [ob_pay] and the bits it is billed, [ob_bits] — so parsing a frame
   allocates nothing. *)
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
  (* Every byte crossing a host connection, handshakes and frame headers
     included, per direction. *)
  let bytes_read = ref 0 and bytes_written = ref 0 in
  let tally n k = n := !n + k; k in
  let counted (io : Frame.io) =
    { Frame.read = (fun b pos len -> tally bytes_read (io.read b pos len));
      write = (fun b pos len -> tally bytes_written (io.write b pos len)) }
  in
  (* Accept + handshake: each host frames its index; ship the config. *)
  let pending : (Unix.file_descr * Frame.io) option array =
    Array.make n_hosts None
  in
  for _ = 1 to n_hosts do
    let fd, _addr = Unix.accept listen in
    let io = counted (Frame.io_of_fd fd) in
    let r = Wire.Reader.of_string (Frame.read_frame io) in
    if field r <> magic then proto_error "hello: bad magic (mismatched peer?)";
    let h = field r in
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
    Wire.Writer.add_gamma w (String.length extra);
    Wire.Writer.add_string w extra;
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
  (* The round's tables and each round vector's bits; [frame_gids],
     [frame_vecs] and [frame_lists] map a frame's indices to them. *)
  let table = Payloads.create () and vecs = Lists.create () in
  let lists = Lists.create () and vec_bits = Ibuf.create () in
  let frame_gids = Ibuf.create () and frame_vecs = Ibuf.create () in
  let frame_lists = Ibuf.create () and buf = Ibuf.create () in
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
    let round = field r in
    if round <> !current_round then
      proto_error "host %d is at round %d, coordinator at %d" h round
        !current_round;
    let t = read_count r in
    Ibuf.clear frame_gids;
    for _ = 1 to t do
      match Payloads.read_entry r table with
      | g -> Ibuf.push frame_gids g
      | exception Invalid_argument e -> proto_error "host %d: %s" h e
    done;
    let nv = read_count r in
    Ibuf.clear frame_vecs;
    for _ = 1 to nv do
      Ibuf.clear buf;
      let len = read_seq r buf ~lo:0 ~hi:t "payload index" and bits = ref 0 in
      for j = 0 to len - 1 do
        buf.a.(j) <- frame_gids.a.(buf.a.(j));
        bits := !bits + Payloads.bits table buf.a.(j)
      done;
      let v = Lists.intern vecs buf.a len in
      if v = vec_bits.len then Ibuf.push vec_bits !bits;
      Ibuf.push frame_vecs v
    done;
    let nl = read_count r in
    Ibuf.clear frame_lists;
    for _ = 1 to nl do
      Ibuf.clear buf;
      let len = read_seq r buf ~lo:0 ~hi:n "destination slot" in
      Ibuf.push frame_lists (Lists.intern lists buf.a len)
    done;
    for s = lo to hi - 1 do
      match field r with
      | 0 ->
          (match status.(s) with
          | S_running -> proto_error "host %d: running slot %d sent no outbox" h s
          | S_decided _ | S_crashed _ -> ());
          outboxes.(s) <- No_outbox
      | 1 ->
          let v = field r in
          (match status.(s) with
          | S_running -> status.(s) <- S_decided v
          | S_decided _ | S_crashed _ ->
              proto_error "host %d: decision for non-running slot %d" h s);
          outboxes.(s) <- No_outbox
      | 2 ->
          ob_list.(s) <- frame_lists.a.(read_index r nl "list");
          ob_pay.(s) <- frame_vecs.a.(read_index r nv "vector");
          let c = Lists.length_of vecs ob_pay.(s)
          and len = Lists.length_of lists ob_list.(s) in
          if c <> len then
            proto_error "host %d: batch of %d payloads over a list of %d" h c
              len;
          ob_bits.(s) <- vec_bits.a.(ob_pay.(s));
          outboxes.(s) <- Ob_batch
      | 3 ->
          ob_pay.(s) <- frame_gids.a.(read_index r t "payload");
          ob_bits.(s) <- n * Payloads.bits table ob_pay.(s);
          outboxes.(s) <- Ob_bcast
      | 4 ->
          ob_list.(s) <- frame_lists.a.(read_index r nl "list");
          ob_pay.(s) <- frame_gids.a.(read_index r t "payload");
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
                ~bits:(Payloads.bits table (Lists.entry vecs p j))
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
     list, restricted to the host's range, under its round index, and a
     batch's vector restricted to the host's share of its list, in reply
     indices, interned in [rvecs] once per (list, vector) pair ([pairs]
     to [pair_vec]). Sender [s]'s record names [rec_ref.(s)]. *)
  let local = ref [||] and named = Ibuf.create () in
  let pairs = Lists.create () and pair = [| 0; 0 |] in
  let pair_vec = Ibuf.create () and rvecs = Lists.create () in
  let rec_ref = Array.make n 0 in
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
      (* Pass 1: name every payload and vector the reply uses, and count
         its records — one per listed sender whose list reaches the host. *)
      for i = 0 to (bcasts.len / 2) - 1 do
        name bcasts.a.((2 * i) + 1)
      done;
      let records = ref 0 in
      for i = 0 to listed.len - 1 do
        let s = listed.a.(i) in
        let l = ob_list.(s) and p = ob_pay.(s) in
        if part_start.(l + 1) > part_start.(l) then begin
          incr records;
          match outboxes.(s) with
          | Ob_fan ->
              name p;
              rec_ref.(s) <- local.(p)
          | Ob_batch | Ob_bcast | No_outbox ->
              pair.(0) <- l;
              pair.(1) <- p;
              let k = Lists.intern pairs pair 2 in
              if k = pair_vec.len then begin
                Ibuf.clear buf;
                for q = part_start.(l) to part_start.(l + 1) - 1 do
                  let g = Lists.entry vecs p part.a.(q) in
                  name g;
                  Ibuf.push buf local.(g)
                done;
                Ibuf.push pair_vec (Lists.intern rvecs buf.a buf.len)
              end;
              rec_ref.(s) <- pair_vec.a.(k)
        end
      done;
      (* Pass 2: the payloads, the vectors, the broadcast rows, the
         lists, the records. *)
      Wire.Writer.add_gamma w named.len;
      for i = 0 to named.len - 1 do
        Payloads.add_entry w table named.a.(i)
      done;
      write_seqs w rvecs Fun.id;
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
        if part_start.(l + 1) > part_start.(l) then begin
          Wire.Writer.add_gamma w s;
          Wire.Writer.add_gamma w (if outboxes.(s) == Ob_fan then 4 else 2);
          Wire.Writer.add_gamma w l;
          Wire.Writer.add_gamma w rec_ref.(s)
        end
      done;
      for i = 0 to named.len - 1 do
        local.(named.a.(i)) <- -1
      done;
      Ibuf.clear named;
      Lists.clear pairs;
      Ibuf.clear pair_vec;
      Lists.clear rvecs
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
              with Frame.Protocol_error _ -> kill_host h)
          | exception (Frame.Protocol_error _ | Unix.Unix_error _) ->
              kill_host h
      done;
      if any_running () then begin
        route ();
        Metrics.end_round metrics;
        send_replies ~stop:false;
        Payloads.clear table;
        Lists.clear vecs;
        Ibuf.clear vec_bits;
        Lists.clear lists;
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
  {
    run = { Repro_sim.Engine.outcomes; metrics };
    bytes_read = !bytes_read;
    bytes_written = !bytes_written;
  }

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

  (* A round frame takes two passes over the outboxes: [intern_outbox]
     adds a slot's payloads to the frame's payload table through its
     send memo, a batch's payload indices to the vector table and its
     destinations to the list table, recording the slot's payload or
     vector in [ref_of] and its list in [list_of]; once the tables are
     written (each list's identities as slots), the slot record names
     them. It is a loop: a local function would be a closure allocated
     per slot and round. *)
  let intern_outbox tbl sw (vbuf : Ibuf.t) vecs lists list_of ref_of s memo o
      =
    let c = if o.fan then 1 else o.len in
    Memo.reserve memo c;
    Ibuf.clear vbuf;
    for j = 0 to c - 1 do
      Ibuf.push vbuf
        (Memo.intern memo tbl sw M.write
           ~prev:(if j > 0 then vbuf.a.(j - 1) else -1)
           j o.msg.(j))
    done;
    ref_of.(s) <- (if o.fan then vbuf.a.(0) else Lists.intern vecs vbuf.a c);
    if not o.bcast then list_of.(s) <- Lists.intern lists o.dst o.len

  let running states s =
    match states.(s) with
    | Running _ -> true
    | Finished _ | Dead _ | Byz_node -> false

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
     [list_starts.(l)] to [list_starts.(l + 1)]) and vectors ([vecs]
     from [vec_starts.(v)] to [vec_starts.(v + 1)]); its records as
     (source slot, list, payload) triples, where a batch's payload
     [-1 - k] means its payloads are [vecs.(k ..)]; and per-list
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
    vecs : Ibuf.t;
    vec_starts : Ibuf.t;
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
      vecs = Ibuf.create ();
      vec_starts = Ibuf.create ();
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

  (* A table of int sequences, each entry in [\[lo, hi)]: its entries
     into [entries], sequence [i]'s from [starts.(i)]; its length. *)
  let read_seqs r ~lo ~hi what (entries : Ibuf.t) (starts : Ibuf.t) =
    Ibuf.clear entries;
    Ibuf.clear starts;
    Ibuf.push starts 0;
    let count = read_count r in
    for _ = 1 to count do
      ignore (read_seq r entries ~lo ~hi what);
      Ibuf.push starts entries.len
    done;
    count

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
        let { at; width; lists; list_starts; records; vecs; vec_starts; _ } =
          bufs
        in
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
        let nv = read_seqs r ~lo:0 ~hi:t "payload" vecs vec_starts in
        (* The broadcast rows, into [bc]'s dedicated stream, grown to
           their count at once. *)
        let bc = bufs.bcast in
        let c = read_count r in
        bc.d_len <- 0;
        for i = 0 to c - 1 do
          let src = Wire.Reader.read_gamma r in
          if src >= n then proto_error "source slot %d" src;
          let k = resolve bufs src 0 (read_index r t "payload") in
          let m = bufs.decoded.(k) in
          if i = 0 && c > Array.length bc.d_src then begin
            bc.d_src <- Array.make c 0;
            bc.d_msg <- Array.make c m
          end;
          push bc ids.(src) m
        done;
        let nl = read_seqs r ~lo ~hi "list slot" lists list_starts in
        bufs.per_list <- grow bufs.per_list nl 0;
        let per_list = bufs.per_list in
        Array.fill per_list 0 nl 0;
        let nr = read_count r in
        Ibuf.clear records;
        for _ = 1 to nr do
          let src = Wire.Reader.read_gamma r in
          if src >= n then proto_error "source slot %d" src;
          let tag = Wire.Reader.read_gamma r in
          let l = read_index r nl "list" in
          Ibuf.push records src;
          Ibuf.push records l;
          (match tag with
          | 4 ->
              Ibuf.push records (resolve bufs src 0 (read_index r t "payload"))
          | 2 ->
              let v = read_index r nv "vector" in
              let first = vec_starts.a.(v) in
              let c = vec_starts.a.(v + 1) - first
              and len = list_starts.a.(l + 1) - list_starts.a.(l) in
              if c <> len then
                proto_error "batch of %d payloads over a list of %d" c len;
              Ibuf.push records (-1 - first);
              for j = 0 to c - 1 do
                ignore (resolve bufs src j vecs.a.(first + j))
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
                decoded.(if p >= 0 then p else vecs.a.(-1 - p + e - first))
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
    (* A blob length beyond the frame is rejected before allocating. *)
    let extra =
      let len = Wire.Reader.read_gamma r in
      if len > Wire.Reader.bits_remaining r / 8 then
        proto_error "embedded byte string of %d bytes exceeds the frame" len;
      Wire.Reader.read_string r len
    in
    let lo, hi = Repro_util.Shard.range ~n ~shards:n_hosts host_index in
    let slot =
      slot_of
        (Repro_util.Slot_index.create ids ~duplicate:(fun id ->
             Frame.Protocol_error
               (Printf.sprintf "config: duplicate identity %d" id)))
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
    let sent = Array.init (hi - lo) (fun _ -> Memo.create ()) in
    let views = Array.map empty_view ids in
    let bufs = reply_bufs n in
    let tbl = Payloads.create () and vecs = Lists.create () in
    let sw = Wire.Writer.create () and vbuf = Ibuf.create () in
    let lists = Lists.create () in
    let list_of = Array.make n 0 and ref_of = Array.make n 0 in
    let w = Wire.Writer.create () and ib = Frame.inbuf () in
    let continue_running = ref true in
    while !continue_running do
      for s = lo to hi - 1 do
        match states.(s) with
        | Running _ ->
            intern_outbox tbl sw vbuf vecs lists list_of ref_of s sent.(s - lo)
              outs.(s)
        | Finished _ | Dead _ | Byz_node -> ()
      done;
      Frame.begin_framed w;
      Wire.Writer.add_gamma w !current_round;
      Wire.Writer.add_gamma w (Payloads.length tbl);
      for g = 0 to Payloads.length tbl - 1 do
        Payloads.add_entry w tbl g
      done;
      write_seqs w vecs Fun.id;
      write_seqs w lists slot;
      for s = lo to hi - 1 do
        match states.(s) with
        | Finished v ->
            Wire.Writer.add_gamma w 1;
            Wire.Writer.add_gamma w v;
            states.(s) <- Dead !current_round
        | Dead _ | Byz_node -> Wire.Writer.add_gamma w 0
        | Running _ ->
            (* A broadcast is tag 3 with its payload, a fan tag 4 with
               its list and payload, a batch tag 2 with its list and
               vector. *)
            let o = outs.(s) in
            Wire.Writer.add_gamma w
              (if o.bcast then 3 else if o.fan then 4 else 2);
            if not o.bcast then Wire.Writer.add_gamma w list_of.(s);
            Wire.Writer.add_gamma w ref_of.(s)
      done;
      Payloads.clear tbl;
      Lists.clear vecs;
      Lists.clear lists;
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
