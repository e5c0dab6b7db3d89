module Wire = Repro_sim.Wire
module Metrics = Repro_sim.Metrics
module Rng = Repro_util.Rng

(* Stream format version + endpoint check, first field of both handshake
   frames; bump when the frame layout changes. *)
let magic = 0x524e32

let proto_error fmt =
  Printf.ksprintf (fun s -> raise (Frame.Protocol_error s)) fmt

(* A payload's encoding, [Msg.encode]'s (bytes, bits), with its string
   hash computed once: a host's encode memo keeps these, so interning a
   remembered payload does not rehash its bytes. *)
type enc = { bytes : string; bits : int; hash : int }

let enc_of (bytes, bits) = { bytes; bits; hash = String.hash bytes }

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

  let add_msg w e =
    if String.length e.bytes <> (e.bits + 7) / 8 then
      invalid_arg "Socket_net.Codec.add_msg: bytes/bits mismatch";
    Wire.Writer.add_gamma w e.bits;
    Wire.Writer.add_string w e.bytes

  let read_msg r =
    let bits = Wire.Reader.read_gamma r in
    if bits > Wire.Reader.bits_remaining r then
      proto_error "embedded message of %d bits exceeds the frame" bits;
    enc_of (Wire.Reader.read_string r ((bits + 7) / 8), bits)
end

(* Count fields precede variable-size repetitions; each counted entry
   costs at least two bits of stream, so a count beyond the remaining
   bits is malformed — reject it before allocating for it. *)
let read_count r =
  let c = Wire.Reader.read_gamma r in
  if c > Wire.Reader.bits_remaining r then
    proto_error "count %d exceeds remaining frame bits" c;
  c

(* Round frames (every field Elias-gamma; a payload is [Codec.add_msg]'s
   bits then bytes, and [idx] indexes the same frame's payload table):

   host -> coordinator
     round; T, T x payload;
     per slot of the host's range:  0 idle | 1 v decided v
                                  | 2 c, c x (dst, idx) | 3 idx broadcast
   coordinator -> host
     round; stop; unless stop:
     T, T x payload;  B, B x (src, idx) the round's broadcasts;
     per slot of the host's range:  c, c x (src, idx) dedicated deliveries

   Tables are content-interned, so each distinct payload crosses each link
   once per round, and broadcasts once per round rather than once per
   recipient. Both row lists are in ascending sender identity.

   Both sides build every round frame in a writer kept per link and read
   it into a buffer kept per link ([Frame.begin_framed] /
   [Frame.read_framed]), so a round allocates no frame-sized memory. *)

(* Growable int buffer, retained across rounds and reset by [clear]. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }
  let clear t = t.len <- 0

  let push t v =
    if t.len = Array.length t.a then begin
      let b = Array.make (max 8 (2 * t.len)) 0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- v;
    t.len <- t.len + 1
end

(* [a] grown to hold at least [len] entries, new cells set to [fill]. *)
let grow a len fill =
  if len <= Array.length a then a
  else begin
    let b = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* A round's payload table: distinct encodings in first-seen order. The
   hash table is only ever looked up, never iterated; the order lives in
   [encs]. *)
module Payloads = struct
  module Index = Hashtbl.Make (struct
    type t = enc

    let equal a b =
      a == b || (Int.equal a.bits b.bits && String.equal a.bytes b.bytes)

    let hash e = e.hash
  end)

  type t = { index : int Index.t; mutable encs : enc array; mutable len : int }

  let create () = { index = Index.create 64; encs = [||]; len = 0 }
  let length t = t.len
  let bits t g = t.encs.(g).bits

  let clear t =
    Index.clear t.index;
    t.len <- 0

  let intern t e =
    match Index.find t.index e with
    | g -> g
    | exception Not_found ->
        let g = t.len in
        t.encs <- grow t.encs (g + 1) e;
        t.encs.(g) <- e;
        t.len <- g + 1;
        Index.add t.index e g;
        g

  let add_entry w t g = Codec.add_msg w t.encs.(g)
end

type config = { ids : int array; seed : int; n_hosts : int; extra : string }

type result = { run : int Repro_sim.Engine.run_result }

(* {2 Coordinator} *)

type slot_status = S_running | S_decided of int | S_crashed of int

(* A slot's outbox for the round being routed, messages named by their
   index in the round's payload table — the coordinator never decodes
   protocol payloads. An [Ob_entries] slot's (dst, index) pairs are in
   its retained [entries] buffer. *)
type round_outbox = No_outbox | Ob_entries | Ob_bcast of int

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
  let entries = Array.init n (fun _ -> Ibuf.create ()) in
  (* The round's payload table, its broadcasts as (src, gid) pairs, and
     each slot's dedicated deliveries as (src, gid) pairs; [frame_gids]
     maps the frame being parsed's table indices to the round's. *)
  let table = Payloads.create () in
  let frame_gids = Ibuf.create () in
  let bcasts = Ibuf.create () in
  let deliveries = Array.init n (fun _ -> Ibuf.create ()) in
  let alive = Array.make n_hosts true in
  let metrics = Metrics.create () in
  let current_round = ref 0 in
  (* Delivery iterates senders in ascending identity order, like the
     engine, so every recipient's inbox arrives sorted by source id. *)
  let order = Array.init n (fun s -> s) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let bill src dst bits =
    Metrics.add_honest metrics ~bits;
    match on_message with Some f -> f ~src ~dst ~bits | None -> ()
  in
  let push dst src g =
    match status.(dst) with
    | S_running ->
        Ibuf.push deliveries.(dst) src;
        Ibuf.push deliveries.(dst) g
    | S_decided _ | S_crashed _ -> ()
  in
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
      Ibuf.push frame_gids (Payloads.intern table (Codec.read_msg r))
    done;
    let read_gid () =
      let i = Wire.Reader.read_gamma r in
      if i >= t then proto_error "host %d: payload index %d of %d" h i t;
      frame_gids.a.(i)
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
          let c = read_count r in
          let e = entries.(s) in
          Ibuf.clear e;
          for _ = 1 to c do
            let dst = Wire.Reader.read_gamma r in
            if dst >= n then proto_error "host %d: destination slot %d" h dst;
            Ibuf.push e dst;
            Ibuf.push e (read_gid ())
          done;
          outboxes.(s) <- Ob_entries
      | 3 -> outboxes.(s) <- Ob_bcast (read_gid ())
      | t -> proto_error "host %d: unknown outbox tag %d" h t
    done
  in
  let route () =
    Array.iter
      (fun s ->
        match outboxes.(s) with
        | No_outbox -> ()
        | Ob_entries ->
            let e = entries.(s) in
            for j = 0 to (e.len / 2) - 1 do
              let dst = e.a.(2 * j) and g = e.a.((2 * j) + 1) in
              bill s dst (Payloads.bits table g);
              push dst s g
            done
        | Ob_bcast g ->
            (* Like the engine: bill all n links (including self and
               already-finished recipients); every live slot receives
               the broadcast-table row. *)
            let bits = Payloads.bits table g in
            for d = 0 to n - 1 do
              bill s d bits
            done;
            Ibuf.push bcasts s;
            Ibuf.push bcasts g)
      order;
    Array.fill outboxes 0 n No_outbox
  in
  (* A reply ships only the payloads its rows name, renumbered in
     first-use order: [local.(g)] is round payload [g]'s index in the
     reply being built (-1 if unnamed yet), [named] lists them. *)
  let local = ref [||] in
  let named = Ibuf.create () in
  let reply_frame h ~stop =
    let lo, hi = ranges.(h) in
    let w = writers.(h) in
    Frame.begin_framed w;
    Wire.Writer.add_gamma w !current_round;
    Wire.Writer.add_gamma w (if stop then 1 else 0);
    if not stop then begin
      local := grow !local (Payloads.length table) (-1);
      let local = !local in
      let name g =
        if local.(g) < 0 then begin
          local.(g) <- named.len;
          Ibuf.push named g
        end
      in
      let rows (b : Ibuf.t) =
        Wire.Writer.add_gamma w (b.len / 2);
        for i = 0 to (b.len / 2) - 1 do
          Wire.Writer.add_gamma w b.a.(2 * i);
          Wire.Writer.add_gamma w local.(b.a.((2 * i) + 1))
        done
      in
      let name_rows (b : Ibuf.t) =
        for i = 0 to (b.len / 2) - 1 do
          name b.a.((2 * i) + 1)
        done
      in
      name_rows bcasts;
      for s = lo to hi - 1 do
        name_rows deliveries.(s)
      done;
      Wire.Writer.add_gamma w named.len;
      for i = 0 to named.len - 1 do
        Payloads.add_entry w table named.a.(i)
      done;
      rows bcasts;
      for s = lo to hi - 1 do
        rows deliveries.(s)
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
        Ibuf.clear bcasts;
        Array.iter Ibuf.clear deliveries;
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

  (* A slot's encode memo: the messages of its latest outbox by
     position, with their encodings. It holds its own copies — callers
     refill their arrays in place — and every cell is a (message, its
     encoding) pair, so a physically equal message can take the cell's
     encoding whatever round stored it. *)
  type memo = { mutable m_msgs : M.t array; mutable m_encs : enc array }

  (* The encoding of the message at position [j] of a slot's outbox:
     that of the previous entry or of the slot's previous outbox at [j]
     when the message is physically the same, else [M.encode]'s. *)
  let encode_at memo j m =
    let msgs = memo.m_msgs in
    let e =
      if j > 0 && m == msgs.(j - 1) then memo.m_encs.(j - 1)
      else if j < Array.length msgs && m == msgs.(j) then memo.m_encs.(j)
      else enc_of (M.encode m)
    in
    if j >= Array.length msgs then begin
      memo.m_msgs <- grow msgs (j + 1) m;
      memo.m_encs <- grow memo.m_encs (j + 1) e
    end;
    memo.m_msgs.(j) <- m;
    memo.m_encs.(j) <- e;
    e

  (* A round frame takes two passes over the outboxes: [intern_outbox]
     adds each payload to the frame's table and records its index in
     [gids], in frame order; once the table is written, [write_outbox]
     emits the slot record, taking the indices back from [gids] at
     [cur]. *)
  let intern_outbox tbl gids memo o =
    let add j m = Ibuf.push gids (Payloads.intern tbl (encode_at memo j m)) in
    if o.fan then add 0 o.msg.(0)
    else
      for j = 0 to o.len - 1 do
        add j o.msg.(j)
      done

  (* A broadcast is tag 3 with its one payload; any other outbox is tag
     2 with its entries, a fan naming one payload for all of them. *)
  let write_outbox w ~index (gids : Ibuf.t) cur o =
    let next () =
      incr cur;
      gids.a.(!cur - 1)
    in
    if o.bcast then begin
      Wire.Writer.add_gamma w 3;
      Wire.Writer.add_gamma w (next ())
    end
    else begin
      Wire.Writer.add_gamma w 2;
      Wire.Writer.add_gamma w o.len;
      let g = if o.fan then next () else -1 in
      for j = 0 to o.len - 1 do
        Wire.Writer.add_gamma w (slot_of index o.dst.(j));
        Wire.Writer.add_gamma w (if o.fan then g else next ())
      done
    end

  (* Reply parsing state kept across rounds: the decoded payload table
     and the round's broadcast rows, kept as the dedicated stream of a
     view of its own that every slot's view shares, as the engine keeps
     its broadcast table. *)
  type reply_bufs = { mutable decoded : M.t array; bcast : inbox }

  (* A round's reply: [true] for stop, else every inbox view of the
     host's slots refilled in place — its dedicated rows into its
     dedicated stream, its shared stream pointed at the broadcast rows.
     Each payload-table entry is decoded once and shared by every
     recipient ([M.t] values are immutable). A frame that ends early is
     malformed like any other bad field. *)
  let read_reply r bufs ~round ~ids ~lo ~hi views =
    try
      let got = Wire.Reader.read_gamma r in
      if got <> round then
        proto_error "reply for round %d at round %d" got round;
      if Wire.Reader.read_gamma r = 1 then true
      else begin
        let t = read_count r in
        for k = 0 to t - 1 do
          match M.decode (Codec.read_msg r).bytes with
          | Some m ->
              bufs.decoded <- grow bufs.decoded (k + 1) m;
              bufs.decoded.(k) <- m
          | None -> proto_error "undecodable payload"
        done;
        let decoded = bufs.decoded in
        (* [c] rows of [src, index] into [v]'s dedicated stream, grown
           to [c] at once: a committee member's first status round
           would otherwise double it from 16 to ~n, blitting each
           major-heap copy, and that round is the run's slowest. *)
        let read_rows v =
          let c = read_count r in
          if c > 0 && t = 0 then
            proto_error "%d rows name an empty payload table" c;
          v.d_len <- 0;
          if c > Array.length v.d_src then begin
            v.d_src <- Array.make c 0;
            v.d_msg <- Array.make c decoded.(0)
          end;
          for _ = 1 to c do
            let src = Wire.Reader.read_gamma r in
            if src >= Array.length ids then proto_error "source slot %d" src;
            let k = Wire.Reader.read_gamma r in
            if k >= t then proto_error "payload index %d of %d" k t;
            push v ids.(src) decoded.(k)
          done
        in
        let bc = bufs.bcast in
        read_rows bc;
        for s = lo to hi - 1 do
          let v = views.(s) in
          read_rows v;
          v.s_src <- bc.d_src;
          v.s_msg <- bc.d_msg;
          v.s_len <- bc.d_len
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
    let memos = Array.init n (fun _ -> { m_msgs = [||]; m_encs = [||] }) in
    let views = Array.map empty_view ids in
    let bufs = { decoded = [||]; bcast = empty_view (-1) } in
    let tbl = Payloads.create () and gids = Ibuf.create () in
    let w = Wire.Writer.create () and ib = Frame.inbuf () in
    let continue_running = ref true in
    while !continue_running do
      for s = lo to hi - 1 do
        match states.(s) with
        | Running _ -> intern_outbox tbl gids memos.(s) outs.(s)
        | Finished _ | Dead _ | Byz_node -> ()
      done;
      Frame.begin_framed w;
      Wire.Writer.add_gamma w !current_round;
      Wire.Writer.add_gamma w (Payloads.length tbl);
      for g = 0 to Payloads.length tbl - 1 do
        Payloads.add_entry w tbl g
      done;
      let cur = ref 0 in
      for s = lo to hi - 1 do
        match states.(s) with
        | Finished v ->
            Wire.Writer.add_gamma w 1;
            Wire.Writer.add_gamma w v;
            states.(s) <- Dead !current_round
        | Dead _ | Byz_node -> Wire.Writer.add_gamma w 0
        | Running _ -> write_outbox w ~index gids cur outs.(s)
      done;
      Payloads.clear tbl;
      Ibuf.clear gids;
      Frame.write_framed io w;
      let stop =
        read_reply (Frame.read_framed io ib) bufs ~round:!current_round ~ids
          ~lo ~hi views
      in
      if stop then continue_running := false
      else begin
        incr current_round;
        for s = lo to hi - 1 do
          match states.(s) with
          | Running k -> states.(s) <- resume outs.(s) k views.(s)
          | Finished _ | Dead _ | Byz_node -> ()
        done
      end
    done
end
