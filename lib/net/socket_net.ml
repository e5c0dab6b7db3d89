module Wire = Repro_sim.Wire
module Metrics = Repro_sim.Metrics
module Rng = Repro_util.Rng

(* Stream format version + endpoint check, first field of both handshake
   frames; bump when the frame layout changes. *)
let magic = 0x524e32

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

  let add_msg w (bytes, bits) =
    if String.length bytes <> (bits + 7) / 8 then
      invalid_arg "Socket_net.Codec.add_msg: bytes/bits mismatch";
    Wire.Writer.add_gamma w bits;
    Wire.Writer.add_string w bytes

  let read_msg r =
    let bits = Wire.Reader.read_gamma r in
    if bits > Wire.Reader.bits_remaining r then
      proto_error "embedded message of %d bits exceeds the frame" bits;
    (Wire.Reader.read_string r ((bits + 7) / 8), bits)
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
   (bits, bytes), and [idx] indexes the same frame's payload table):

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
   recipient. Both row lists are in ascending sender identity. *)

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

(* A round's payload table: distinct (bytes, bits) encodings in first-seen
   order. The hash table is only ever looked up, never iterated; the
   order lives in the arrays. *)
module Payloads = struct
  module Index = Hashtbl.Make (struct
    type t = string * int

    let equal (a, x) (b, y) = Int.equal x y && String.equal a b
    let hash (s, _) = String.hash s
  end)

  type t = {
    index : int Index.t;
    mutable bytes : string array;
    bits : Ibuf.t;
  }

  let create () =
    { index = Index.create 64; bytes = [||]; bits = Ibuf.create () }
  let length t = t.bits.len
  let bits t g = t.bits.a.(g)

  let clear t =
    Index.clear t.index;
    Ibuf.clear t.bits

  let intern t ((bytes, bits) as enc) =
    match Index.find_opt t.index enc with
    | Some g -> g
    | None ->
        let g = length t in
        if g = Array.length t.bytes then begin
          let b = Array.make (max 8 (2 * g)) "" in
          Array.blit t.bytes 0 b 0 g;
          t.bytes <- b
        end;
        t.bytes.(g) <- bytes;
        Ibuf.push t.bits bits;
        Index.add t.index enc g;
        g

  let add_entry w t g = Codec.add_msg w (t.bytes.(g), bits t g)
end

type config = { ids : int array; seed : int; n_hosts : int; extra : string }

type link_stats = {
  link_msgs : int array array;
  link_bits : int array array;
}

type result = {
  run : int Repro_sim.Engine.run_result;
  rounds : int;
  links : link_stats;
}

(* {2 Coordinator} *)

type slot_status = S_running | S_decided of int | S_crashed of int

(* A slot's outbox for the round being routed, messages named by their
   index in the round's payload table — the coordinator never decodes
   protocol payloads. *)
type round_outbox =
  | No_outbox
  | Ob_entries of { dsts : int array; gids : int array }
  | Ob_bcast of int

let ignore_sigpipe () =
  (* A peer dying between our read and write must surface as [EPIPE]
     on the write, not kill the process. No-op on systems without
     sigpipe. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Unix.Unix_error _ -> ()

let serve ~listen ~config ?(latency_s = 0.) ?(jitter_s = 0.) ?overlay_fanout
    ?(max_rounds = 100_000) ?on_message () =
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
  (* Round state. *)
  let status = Array.make n S_running in
  let outboxes = Array.make n No_outbox in
  (* The round's payload table, its broadcasts as (src, gid) pairs, and
     each slot's dedicated deliveries as (src, gid) pairs. *)
  let table = Payloads.create () in
  let bcasts = Ibuf.create () in
  let deliveries = Array.init n (fun _ -> Ibuf.create ()) in
  let alive = Array.make n_hosts true in
  let metrics = Metrics.create () in
  let link_msgs = Array.init n (fun _ -> Array.make n 0) in
  let link_bits = Array.init n (fun _ -> Array.make n 0) in
  let current_round = ref 0 in
  (* Delivery iterates senders in ascending identity order, like the
     engine, so every recipient's inbox arrives sorted by source id. *)
  let order = Array.init n (fun s -> s) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  (* Coordinator-private stream for the jitter/overlay knobs, derived
     away from the node streams (which split off [of_seed seed]). *)
  let knob_rng = Rng.of_seed (seed lxor 0x6e6574) in
  let bill src dst bits =
    link_msgs.(src).(dst) <- link_msgs.(src).(dst) + 1;
    link_bits.(src).(dst) <- link_bits.(src).(dst) + bits;
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
  let parse_host_frame h payload =
    let lo, hi = ranges.(h) in
    let r = Wire.Reader.of_string payload in
    let round = Wire.Reader.read_gamma r in
    if round <> !current_round then
      proto_error "host %d is at round %d, coordinator at %d" h round
        !current_round;
    let t = read_count r in
    let gid = Array.make t 0 in
    for i = 0 to t - 1 do
      gid.(i) <- Payloads.intern table (Codec.read_msg r)
    done;
    let read_gid () =
      let i = Wire.Reader.read_gamma r in
      if i >= t then proto_error "host %d: payload index %d of %d" h i t;
      gid.(i)
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
          let dsts = Array.make c 0 and gids = Array.make c 0 in
          for j = 0 to c - 1 do
            let dst = Wire.Reader.read_gamma r in
            if dst >= n then proto_error "host %d: destination slot %d" h dst;
            dsts.(j) <- dst;
            gids.(j) <- read_gid ()
          done;
          outboxes.(s) <- Ob_entries { dsts; gids }
      | 3 -> outboxes.(s) <- Ob_bcast (read_gid ())
      | t -> proto_error "host %d: unknown outbox tag %d" h t
    done
  in
  (* Broadcast billing under the sparse-overlay knob: a deterministic
     epidemic from the sender, every informed node pushing to [fanout]
     rng-chosen peers per hop until everyone is informed. Redundant
     transmissions are billed (that is the cost model being studied);
     delivery itself stays complete and is handled by the caller. The
     forced push keeps termination unconditional even for fanout 1. *)
  let gossip_bill src bits fanout =
    let informed = Array.make n false in
    informed.(src) <- true;
    let count = ref 1 in
    let frontier = ref [ src ] in
    while !count < n do
      let next = ref [] in
      List.iter
        (fun relay ->
          for _ = 1 to fanout do
            let t = Rng.int knob_rng n in
            bill relay t bits;
            if not informed.(t) then begin
              informed.(t) <- true;
              incr count;
              next := t :: !next
            end
          done)
        !frontier;
      (match !next with
      | [] when !count < n ->
          let u = ref (-1) in
          for d = n - 1 downto 0 do
            if not informed.(d) then u := d
          done;
          bill src !u bits;
          informed.(!u) <- true;
          incr count;
          next := [ !u ]
      | _ -> ());
      frontier := List.rev !next
    done
  in
  let route () =
    Array.iter
      (fun s ->
        match outboxes.(s) with
        | No_outbox -> ()
        | Ob_entries { dsts; gids } ->
            for j = 0 to Array.length dsts - 1 do
              bill s dsts.(j) (Payloads.bits table gids.(j));
              push dsts.(j) s gids.(j)
            done
        | Ob_bcast g -> (
            (* Like the engine: bill all n links (including self and
               already-finished recipients); every live slot receives
               the broadcast-table row. *)
            let bits = Payloads.bits table g in
            (match overlay_fanout with
            | None ->
                for d = 0 to n - 1 do
                  bill s d bits
                done
            | Some k -> gossip_bill s bits k);
            Ibuf.push bcasts s;
            Ibuf.push bcasts g))
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
    let w = Wire.Writer.create () in
    Wire.Writer.add_gamma w !current_round;
    Wire.Writer.add_gamma w (if stop then 1 else 0);
    if not stop then begin
      if Array.length !local < Payloads.length table then
        local := Array.make (Array.length table.bytes) (-1);
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
    Wire.Writer.contents w
  in
  let send_replies ~stop =
    for h = 0 to n_hosts - 1 do
      if alive.(h) then
        try Frame.write_frame ios.(h) (reply_frame h ~stop)
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
          match Frame.read_frame ios.(h) with
          | payload -> (
              try parse_host_frame h payload
              with Frame.Protocol_error _ | Invalid_argument _ -> kill_host h)
          | exception (Frame.Protocol_error _ | Unix.Unix_error _) ->
              kill_host h
      done;
      if any_running () then begin
        route ();
        Metrics.end_round metrics;
        if latency_s > 0. || jitter_s > 0. then begin
          let pause =
            latency_s
            +. (if jitter_s > 0. then jitter_s *. Rng.float knob_rng else 0.)
          in
          if pause > 0. then Unix.sleepf pause
        end;
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
  {
    run = { Repro_sim.Engine.outcomes; metrics };
    rounds = !current_round;
    links = { link_msgs; link_bits };
  }

(* {2 Host} *)

module Host (M : Network_intf.WIRE_MSG) = struct
  type msg = M.t

  type inbox = { ib_src : int array; ib_msg : M.t array; ib_len : int }

  module Inbox = struct
    type t = inbox

    let length t = t.ib_len

    let iter t ~f =
      for i = 0 to t.ib_len - 1 do
        f ~src:t.ib_src.(i) t.ib_msg.(i)
      done

    let fold t ~init ~f =
      let acc = ref init in
      for i = 0 to t.ib_len - 1 do
        acc := f !acc ~src:t.ib_src.(i) t.ib_msg.(i)
      done;
      !acc

    let fold_rev t ~init ~f =
      let acc = ref init in
      for i = t.ib_len - 1 downto 0 do
        acc := f !acc ~src:t.ib_src.(i) t.ib_msg.(i)
      done;
      !acc

    let pairs t =
      fold_rev t ~init:[] ~f:(fun acc ~src msg -> (src, msg) :: acc)

    let of_pairs_unchecked ~dst:_ pairs =
      match pairs with
      | [] -> { ib_src = [||]; ib_msg = [||]; ib_len = 0 }
      | (_, m0) :: _ ->
          let len = List.length pairs in
          let ib_src = Array.make len 0 in
          let ib_msg = Array.make len m0 in
          List.iteri
            (fun i (src, m) ->
              ib_src.(i) <- src;
              ib_msg.(i) <- m)
            pairs;
          { ib_src; ib_msg; ib_len = len }
  end

  type outbox =
    | Ob_list of (int * M.t) list
    | Ob_multi of int list * M.t
    | Ob_sized of { dsts : int array; msgs : M.t array; len : int }
    | Ob_bcast of M.t

  type ctx = {
    slot : int;
    ids : int array;
    id_to_slot : (int, int) Hashtbl.t;
    node_rng : Rng.t;
    current_round : int ref;
  }

  type _ Effect.t += Exchange : outbox -> inbox Effect.t

  let my_id ctx = ctx.ids.(ctx.slot)
  let n ctx = Array.length ctx.ids
  let all_ids ctx = ctx.ids
  let round ctx = !(ctx.current_round)
  let rng ctx = ctx.node_rng
  let exchange _ctx l = Effect.perform (Exchange (Ob_list l))

  let multisend _ctx ~dsts m = Effect.perform (Exchange (Ob_multi (dsts, m)))

  let broadcast _ctx m = Effect.perform (Exchange (Ob_bcast m))
  let skip_round _ctx = Effect.perform (Exchange (Ob_list []))

  let exchange_sized _ctx ~dsts ~msgs ~sizes:_ ~len =
    (* Sizes are recomputed from the exact codec at frame build; the
       [sizes.(k) = bits msgs.(k)] contract makes that the same bill.
       Holding the caller's arrays is safe: they are read before the
       continuation resumes, i.e. before this call returns. *)
    Effect.perform (Exchange (Ob_sized { dsts; msgs; len }))

  type step =
    | Done of int
    | Yield of outbox * (inbox, step) Effect.Deep.continuation

  let start_fiber program ctx : step =
    Effect.Deep.match_with
      (fun () -> Done (program ctx))
      ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Exchange outbox ->
                Some
                  (fun (k : (a, _) Effect.Deep.continuation) ->
                    Yield (outbox, k))
            | _ -> None);
      }

  let slot_of ctx_tbl dst =
    match Hashtbl.find_opt ctx_tbl dst with
    | Some s -> s
    | None ->
        invalid_arg
          (Printf.sprintf "Socket_net: destination %d is not a participant"
             dst)

  (* A round frame takes two passes over the outboxes: [intern_outbox]
     adds each payload to the frame's table and records its index in
     [gids], in frame order; once the table is written, [write_outbox]
     emits the slot record, taking the indices back from [gids] at
     [cur]. *)
  let intern_outbox tbl gids outbox =
    let add m = Ibuf.push gids (Payloads.intern tbl (M.encode m)) in
    match outbox with
    | Ob_bcast m | Ob_multi (_, m) -> add m
    | Ob_list l -> List.iter (fun (_, m) -> add m) l
    | Ob_sized { msgs; len; _ } ->
        for j = 0 to len - 1 do
          add msgs.(j)
        done

  let write_outbox w ~id_to_slot (gids : Ibuf.t) cur outbox =
    let next () =
      incr cur;
      gids.a.(!cur - 1)
    in
    let entry dst g =
      Wire.Writer.add_gamma w (slot_of id_to_slot dst);
      Wire.Writer.add_gamma w g
    in
    match outbox with
    | Ob_bcast _ ->
        Wire.Writer.add_gamma w 3;
        Wire.Writer.add_gamma w (next ())
    | Ob_multi (dsts, _) ->
        Wire.Writer.add_gamma w 2;
        Wire.Writer.add_gamma w (List.length dsts);
        let g = next () in
        List.iter (fun dst -> entry dst g) dsts
    | Ob_list l ->
        Wire.Writer.add_gamma w 2;
        Wire.Writer.add_gamma w (List.length l);
        List.iter (fun (dst, _) -> entry dst (next ())) l
    | Ob_sized { dsts; len; _ } ->
        Wire.Writer.add_gamma w 2;
        Wire.Writer.add_gamma w len;
        for j = 0 to len - 1 do
          entry dsts.(j) (next ())
        done

  let empty_inbox = { ib_src = [||]; ib_msg = [||]; ib_len = 0 }

  (* [c] (source slot, payload index) rows, as an inbox. *)
  let read_rows r ~ids ~msgs c =
    if c = 0 then empty_inbox
    else begin
      let t = Array.length msgs in
      if t = 0 then proto_error "%d rows name an empty payload table" c;
      let ib_src = Array.make c 0 and ib_msg = Array.make c msgs.(0) in
      for i = 0 to c - 1 do
        let src = Wire.Reader.read_gamma r in
        if src >= Array.length ids then proto_error "source slot %d" src;
        let k = Wire.Reader.read_gamma r in
        if k >= t then proto_error "payload index %d of %d" k t;
        ib_src.(i) <- ids.(src);
        ib_msg.(i) <- msgs.(k)
      done;
      { ib_src; ib_msg; ib_len = c }
    end

  (* Two inboxes in ascending source identity with disjoint sources (a
     sender has one outbox shape per round), merged in that order. *)
  let merge a b =
    if b.ib_len = 0 then a
    else if a.ib_len = 0 then b
    else begin
      let len = a.ib_len + b.ib_len in
      let ib_src = Array.make len 0 and ib_msg = Array.make len a.ib_msg.(0) in
      let i = ref 0 and j = ref 0 in
      for k = 0 to len - 1 do
        if !j >= b.ib_len || (!i < a.ib_len && a.ib_src.(!i) < b.ib_src.(!j))
        then begin
          ib_src.(k) <- a.ib_src.(!i);
          ib_msg.(k) <- a.ib_msg.(!i);
          incr i
        end
        else begin
          ib_src.(k) <- b.ib_src.(!j);
          ib_msg.(k) <- b.ib_msg.(!j);
          incr j
        end
      done;
      { ib_src; ib_msg; ib_len = len }
    end

  (* A round's reply: [true] for stop, else [inboxes] filled for the
     host's slots. Each payload-table entry is decoded once and shared by
     every recipient ([M.t] values are immutable). A frame that ends
     early is malformed like any other bad field. *)
  let read_reply payload ~round ~ids ~lo ~hi inboxes =
    let r = Wire.Reader.of_string payload in
    try
      let got = Wire.Reader.read_gamma r in
      if got <> round then
        proto_error "reply for round %d at round %d" got round;
      if Wire.Reader.read_gamma r = 1 then true
      else begin
        let t = read_count r in
        let msgs =
          Array.init t (fun _ ->
              match M.decode (fst (Codec.read_msg r)) with
              | Some m -> m
              | None -> proto_error "undecodable payload")
        in
        let bcast = read_rows r ~ids ~msgs (read_count r) in
        for s = lo to hi - 1 do
          inboxes.(s) <- merge bcast (read_rows r ~ids ~msgs (read_count r))
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
    let id_to_slot = Hashtbl.create (2 * n) in
    Array.iteri
      (fun s id ->
        if Hashtbl.mem id_to_slot id then
          proto_error "config: duplicate identity %d" id;
        Hashtbl.add id_to_slot id s)
      ids;
    let current_round = ref 0 in
    let prog = program ~extra in
    (* Fibers hold their outbox + continuation; freshly decided results
       are reported in the next frame, then the slot goes idle. *)
    let states :
        (outbox * (inbox, step) Effect.Deep.continuation) option array =
      Array.make n None
    in
    let fresh : int option array = Array.make n None in
    let settle s = function
      | Done v -> fresh.(s) <- Some v
      | Yield (outbox, k) -> states.(s) <- Some (outbox, k)
    in
    (* Split the master stream once per slot in global slot order — the
       exact derivation the engine performs — keeping only our slice. *)
    let master = Rng.of_seed seed in
    for s = 0 to n - 1 do
      let node_rng = Rng.split master in
      if s >= lo && s < hi then
        let ctx = { slot = s; ids; id_to_slot; node_rng; current_round } in
        settle s (start_fiber prog ctx)
    done;
    let inboxes = Array.make n empty_inbox in
    let tbl = Payloads.create () and gids = Ibuf.create () in
    let continue_running = ref true in
    while !continue_running do
      for s = lo to hi - 1 do
        match (fresh.(s), states.(s)) with
        | None, Some (outbox, _) -> intern_outbox tbl gids outbox
        | Some _, _ | None, None -> ()
      done;
      let w = Wire.Writer.create () in
      Wire.Writer.add_gamma w !current_round;
      Wire.Writer.add_gamma w (Payloads.length tbl);
      for g = 0 to Payloads.length tbl - 1 do
        Payloads.add_entry w tbl g
      done;
      let cur = ref 0 in
      for s = lo to hi - 1 do
        match (fresh.(s), states.(s)) with
        | Some v, _ ->
            Wire.Writer.add_gamma w 1;
            Wire.Writer.add_gamma w v;
            fresh.(s) <- None
        | None, None -> Wire.Writer.add_gamma w 0
        | None, Some (outbox, _) -> write_outbox w ~id_to_slot gids cur outbox
      done;
      Payloads.clear tbl;
      Ibuf.clear gids;
      Frame.write_frame io (Wire.Writer.contents w);
      let stop =
        read_reply (Frame.read_frame io) ~round:!current_round ~ids ~lo ~hi
          inboxes
      in
      if stop then continue_running := false
      else begin
        incr current_round;
        for s = lo to hi - 1 do
          match states.(s) with
          | Some (_, k) ->
              states.(s) <- None;
              settle s (Effect.Deep.continue k inboxes.(s));
              inboxes.(s) <- empty_inbox
          | None -> ()
        done
      end
    done
end
