(* Robustness of the socket transport's framing: partial reads / short
   writes, oversized and truncated frames, and framed codec round-trips
   for every protocol's message type. The multi-process half (forked
   hosts, mid-round failures) lives in test/net_proc — OCaml 5 forbids
   [Unix.fork] once a domain has been spawned, and this suite runs after
   the shard/parallel tests. *)

module Frame = Repro_net.Frame
module SN = Repro_net.Socket_net
module Wire = Repro_sim.Wire
module CR = Repro_renaming.Crash_renaming
module FL = Repro_renaming.Flooding_renaming
module BZ = Repro_renaming.Byzantine_renaming
module Fingerprint = Repro_crypto.Fingerprint

(* {2 In-memory io shims}

   The exact partial-read / short-write behaviour a kernel socket can
   exhibit, made deterministic: reads and writes move at most [chunk]
   bytes per call. *)

let mem_writer ~chunk =
  let buf = Buffer.create 64 in
  ( buf,
    {
      Frame.read = (fun _ _ _ -> failwith "write-only io");
      write =
        (fun b pos len ->
          let k = min chunk len in
          Buffer.add_subbytes buf b pos k;
          k);
    } )

let mem_reader ~chunk data =
  let pos = ref 0 in
  {
    Frame.read =
      (fun b dst len ->
        let k = min chunk (min len (String.length data - !pos)) in
        Bytes.blit_string data !pos b dst k;
        pos := !pos + k;
        k);
    write = (fun _ _ _ -> failwith "read-only io");
  }

let test_partial_io () =
  let payloads = [ ""; "x"; "hello, frames"; String.make 1000 '\x7f' ] in
  List.iter
    (fun chunk ->
      let buf, wio = mem_writer ~chunk in
      List.iter (fun p -> Frame.write_frame wio p) payloads;
      let rio = mem_reader ~chunk (Buffer.contents buf) in
      List.iter
        (fun p ->
          Alcotest.(check string)
            (Printf.sprintf "chunk %d roundtrip" chunk)
            p (Frame.read_frame rio))
        payloads;
      Alcotest.check_raises "clean EOF at boundary"
        (Frame.Protocol_error "eof at frame boundary") (fun () ->
          ignore (Frame.read_frame rio)))
    [ 1; 2; 3; 7; 4096 ]

(* Frame payloads as writer streams: byte strings after gamma fields, so
   some start off a byte boundary. Long and short alternate, so a reused
   writer or read buffer holds stale bytes from a longer frame. *)
let payload_streams =
  [
    [ `S (String.make 1000 '\x7f') ];
    [];
    [ `G 5; `S "hello, frames" ];
    [ `S "x" ];
    [ `G 1_000_000; `G 0; `S (String.make 300 '\xa5'); `G 7 ];
    [ `G 3 ];
  ]

let write_stream w =
  List.iter (function
    | `G v -> Wire.Writer.add_gamma w v
    | `S s -> Wire.Writer.add_string w s)

let contents_of stream =
  let w = Wire.Writer.create () in
  write_stream w stream;
  Wire.Writer.contents w

let test_framed_in_place () =
  List.iter
    (fun chunk ->
      let want, wio = mem_writer ~chunk in
      let got, gio = mem_writer ~chunk in
      let w = Wire.Writer.create () in
      List.iter
        (fun stream ->
          Frame.write_frame wio (contents_of stream);
          Frame.begin_framed w;
          write_stream w stream;
          Frame.write_framed gio w)
        payload_streams;
      Alcotest.(check string)
        (Printf.sprintf "chunk %d: in-place frames = write_frame's" chunk)
        (Buffer.contents want) (Buffer.contents got);
      (* One retained read buffer across the same frames: each reader
         spans exactly its frame. *)
      let rio = mem_reader ~chunk (Buffer.contents want) in
      let ib = Frame.inbuf () in
      List.iter
        (fun stream ->
          let payload = contents_of stream in
          let r = Frame.read_framed rio ib in
          Alcotest.(check int)
            (Printf.sprintf "chunk %d: reader bound" chunk)
            (8 * String.length payload)
            (Wire.Reader.bits_remaining r);
          Alcotest.(check string)
            (Printf.sprintf "chunk %d: payload" chunk)
            payload
            (Wire.Reader.read_string r (String.length payload)))
        payload_streams;
      match Frame.read_framed rio ib with
      | _ -> Alcotest.fail "read past the last frame"
      | exception Frame.Protocol_error _ -> ())
    [ 1; 2; 3; 4; 5; 6; 7 ]

let test_write_no_progress () =
  let stuck =
    {
      Frame.read = (fun _ _ _ -> 0);
      write = (fun _ _ _ -> 0);
    }
  in
  Alcotest.check_raises "stuck writer"
    (Frame.Protocol_error "write returned no progress") (fun () ->
      Frame.write_frame stuck "abc")

let test_oversized_prefix () =
  (* 4-byte header claiming a payload far above [max_frame]. *)
  let hdr = "\xff\xff\xff\xff" in
  let rio = mem_reader ~chunk:4096 hdr in
  (match Frame.read_frame rio with
  | _ -> Alcotest.fail "oversized prefix accepted"
  | exception Frame.Protocol_error _ -> ());
  (* A frame of exactly [max_frame] must still be readable in principle:
     the header alone parses (payload truncation is a separate error). *)
  let ok_hdr = "\x01\x00\x00\x00" (* 2^24 = max_frame *) in
  match Frame.read_frame (mem_reader ~chunk:4096 ok_hdr) with
  | _ -> Alcotest.fail "truncated payload accepted"
  | exception Frame.Protocol_error msg ->
      Alcotest.(check string) "payload eof" "eof inside frame" msg

(* {2 Host-side round frames}

   An in-process host over a socketpair whose coordinator end has every
   frame queued up front (they fit in the socket buffer), so no peer
   process is needed. Three slots on one host; identities out of slot
   order, so ascending-identity merging is observable.

   The coordinator end stays open while the host runs, so a host that
   waits for a frame that never comes would block forever: its socket
   times a read out after 10 s instead, raising [Unix_error EAGAIN],
   which [Frame] does not retry and the case reports as a failure. *)

let with_host_socket frames run =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float b Unix.SO_RCVTIMEO 10.;
  let io = Frame.io_of_fd a in
  List.iter (Frame.write_frame io) frames;
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () -> run b)

(* A payload field as frames carry it, [Msg.encode]'s shape: the bit
   length, then the bytes. *)
let add_msg w (bytes, bits) =
  Wire.Writer.add_gamma w bits;
  Wire.Writer.add_string w bytes

module TMsg = struct
  type t = Ping of int

  let bits (Ping v) = Wire.gamma_bits v
  let pp ppf (Ping v) = Format.fprintf ppf "ping(%d)" v

  let write w (Ping v) = Wire.Writer.add_gamma w v
  let read r = Ping (Wire.Reader.read_gamma r)
  let encode m = Wire.encode_with write m
  let decode s = Wire.decode_with read s
end

module H = SN.Host (TMsg)

let host_ids = [| 30; 10; 20 |]

let config_frame =
  let w = Wire.Writer.create () in
  List.iter (Wire.Writer.add_gamma w)
    ([ SN.magic; Array.length host_ids; 1; 0 ] @ Array.to_list host_ids);
  (* the extra blob, empty: its byte length *)
  Wire.Writer.add_gamma w 0;
  Wire.Writer.contents w

(* A coordinator reply for [round]: payload table of raw (bytes, bits)
   entries, the payload-vector table, the broadcast rows as (source
   slot, index) pairs, the destination lists as slot lists, and the
   records: [`Fan (src, list, index)], [`Batch (src, list, indices)],
   whose vector of payload indices is interned into the vector table
   after [vectors], or [`Vec (src, list, vector)] naming a vector by its
   raw index. *)
type record =
  [ `Fan of int * int * int
  | `Batch of int * int * int list
  | `Vec of int * int * int ]

let reply_with_vectors ~round ~table ~vectors ~bcast ~lists
    ~(records : record list) =
  let vectors =
    List.fold_left
      (fun vs -> function
        | `Batch (_, _, ks) when not (List.mem ks vs) -> vs @ [ ks ]
        | `Batch _ | `Fan _ | `Vec _ -> vs)
      vectors records
  in
  let index ks =
    let rec go i = function
      | v :: _ when v = ks -> i
      | _ :: vs -> go (i + 1) vs
      | [] -> assert false
    in
    go 0 vectors
  in
  let w = Wire.Writer.create () in
  let gammas = List.iter (Wire.Writer.add_gamma w) in
  let counted l =
    Wire.Writer.add_gamma w (List.length l);
    gammas l
  in
  gammas [ round; 0; List.length table ];
  List.iter (add_msg w) table;
  Wire.Writer.add_gamma w (List.length vectors);
  List.iter counted vectors;
  Wire.Writer.add_gamma w (List.length bcast);
  List.iter (fun (src, k) -> gammas [ src; k ]) bcast;
  Wire.Writer.add_gamma w (List.length lists);
  List.iter counted lists;
  Wire.Writer.add_gamma w (List.length records);
  List.iter
    (function
      | `Fan (src, l, k) -> gammas [ src; 4; l; k ]
      | `Batch (src, l, ks) -> gammas [ src; 2; l; index ks ]
      | `Vec (src, l, v) -> gammas [ src; 2; l; v ])
    records;
  Wire.Writer.contents w

let reply_frame_at ~round ~table ~bcast ~lists ~records =
  reply_with_vectors ~round ~table ~vectors:[] ~bcast ~lists ~records

(* Round 0's. *)
let reply_frame = reply_frame_at ~round:0

let stop_frame ~round =
  let w = Wire.Writer.create () in
  Wire.Writer.add_gamma w round;
  Wire.Writer.add_gamma w 1;
  Wire.Writer.contents w

(* Every section populated: two payloads, a broadcast from slot 1 (id
   10), a fan from slot 2 (id 20) and a batch from slot 0 (id 30), over
   two lists, and one slot with no dedicated deliveries. *)
let full_reply =
  reply_frame
    ~table:[ TMsg.encode (Ping 5); TMsg.encode (Ping 7) ]
    ~bcast:[ (1, 0) ]
    ~lists:[ [ 0 ]; [ 0; 2 ] ]
    ~records:[ `Fan (2, 0, 1); `Batch (0, 1, [ 1; 0 ]) ]

(* Run the host against [frames]; each node broadcasts once, records its
   inbox as (source id, value) pairs and decides. *)
let run_host ?(config = config_frame) frames =
  let seen = ref [] in
  let program ~extra:_ ctx =
    let inbox = H.broadcast ctx (TMsg.Ping 1) in
    let pairs =
      List.map (fun (src, TMsg.Ping v) -> (src, v)) (H.Inbox.pairs inbox)
    in
    seen := (H.my_id ctx, pairs) :: !seen;
    0
  in
  with_host_socket (config :: frames) (fun fd ->
      H.run ~fd ~host_index:0 ~program;
      List.sort (fun (x, _) (y, _) -> Int.compare x y) !seen)

let test_host_merges_tables () =
  Alcotest.(check (list (pair int (list (pair int int)))))
    "inboxes in ascending source identity"
    [
      (10, [ (10, 5) ]);
      (20, [ (10, 5); (30, 5) ]);
      (30, [ (10, 5); (20, 7); (30, 7) ]);
    ]
    (run_host [ full_reply; stop_frame ~round:1 ])

(* The stop frame behind the reply lets a host that wrongly accepts it
   finish, so the case fails instead of blocking on a reply that never
   comes. *)
let expect_host_rejects name reply =
  match run_host [ reply; stop_frame ~round:1 ] with
  | _ -> Alcotest.fail (name ^ ": malformed reply accepted")
  | exception Frame.Protocol_error _ -> ()

let test_host_rejects_malformed_tables () =
  let ping v = TMsg.encode (Ping v) in
  let reply = reply_frame ~table:[ ping 5 ] in
  expect_host_rejects "fan payload index >= table size"
    (reply ~bcast:[] ~lists:[ [ 2 ] ] ~records:[ `Fan (0, 0, 1) ]);
  expect_host_rejects "vector entry past the payload table"
    (reply ~bcast:[] ~lists:[ [ 2 ] ] ~records:[ `Batch (0, 0, [ 1 ]) ]);
  expect_host_rejects "vector index past the vector table"
    (reply_with_vectors ~round:0 ~table:[ ping 5 ] ~vectors:[ [ 0 ] ] ~bcast:[]
       ~lists:[ [ 2 ] ] ~records:[ `Vec (0, 0, 1) ]);
  expect_host_rejects "broadcast payload index >= table size"
    (reply ~bcast:[ (1, 1) ] ~lists:[] ~records:[]);
  expect_host_rejects "rows naming an empty table"
    (reply_frame ~table:[] ~bcast:[ (1, 0) ] ~lists:[] ~records:[]);
  expect_host_rejects "table count beyond the frame"
    (let w = Wire.Writer.create () in
     List.iter (Wire.Writer.add_gamma w) [ 0; 0; 10_000 ];
     Wire.Writer.contents w);
  expect_host_rejects "broadcast source slot out of range"
    (reply ~bcast:[ (3, 0) ] ~lists:[] ~records:[]);
  expect_host_rejects "record source slot out of range"
    (reply ~bcast:[] ~lists:[ [ 2 ] ] ~records:[ `Fan (3, 0, 0) ]);
  expect_host_rejects "record list index out of the table"
    (reply ~bcast:[] ~lists:[ [ 2 ] ] ~records:[ `Fan (0, 1, 0) ]);
  expect_host_rejects "list slot outside the host's range"
    (reply ~bcast:[] ~lists:[ [ 3 ] ] ~records:[ `Fan (0, 0, 0) ]);
  expect_host_rejects "vector shorter than its list"
    (reply ~bcast:[] ~lists:[ [ 0; 2 ] ] ~records:[ `Batch (0, 0, [ 0 ]) ]);
  expect_host_rejects "vector longer than its list"
    (reply ~bcast:[] ~lists:[ [ 2 ] ] ~records:[ `Batch (0, 0, [ 0; 0 ]) ]);
  expect_host_rejects "undecodable table payload"
    (reply_frame ~table:[ ping 5; ("", 0) ] ~bcast:[ (1, 0) ] ~lists:[]
       ~records:[]);
  (* Ping 5 is the 5 bits 00110: declared as 7 bits its read stops
     short, declared as 3 it would cross the payload's end. *)
  expect_host_rejects "payload read stops short of its length"
    (reply_frame ~table:[ ping 5; ("\x30", 7) ] ~bcast:[ (1, 0) ] ~lists:[]
       ~records:[]);
  expect_host_rejects "payload read crosses its length"
    (reply_frame ~table:[ ping 5; ("\x30", 3) ] ~bcast:[ (1, 0) ] ~lists:[]
       ~records:[])

(* A reply built from raw fields: gammas and [add_msg] entries. *)
let raw_frame fields =
  let w = Wire.Writer.create () in
  List.iter
    (function
      | `G v -> Wire.Writer.add_gamma w v
      | `M m -> add_msg w m)
    fields;
  Wire.Writer.contents w

let test_host_stale_bytes () =
  (* The round-1 reply is cut short after a longer round-0 reply, and the
     missing tail is exactly what the retained read buffer still holds:
     the two replies' header fields take the same 14 bits (round 0 with
     a 15-bit payload, Ping 127, round 1 with a 9-bit one, Ping 15, both
     2 bytes), and every bit from byte 3 on is equal. A reader bounded by
     the buffer's capacity would parse the cut reply whole; the host
     must reject it. *)
  let tail = [ `G 0; `G 1; `G 1; `G 0; `G 0; `G 0 ] in
  let long =
    raw_frame ([ `G 0; `G 0; `G 1; `M (TMsg.encode (Ping 127)) ] @ tail)
  in
  let full =
    raw_frame ([ `G 1; `G 0; `G 1; `M (TMsg.encode (Ping 15)) ] @ tail)
  in
  Alcotest.(check int)
    "replies of equal length" (String.length long) (String.length full);
  Alcotest.(check string)
    "equal from byte 3 on"
    (String.sub long 3 (String.length long - 3))
    (String.sub full 3 (String.length full - 3));
  ignore (run_host [ long; full; stop_frame ~round:2 ]);
  for cut = 0 to String.length full - 1 do
    match run_host [ long; String.sub full 0 cut; stop_frame ~round:2 ] with
    | _ -> Alcotest.failf "reply cut at byte %d accepted" cut
    | exception Frame.Protocol_error _ -> ()
  done

let test_host_rejects_non_participant () =
  with_host_socket [ config_frame ] (fun b ->
      Alcotest.check_raises "destination outside the ids"
        (Invalid_argument "Socket_net: destination 99 is not a participant")
        (fun () ->
          H.run ~fd:b ~host_index:0 ~program:(fun ~extra:_ ctx ->
              ignore (H.exchange ctx [ (99, TMsg.Ping 1) ]);
              0)))

let test_host_checks_exchange_sized () =
  (* The batch length is checked against the arrays at the call, as in
     the engine. *)
  with_host_socket [ config_frame ] (fun b ->
      Alcotest.check_raises "batch longer than its arrays"
        (Invalid_argument "Node.exchange_sized: batch length out of bounds")
        (fun () ->
          H.run ~fd:b ~host_index:0 ~program:(fun ~extra:_ ctx ->
              let dsts = [| H.my_id ctx |] and msgs = [| TMsg.Ping 1 |] in
              let sizes = Array.map TMsg.bits msgs in
              ignore
                (H.exchange_sized ctx ~dsts ~msgs ~sizes
                   ~len:(Array.length dsts + 1));
              0)))

let test_host_rejects_oversized_lengths () =
  (* A length field claiming 2^20 bytes, in a frame of a few bytes: the
     host rejects it against the frame's remaining bits as a protocol
     error, before allocating for it. *)
  let mib = 1 lsl 20 in
  let frame fields =
    let w = Wire.Writer.create () in
    List.iter (Wire.Writer.add_gamma w) fields;
    Wire.Writer.add_string w "padding";
    Wire.Writer.contents w
  in
  let expect name f =
    let before = Gc.allocated_bytes () in
    (match f () with
    | _ -> Alcotest.fail (name ^ ": accepted")
    | exception Frame.Protocol_error _ -> ());
    let allocated = Gc.allocated_bytes () -. before in
    if allocated >= float_of_int mib then
      Alcotest.failf "%s: allocated %.0f bytes" name allocated
  in
  expect "reply payload entry of 2^20 bytes" (fun () ->
      run_host [ frame [ 0; 0; 1; 8 * mib ] ]);
  expect "config blob of 2^20 bytes" (fun () ->
      run_host
        ~config:
          (frame
             ([ SN.magic; Array.length host_ids; 1; 0 ]
             @ Array.to_list host_ids @ [ mib ]))
        [])

let test_truncation () =
  (* EOF after a partial header. *)
  List.iter
    (fun partial ->
      Alcotest.check_raises "truncated header"
        (Frame.Protocol_error "eof inside frame header") (fun () ->
          ignore (Frame.read_frame (mem_reader ~chunk:1 partial))))
    [ "\x00"; "\x00\x00"; "\x00\x00\x00" ];
  (* EOF inside the payload, at every cut point. *)
  let buf, wio = mem_writer ~chunk:4096 in
  Frame.write_frame wio "abcdef";
  let whole = Buffer.contents buf in
  for cut = 4 to String.length whole - 1 do
    match Frame.read_frame (mem_reader ~chunk:1 (String.sub whole 0 cut)) with
    | _ -> Alcotest.fail "truncated payload accepted"
    | exception Frame.Protocol_error _ -> ()
  done;
  (* A round reply with every section: cut anywhere in the byte stream,
     the frame layer rejects it; framed whole but cut anywhere in its
     payload, the host rejects it. *)
  let buf, wio = mem_writer ~chunk:4096 in
  Frame.write_frame wio full_reply;
  let whole = Buffer.contents buf in
  for cut = 0 to String.length whole - 1 do
    match Frame.read_frame (mem_reader ~chunk:1 (String.sub whole 0 cut)) with
    | _ -> Alcotest.fail "truncated round frame accepted"
    | exception Frame.Protocol_error _ -> ()
  done;
  for cut = 0 to String.length full_reply - 1 do
    expect_host_rejects
      (Printf.sprintf "reply cut at byte %d" cut)
      (String.sub full_reply 0 cut)
  done

(* {2 Framed codec round-trips}

   Every message constructor of every protocol, as a host reads it off
   the wire: the coordinator's reply carries the [encode]d samples as
   its payload table and one batch that delivers them all, in order, to
   slot 0. The host reads each payload in place with [M.read], bounded
   to its declared bits, and rejects the frame if a read stops short of
   them or would cross them. Each delivered message must re-encode to
   the same bytes and bit length (value equality via the codec, which
   avoids comparing abstract payload types structurally). *)

let roundtrip_framed (type a) (module M : Repro_net.Network_intf.WIRE_MSG
                       with type t = a) name (samples : a list) =
  let module H = SN.Host (M) in
  List.iteri
    (fun i m ->
      Alcotest.(check int)
        (Printf.sprintf "%s[%d] bits = Msg.bits" name i)
        (M.bits m)
        (snd (M.encode m)))
    samples;
  let k = List.length samples in
  let reply =
    reply_frame ~table:(List.map M.encode samples) ~bcast:[]
      ~lists:[ List.init k (fun _ -> 0) ]
      ~records:[ `Batch (0, 0, List.init k Fun.id) ]
  in
  let got = ref [] in
  let program ~extra:_ ctx =
    let inbox = H.broadcast ctx (List.hd samples) in
    if H.my_id ctx = host_ids.(0) then got := List.map snd (H.Inbox.pairs inbox);
    0
  in
  with_host_socket [ config_frame; reply; stop_frame ~round:1 ] (fun fd ->
      H.run ~fd ~host_index:0 ~program);
  Alcotest.(check int) (name ^ ": every sample delivered") k
    (List.length !got);
  List.iteri
    (fun i (m, m') ->
      let e_bytes, e_bits = M.encode m and r_bytes, r_bits = M.encode m' in
      Alcotest.(check string)
        (Printf.sprintf "%s[%d] re-encode bytes" name i)
        e_bytes r_bytes;
      Alcotest.(check int)
        (Printf.sprintf "%s[%d] re-encode bits" name i)
        e_bits r_bits)
    (List.combine samples !got)

(* {2 The payload table}

   Random payloads, each embedded at every bit offset 0–7 of its own
   stream: a payload interned where it lies is one entry whatever its
   offset, entries are numbered in first-seen order, two payloads share
   an entry exactly when their bits and padded bytes agree, and
   [add_entry] writes back the field [add_msg] wrote. *)
let qcheck_payload_table =
  let payload =
    QCheck.Gen.(
      let* bits = int_range 0 40 in
      let* raw = string_size ~gen:char (return ((bits + 7) / 8)) in
      (* keep the padding zero, as an encoder leaves it *)
      let pad = (8 - (bits land 7)) land 7 in
      let bytes =
        String.mapi
          (fun i c ->
            if i = String.length raw - 1 then
              Char.chr (Char.code c land (0xff lsl pad) land 0xff)
            else c)
          raw
      in
      return (bytes, bits))
  in
  QCheck.Test.make ~name:"payload table interns in place" ~count:300
    QCheck.(
      make
        ~print:(fun l ->
          String.concat "; "
            (List.map (fun (b, n) -> Printf.sprintf "%S/%d" b n) l))
        Gen.(
          list_size (int_range 1 12)
            (oneof [ oneofl [ ("", 0); ("\x80", 1); ("\x80", 2) ]; payload ])))
    (fun payloads ->
      let module P = Repro_net.Round_tables.Payloads in
      let t = P.create () in
      let distinct = ref [] in
      let ok = ref true in
      List.iter
        (fun e ->
          let first =
            match List.assoc_opt e !distinct with
            | Some g -> g
            | None ->
                let g = List.length !distinct in
                distinct := !distinct @ [ (e, g) ];
                g
          in
          for k = 0 to 7 do
            let w = Wire.Writer.create () in
            Wire.Writer.add_fixed w 0 ~width:k;
            add_msg w e;
            let r = Wire.Reader.of_string (Wire.Writer.contents w) in
            Wire.Reader.skip r k;
            if P.read_entry r t <> first then ok := false;
            let back = Wire.Writer.create () and want = Wire.Writer.create () in
            P.add_entry back t first;
            add_msg want e;
            if Wire.Writer.contents back <> Wire.Writer.contents want then
              ok := false
          done)
        payloads;
      !ok && P.length t = List.length !distinct)

(* ["\x80"] at 1 bit and at 2 bits have the same padded byte, so they
   hash alike and only [holds]'s bit-length comparison keeps them two
   entries. *)
let test_payload_table_lengths () =
  let module P = Repro_net.Round_tables.Payloads in
  let t = P.create () in
  let data = Bytes.of_string "\x80" in
  let one = P.intern t data ~pos:0 ~bits:1 in
  let two = P.intern t data ~pos:0 ~bits:2 in
  Alcotest.(check (pair int int)) "two entries, first-seen order" (0, 1)
    (one, two);
  Alcotest.(check int) "table length" 2 (P.length t);
  Alcotest.(check int) "1-bit payload re-interned" one
    (P.intern t data ~pos:0 ~bits:1);
  Alcotest.(check int) "2-bit payload re-interned" two
    (P.intern t data ~pos:0 ~bits:2);
  Alcotest.(check (pair int int)) "bit lengths" (1, 2) (P.bits t one, P.bits t two)

let test_codec_roundtrips () =
  let iv = Repro_util.Interval.make 3 10 in
  roundtrip_framed
    (module CR.Msg)
    "crash"
    [
      CR.Msg.Notify;
      CR.Msg.Status { id = 71; iv; d = 2; p = 1 };
      CR.Msg.Response { iv; d = 11; p = 0 };
    ];
  (* halving shares [CR.Msg]; flooding's set message exercises the
     delta-gamma list codec *)
  roundtrip_framed
    (module FL.Msg)
    "flooding"
    [ FL.Msg.Known []; FL.Msg.Known [ 1 ]; FL.Msg.Known [ 2; 71; 4096 ] ];
  let fp =
    Fingerprint.of_segment
      (Fingerprint.key_of_seed 42)
      (Repro_util.Bitvec.create 64)
      (Repro_util.Interval.make 1 64)
  in
  roundtrip_framed
    (module BZ.Msg)
    "byz"
    [
      BZ.Msg.Elect;
      BZ.Msg.Announce;
      BZ.Msg.Pk_vote true;
      BZ.Msg.Pk_propose false;
      BZ.Msg.Pk_king true;
      BZ.Msg.Vld_input (fp, 17);
      BZ.Msg.Vld_lock_none;
      BZ.Msg.Vld_lock (fp, 3);
      BZ.Msg.Vld_raw_input ("\x01\x02", 2);
      BZ.Msg.Vld_raw_lock ("\xff", 8);
      BZ.Msg.Vld_raw_lock_none;
      BZ.Msg.Diff true;
      BZ.Msg.New None;
      BZ.Msg.New (Some 12);
    ]

(* [wait_for_mail] on the host: a slot asleep through empty rounds
   stages the empty batch a [skip_round] would, so the host's frames
   are byte-equal to a skip loop's. Slot 1 (id 10) skips three rounds,
   broadcasts [Ping 5] and returns; slots 0 and 2 wait, answer a mail
   with one exchange and stop at [Ping 5]. The scripted coordinator
   fans [Ping 9] from slot 1 to slot 0 in round 1 and broadcasts slot
   1's [Ping 5] in round 3, so slot 0 sleeps through rounds 0 and 3 and
   slot 2 through rounds 0–2. *)
let test_host_wait_for_mail_frames () =
  let empty round =
    reply_frame_at ~round ~table:[] ~bcast:[] ~lists:[] ~records:[]
  in
  let replies =
    [
      empty 0;
      reply_frame_at ~round:1 ~table:[ TMsg.encode (Ping 9) ] ~bcast:[]
        ~lists:[ [ 0 ] ] ~records:[ `Fan (1, 0, 0) ];
      empty 2;
      reply_frame_at ~round:3 ~table:[ TMsg.encode (Ping 5) ]
        ~bcast:[ (1, 0) ] ~lists:[] ~records:[];
      stop_frame ~round:4;
    ]
  in
  let host_frames wait =
    let mails = ref [] and empties = ref 0 in
    let program ~extra:_ ctx =
      let me = H.my_id ctx in
      if me = 10 then begin
        for _ = 1 to 3 do
          ignore (H.skip_round ctx)
        done;
        ignore (H.broadcast ctx (TMsg.Ping 5));
        0
      end
      else
        let rec loop () =
          let inbox = wait ctx in
          let pairs =
            List.map (fun (src, TMsg.Ping v) -> (src, v)) (H.Inbox.pairs inbox)
          in
          match pairs with
          | [] ->
              incr empties;
              loop ()
          | (src, _) :: _ ->
              mails := (me, H.round ctx, pairs) :: !mails;
              if List.exists (fun (_, v) -> v = 5) pairs then me
              else begin
                ignore (H.exchange ctx [ (src, TMsg.Ping me) ]);
                loop ()
              end
        in
        loop ()
    in
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float a Unix.SO_RCVTIMEO 10.;
    Unix.setsockopt_float b Unix.SO_RCVTIMEO 10.;
    let io = Frame.io_of_fd a in
    List.iter (Frame.write_frame io) (config_frame :: replies);
    Fun.protect
      ~finally:(fun () ->
        Unix.close a;
        Unix.close b)
      (fun () ->
        H.run ~fd:b ~host_index:0 ~program;
        (* The hello, then one round frame per reply. *)
        let frames =
          List.map (fun _ -> Frame.read_frame io) (config_frame :: replies)
        in
        (frames, List.rev !mails, !empties))
  in
  let rec skip_loop ctx =
    let inbox = H.skip_round ctx in
    if H.Inbox.length inbox = 0 then skip_loop ctx else inbox
  in
  let skip_frames, skip_mails, _ = host_frames skip_loop in
  let frames, mails, empties = host_frames H.wait_for_mail in
  Alcotest.(check (list string)) "frames byte-equal" skip_frames frames;
  Alcotest.(check (list (triple int int (list (pair int int)))))
    "mail" skip_mails mails;
  Alcotest.(check (list (triple int int (list (pair int int)))))
    "mail as scripted"
    [ (30, 2, [ (10, 9) ]); (30, 4, [ (10, 5) ]); (20, 4, [ (10, 5) ]) ]
    mails;
  Alcotest.(check int) "no wait_for_mail returned an empty inbox" 0 empties

(* {2 The receive memo}

   A host remembers, per source slot and position in that sender's row
   or record, the last message it resolved there and that message's
   encoding. A table entry used at the same position with the same bit
   length and bits is the remembered message, not read again; any other
   entry is read with [M.read], or rejected. *)

(* Every node skips [rounds] rounds against [replies] (round [r]'s reply
   at [r]); per round, what slot 0 (id 30) received, in arrival order,
   and the minor words its [skip_round] call took. The call spans the
   host's whole round: the other slots' turns, the frame out and the
   reply in. *)
let slot0_rounds (type a)
    (module M : Repro_net.Network_intf.WIRE_MSG with type t = a) replies =
  let module H = SN.Host (M) in
  let rounds = List.length replies in
  let got = ref [] in
  let program ~extra:_ ctx =
    for _ = 1 to rounds do
      let w0 = Gc.minor_words () in
      let inbox = H.skip_round ctx in
      let words = Gc.minor_words () -. w0 in
      if H.my_id ctx = host_ids.(0) then
        got := (List.map snd (H.Inbox.pairs inbox), words) :: !got
    done;
    0
  in
  with_host_socket
    ((config_frame :: replies) @ [ stop_frame ~round:rounds ])
    (fun fd -> H.run ~fd ~host_index:0 ~program);
  List.rev !got

(* Round [round]'s reply delivering [table]'s entries, in order, to
   slot 0 as one batch from slot 0. *)
let batch_to_slot0 ~round table =
  let k = List.length table in
  reply_frame_at ~round ~table ~bcast:[]
    ~lists:[ List.init k (fun _ -> 0) ]
    ~records:[ `Batch (0, 0, List.init k Fun.id) ]

(* [TMsg] with its reads counted. *)
let reads = ref 0

module Counted_msg = struct
  include TMsg

  let read r =
    incr reads;
    TMsg.read r
end

let counted_reads f =
  reads := 0;
  let r = f () in
  (r, !reads)

(* The same reply in three rounds: the second and third yield the
   first's messages, the same values physically, with no read and no
   word allocated for their payloads — slot 0's round takes exactly the
   words of a round whose reply is empty. A reply of changed payloads, read, takes more:
   the measurement sees reads. *)
let test_host_memo_reuse () =
  let k = 16 in
  let table v = List.init k (fun i -> TMsg.encode (Ping (v + i))) in
  let empty round =
    reply_frame_at ~round ~table:[] ~bcast:[] ~lists:[] ~records:[]
  in
  let run second third =
    counted_reads (fun () ->
        slot0_rounds
          (module Counted_msg)
          [ batch_to_slot0 ~round:0 (table 100); second; third ])
  in
  let same, same_reads =
    run
      (batch_to_slot0 ~round:1 (table 100))
      (batch_to_slot0 ~round:2 (table 100))
  in
  let changed, _ =
    run
      (batch_to_slot0 ~round:1 (table 200))
      (batch_to_slot0 ~round:2 (table 300))
  in
  let quiet, _ = run (empty 1) (empty 2) in
  (match same with
  | [ (first, _); (second, _); (third, _) ] ->
      Alcotest.(check int) "every payload delivered" k (List.length second);
      Alcotest.(check bool)
        "second and third replies: the first's messages, physically" true
        (List.for_all2 ( == ) first second && List.for_all2 ( == ) first third)
  | _ -> Alcotest.fail "three rounds expected");
  Alcotest.(check int) "reads: round 0's only" k same_reads;
  let words rounds = List.map snd (List.tl rounds) in
  Alcotest.(check (list (float 0.)))
    "words of a repeated reply = an empty one's" (words quiet) (words same);
  List.iter2
    (fun c q ->
      Alcotest.(check bool)
        (Printf.sprintf "changed payloads read: %.0f words > %.0f" c q)
        true
        (c >= q +. float_of_int k))
    (words changed) (words quiet)

(* A memo hit is [M.read] of the same bits: round 1 keeps some of round
   0's messages and redraws the others, at the same positions of the
   same sender. Every delivered message re-encodes to its entry's bits;
   one whose bits equal round 0's at its position is round 0's message
   itself. *)
let qcheck_memo_hit_is_read (type a) name
    (module M : Repro_net.Network_intf.WIRE_MSG with type t = a) gen =
  QCheck.Test.make ~name:("memo hit = M.read of its bits, " ^ name) ~count:60
    (QCheck.make
       ~print:(fun (l0, l1) ->
         let show l =
           String.concat "; " (List.map (Format.asprintf "%a" M.pp) l)
         in
         Printf.sprintf "[%s] then [%s]" (show l0) (show l1))
       QCheck.Gen.(
         let* k = int_range 1 6 in
         let* l0 = list_repeat k gen in
         let* fresh = list_repeat k gen in
         let* keep = list_repeat k bool in
         return
           (l0, List.map2 (fun (a, b) keep -> if keep then a else b)
                  (List.combine l0 fresh) keep)))
    (fun (l0, l1) ->
      let encodings = List.map M.encode in
      match
        slot0_rounds
          (module M)
          [
            batch_to_slot0 ~round:0 (encodings l0);
            batch_to_slot0 ~round:1 (encodings l1);
          ]
      with
      | [ (got0, _); (got1, _) ] ->
          List.for_all2 (fun m m' -> M.encode m = M.encode m') l1 got1
          && List.for_all2
               (fun m m' ->
                 match M.decode (fst (M.encode m)) with
                 | Some r -> M.encode r = M.encode m'
                 | None -> false)
               l1 got1
          && List.for_all2
               (fun (e0, e1) (m0, m1) -> e0 <> e1 || m0 == m1)
               (List.combine (encodings l0) (encodings l1))
               (List.combine got0 got1)
      | _ -> false)

let qcheck_memo_crash =
  qcheck_memo_hit_is_read "crash" (module CR.Msg) Test_codecs.crash_msg_gen

let qcheck_memo_byz =
  qcheck_memo_hit_is_read "byz" (module BZ.Msg) Test_codecs.byz_msg_gen

let qcheck_memo_flooding =
  qcheck_memo_hit_is_read "flooding"
    (module FL.Msg)
    Test_codecs.flooding_msg_gen

(* Replies that a memo must not answer. Round 0 delivers Ping 5 (the 5
   bits 00110, padded 0x30) from slot 1 at position 0, so the memo holds
   it there; round 1 is hostile. Each must be read — and then rejected,
   or counted — never taken from the memo. *)
let test_host_memo_hostile () =
  let ping v = TMsg.encode (Ping v) in
  let fan_from src ~round entry =
    reply_frame_at ~round ~table:[ entry ] ~bcast:[] ~lists:[ [ 0 ] ]
      ~records:[ `Fan (src, 0, 0) ]
  in
  let round0 = fan_from 1 ~round:0 (ping 5) in
  let expect_rejected name round1 =
    match
      slot0_rounds (module TMsg) [ round0; round1 ]
    with
    | _ -> Alcotest.fail (name ^ ": accepted")
    | exception Frame.Protocol_error _ -> ()
  in
  (* 001100: a gamma read stops a bit short. *)
  expect_rejected "same padded bytes at 6 bits"
    (fan_from 1 ~round:1 ("\x30", 6));
  (* 00110 at 4 bits: the gamma read crosses the payload's end. *)
  expect_rejected "same padded bytes at 4 bits"
    (fan_from 1 ~round:1 ("\x30", 4));
  (* 00000 at 5 bits: no gamma ends inside it. *)
  expect_rejected "other bits at the same length"
    (fan_from 1 ~round:1 ("\x00", 5));
  expect_rejected "an unnamed entry that does not decode"
    (reply_frame_at ~round:1 ~table:[ ping 5; ("\x00", 5) ] ~bcast:[]
       ~lists:[ [ 0 ] ] ~records:[ `Fan (1, 0, 0) ]);
  (* Slot 2 sends what slot 1 sent at the same position: slot 2's memo
     holds nothing, so the entry is read, and its message is not slot
     1's. *)
  match
    counted_reads (fun () ->
        slot0_rounds
          (module Counted_msg)
          [ round0; fan_from 2 ~round:1 (ping 5) ])
  with
  | [ ([ m0 ], _); ([ m1 ], _) ], n ->
      Alcotest.(check int) "another sender's entry is read" 2 n;
      Alcotest.(check bool) "and is not the memo's message" false (m0 == m1)
  | _ -> Alcotest.fail "one message per round expected"

(* {2 The send memo}

   [Memo.intern] takes a message physically equal to the previous
   entry's as that entry, and a message a position held before from the
   memo; any other is written and stored. *)

(* The encoding of payload-table entry [g], as a frame carries it. *)
let entry tbl g =
  let w = Wire.Writer.create () in
  Repro_net.Round_tables.Payloads.add_entry w tbl g;
  Wire.Writer.contents w

(* One outbox through [memo]: each entry's encoding, in position order,
   and the writes and stores it took. *)
let send_outbox memo msgs =
  let module RT = Repro_net.Round_tables in
  let tbl = RT.Payloads.create () and sw = Wire.Writer.create () in
  let writes = ref 0 and stores = RT.Memo.stores memo in
  let write w m =
    incr writes;
    TMsg.write w m
  in
  let k = Array.length msgs in
  RT.Memo.reserve memo k;
  let gids = Array.make k (-1) in
  Array.iteri
    (fun j m ->
      gids.(j) <-
        RT.Memo.intern memo tbl sw write
          ~prev:(if j > 0 then gids.(j - 1) else -1)
          j m)
    msgs;
  ( Array.to_list (Array.map (entry tbl) gids),
    !writes,
    RT.Memo.stores memo - stores )

let want_entries msgs =
  Array.to_list
    (Array.map
       (fun m ->
         let w = Wire.Writer.create () in
         add_msg w (TMsg.encode m);
         Wire.Writer.contents w)
       msgs)

(* A batch that repeats one message is one write and one stored
   encoding: its other positions name the first one's cell, with no
   copy. Positions keep their cells across rounds, so when position 0
   changes and the others do not, position 1 still finds its message's
   encoding, neither written nor copied again. *)
let test_send_memo_shares () =
  let memo = Repro_net.Round_tables.Memo.create () in
  let m = TMsg.Ping 7 and m' = TMsg.Ping 9 and m'' = TMsg.Ping 11 in
  let check name msgs ~writes ~stores =
    let got, w, st = send_outbox memo msgs in
    Alcotest.(check (list string)) (name ^ ": entries") (want_entries msgs) got;
    Alcotest.(check (pair int int))
      (name ^ ": writes, stores") (writes, stores) (w, st)
  in
  check "one message repeated" (Array.make 8 m) ~writes:1 ~stores:1;
  check "the same batch again" (Array.make 8 m) ~writes:0 ~stores:0;
  check "position 0 changed"
    (Array.init 8 (fun j -> if j = 0 then m' else m))
    ~writes:1 ~stores:1;
  check "every position changed" (Array.make 8 m'') ~writes:1 ~stores:1;
  check "runs of two messages"
    (Array.init 8 (fun j -> if j < 3 then m else m'))
    ~writes:2 ~stores:2

(* Outboxes over a pool of four messages: every entry is its message's
   encoding, and [M.write] runs exactly where neither rule applies — the
   message is not the previous entry's, nor what its position last
   held, in whatever round. *)
let qcheck_send_memo =
  let pool = Array.init 4 (fun v -> TMsg.Ping (v * 100)) in
  QCheck.Test.make ~name:"send memo entries and writes" ~count:200
    QCheck.(
      make
        ~print:(fun rounds ->
          String.concat " | "
            (List.map
               (fun r -> String.concat "," (List.map string_of_int r))
               rounds))
        Gen.(
          list_size (int_range 1 12) (list_size (int_range 0 9) (int_bound 3))))
    (fun rounds ->
      let memo = Repro_net.Round_tables.Memo.create () in
      let last = Array.make 9 (-1) in
      List.for_all
        (fun r ->
          let msgs = Array.of_list (List.map (fun v -> pool.(v)) r) in
          let got, writes, _ = send_outbox memo msgs in
          let want_writes = ref 0 in
          List.iteri
            (fun j v ->
              if not ((j > 0 && List.nth r (j - 1) = v) || last.(j) = v) then
                incr want_writes;
              last.(j) <- v)
            r;
          got = want_entries msgs && writes = !want_writes)
        rounds)

(* {2 The coordinator's frame parser}

   A fake host replays a recorded crash run's host frames up to its
   largest committee verdict frame, and then sends a mutated copy of
   that frame: bits flipped, or cut short. The coordinator must
   parse it or crash the host's slots at that round, and raise nothing:
   a frame that runs out of bits or names past a table is a
   [Protocol_error], which [serve] maps to a crash; anything else
   escapes [serve] and fails the case. *)

module CH = SN.Host (CR.Msg)
module CP = CR.Make_node (CH)

let listen_loopback () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 4;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | Unix.ADDR_UNIX _ -> assert false

let connect_loopback port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

(* The length of host frame [f]'s longest payload vector. *)
let longest_vector f =
  let r = Wire.Reader.of_string f in
  ignore (Wire.Reader.read_gamma r);
  for _ = 1 to Wire.Reader.read_gamma r do
    Wire.Reader.skip r (8 * ((Wire.Reader.read_gamma r + 7) / 8))
  done;
  let longest = ref 0 in
  for _ = 1 to Wire.Reader.read_gamma r do
    let len = Wire.Reader.read_gamma r in
    longest := max !longest len;
    for _ = 1 to len do
      ignore (Wire.Reader.read_gamma r)
    done
  done;
  !longest

(* A one-host crash run at n = 24, relayed between the host (on a
   domain, over a socketpair) and the coordinator (on another): the
   config, the host's hello, its round frames in round order, and the
   round of its largest verdict frame, one whose batches carry a
   vector of more than one entry. *)
let recorded_crash_run =
  lazy
    (let n = 24 in
     let ids =
       Repro_renaming.Experiment.random_ids ~seed:3 ~namespace:(n * n) ~n
     in
     let config = { SN.ids; seed = 3; n_hosts = 1; extra = "" } in
     let listen, port = listen_loopback () in
     let coordinator = Domain.spawn (fun () -> SN.serve ~listen ~config ()) in
     let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.setsockopt_float a Unix.SO_RCVTIMEO 10.;
     Unix.setsockopt_float b Unix.SO_RCVTIMEO 10.;
     let host =
       Domain.spawn (fun () ->
           CH.run ~fd:b ~host_index:0 ~program:(fun ~extra:_ ctx ->
               CP.program CR.experiment_params ctx))
     in
     let c = connect_loopback port in
     let hio = Frame.io_of_fd a and cio = Frame.io_of_fd c in
     let relay src dst =
       let f = Frame.read_frame src in
       Frame.write_frame dst f;
       f
     in
     let hello = relay hio cio in
     ignore (relay cio hio);
     let rec rounds acc =
       let frame = relay hio cio in
       let r = Wire.Reader.of_string (relay cio hio) in
       ignore (Wire.Reader.read_gamma r);
       if Wire.Reader.read_gamma r = 1 then List.rev (frame :: acc)
       else rounds (frame :: acc)
     in
     let frames = Array.of_list (rounds []) in
     Domain.join host;
     ignore (Domain.join coordinator);
     List.iter Unix.close [ a; b; c; listen ];
     let verdict = ref (-1) in
     Array.iteri
       (fun i f ->
         if
           longest_vector f > 1
           && (!verdict < 0
              || String.length f > String.length frames.(!verdict))
         then verdict := i)
       frames;
     (config, hello, frames, !verdict))

let qcheck_coordinator_parser =
  QCheck.Test.make ~name:"coordinator parses or rejects mutated frames"
    ~count:60
    QCheck.(
      make
        ~print:(function
          | `Cut k -> Printf.sprintf "cut at byte %d" k
          | `Flip bits ->
              "flip bits " ^ String.concat "," (List.map string_of_int bits))
        Gen.(
          oneof
            [
              map (fun k -> `Cut k) nat;
              map (fun bits -> `Flip bits) (list_size (int_range 1 4) nat);
            ]))
    (fun mutation ->
      let config, hello, frames, r = Lazy.force recorded_crash_run in
      let f = frames.(r) in
      let mutated =
        match mutation with
        | `Cut k -> String.sub f 0 (k mod String.length f)
        | `Flip bits ->
            let b = Bytes.of_string f in
            List.iter
              (fun p ->
                let p = p mod (8 * Bytes.length b) in
                let byte = Char.code (Bytes.get b (p / 8)) in
                Bytes.set b (p / 8) (Char.chr (byte lxor (0x80 lsr (p mod 8)))))
              bits;
            Bytes.to_string b
      in
      let listen, port = listen_loopback () in
      let coordinator = Domain.spawn (fun () -> SN.serve ~listen ~config ()) in
      let fd = connect_loopback port in
      let io = Frame.io_of_fd fd in
      (try
         Frame.write_frame io hello;
         ignore (Frame.read_frame io);
         for i = 0 to r - 1 do
           Frame.write_frame io frames.(i);
           ignore (Frame.read_frame io)
         done;
         Frame.write_frame io mutated;
         ignore (Frame.read_frame io)
       with Frame.Protocol_error _ | Unix.Unix_error _ -> ());
      Unix.close fd;
      let res = Domain.join coordinator in
      Unix.close listen;
      List.for_all
        (fun (_, o) ->
          match o with
          | Repro_sim.Engine.Crashed k -> k = r || k = r + 1
          | Repro_sim.Engine.Decided _ -> true
          | Repro_sim.Engine.Byzantine | Repro_sim.Engine.Unfinished -> false)
        res.SN.run.Repro_sim.Engine.outcomes)

(* The host's side of the round hand-off, measured like the engine's
   (test_engine.ml): nodes cycle through [skip_round], [broadcast] and
   [exchange_sized] over arrays and messages kept for the whole run, and
   the words of a short run are subtracted from those of a long one. A
   coordinator on a second domain answers every round frame with an
   empty reply; [Gc.minor_words] counts the calling domain only, so its
   allocation stays out of the figure. *)
let test_host_handoff_allocation () =
  let n = Array.length host_ids in
  let program ~extra:_ ctx =
    let dsts = Array.copy host_ids in
    let msgs = Array.map (fun d -> TMsg.Ping d) host_ids in
    let sizes = Array.map TMsg.bits msgs in
    let hello = TMsg.Ping (H.my_id ctx) in
    let rec loop r =
      (match r mod 3 with
      | 0 -> ignore (H.skip_round ctx)
      | 1 -> ignore (H.broadcast ctx hello)
      | _ -> ignore (H.exchange_sized ctx ~dsts ~msgs ~sizes ~len:n));
      loop (r + 1)
    in
    loop 0
  in
  let coordinate ~rounds fd =
    let io = Frame.io_of_fd fd in
    ignore (Frame.read_frame io);
    Frame.write_frame io config_frame;
    for round = 0 to rounds - 1 do
      ignore (Frame.read_frame io);
      let w = Wire.Writer.create () in
      (* round, no stop, no payloads, vectors, broadcasts, lists or
         records *)
      List.iter (Wire.Writer.add_gamma w) [ round; 0; 0; 0; 0; 0; 0 ];
      Frame.write_frame io (Wire.Writer.contents w)
    done;
    ignore (Frame.read_frame io);
    Frame.write_frame io (stop_frame ~round:rounds)
  in
  let words rounds =
    Test_rng.minor_words_of (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.setsockopt_float b Unix.SO_RCVTIMEO 10.;
        let coordinator = Domain.spawn (fun () -> coordinate ~rounds a) in
        Fun.protect
          ~finally:(fun () ->
            Unix.close b;
            Domain.join coordinator;
            Unix.close a)
          (fun () -> H.run ~fd:b ~host_index:0 ~program))
  in
  let short = 30 and long = 330 in
  (* A first run takes the process's one-time costs (the first domain
     spawn among them), which would otherwise land in [words short]. *)
  ignore (words short);
  let per_exchange =
    (words long -. words short) /. float_of_int ((long - short) * n)
  in
  (* 5.333 when recorded: the runtime's continuation, plus the round
     frame and reply shared by the slice's three nodes; re-encoding
     where a slot's message changes writes into the slot's memo and
     allocates nothing. It read 6.667 when every re-encoding was copied
     into a fresh string, 8.667 when every yield boxed a fresh
     [Running k], 35.22 when payloads crossed the host as strings,
     46.333 with the host's own merged inbox rows, and 67.000 when the
     effect carried the outbox. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per exchange <= 5.34" per_exchange)
    true (per_exchange <= 5.34)

let suite =
  ( "socket_net",
    [
      Alcotest.test_case "frame partial reads / short writes" `Quick
        test_partial_io;
      Alcotest.test_case "in-place frames = write_frame, retained reads"
        `Quick test_framed_in_place;
      Alcotest.test_case "frame write without progress" `Quick
        test_write_no_progress;
      Alcotest.test_case "oversized length prefix rejected" `Quick
        test_oversized_prefix;
      Alcotest.test_case "truncated header / payload rejected" `Quick
        test_truncation;
      Alcotest.test_case "framed codec round-trips, all protocols" `Quick
        test_codec_roundtrips;
      QCheck_alcotest.to_alcotest qcheck_payload_table;
      Alcotest.test_case "payload table keeps bit lengths apart" `Quick
        test_payload_table_lengths;
      Alcotest.test_case "host merges payload and broadcast tables" `Quick
        test_host_merges_tables;
      Alcotest.test_case "host rejects malformed reply tables" `Quick
        test_host_rejects_malformed_tables;
      Alcotest.test_case "host rejects 2^20-byte lengths unallocated" `Quick
        test_host_rejects_oversized_lengths;
      Alcotest.test_case "host rejects a cut reply over stale bytes" `Quick
        test_host_stale_bytes;
      Alcotest.test_case "host rejects a non-participant destination" `Quick
        test_host_rejects_non_participant;
      Alcotest.test_case "host checks an exchange_sized batch" `Quick
        test_host_checks_exchange_sized;
      Alcotest.test_case "host wait_for_mail frames = skip loop's" `Quick
        test_host_wait_for_mail_frames;
      Alcotest.test_case "host hand-off allocation" `Quick
        test_host_handoff_allocation;
      Alcotest.test_case "host reuses a repeated reply's messages" `Quick
        test_host_memo_reuse;
      QCheck_alcotest.to_alcotest qcheck_memo_crash;
      QCheck_alcotest.to_alcotest qcheck_memo_byz;
      QCheck_alcotest.to_alcotest qcheck_memo_flooding;
      Alcotest.test_case "host memo reads or rejects hostile entries" `Quick
        test_host_memo_hostile;
      Alcotest.test_case "send memo shares a repeated message's encoding"
        `Quick test_send_memo_shares;
      QCheck_alcotest.to_alcotest qcheck_send_memo;
      QCheck_alcotest.to_alcotest qcheck_coordinator_parser;
    ] )
