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
module Phase_king = Repro_consensus.Phase_king
module Validator = Repro_consensus.Validator
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
      Alcotest.(check bool)
        "clean EOF at boundary" true
        (Frame.read_frame_opt rio = None))
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
   order, so ascending-identity merging is observable. *)

module TMsg = struct
  type t = Ping of int

  let bits (Ping v) = Wire.gamma_bits v
  let pp ppf (Ping v) = Format.fprintf ppf "ping(%d)" v

  let encode (Ping v) =
    let w = Wire.Writer.create () in
    Wire.Writer.add_gamma w v;
    (Wire.Writer.contents w, Wire.Writer.bit_length w)

  let decode s =
    match Wire.Reader.read_gamma (Wire.Reader.of_string s) with
    | v -> Some (Ping v)
    | exception Invalid_argument _ -> None
end

module H = SN.Host (TMsg)

let host_ids = [| 30; 10; 20 |]

let config_frame =
  let w = Wire.Writer.create () in
  List.iter (Wire.Writer.add_gamma w)
    ([ SN.magic; Array.length host_ids; 1; 0 ] @ Array.to_list host_ids);
  SN.Codec.add_bytes w "";
  Wire.Writer.contents w

(* A coordinator reply: payload table of raw (bytes, bits) entries, the
   broadcast rows and each slot's rows, as (source slot, index) pairs. *)
let reply_frame ~table ~bcast ~slots =
  let w = Wire.Writer.create () in
  let rows l =
    Wire.Writer.add_gamma w (List.length l);
    List.iter
      (fun (src, k) ->
        Wire.Writer.add_gamma w src;
        Wire.Writer.add_gamma w k)
      l
  in
  Wire.Writer.add_gamma w 0;
  Wire.Writer.add_gamma w 0;
  Wire.Writer.add_gamma w (List.length table);
  List.iter (fun m -> SN.Codec.add_msg w (SN.enc_of m)) table;
  rows bcast;
  List.iter rows slots;
  Wire.Writer.contents w

let stop_frame ~round =
  let w = Wire.Writer.create () in
  Wire.Writer.add_gamma w round;
  Wire.Writer.add_gamma w 1;
  Wire.Writer.contents w

(* Every section populated: two payloads, a broadcast from slot 1 (id
   10), dedicated rows from slots 2 and 0 (ids 20, 30), one slot with no
   dedicated rows. *)
let full_reply =
  reply_frame
    ~table:[ TMsg.encode (Ping 5); TMsg.encode (Ping 7) ]
    ~bcast:[ (1, 0) ]
    ~slots:[ [ (2, 1); (0, 1) ]; []; [ (0, 0) ] ]

(* Run the host against [frames]; each node broadcasts once, records its
   inbox as (source id, value) pairs and decides. *)
let run_host ?(config = config_frame) frames =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let io = Frame.io_of_fd a in
  List.iter (Frame.write_frame io) (config :: frames);
  let seen = ref [] in
  let program ~extra:_ ctx =
    let inbox = H.broadcast ctx (TMsg.Ping 1) in
    let pairs =
      List.map (fun (src, TMsg.Ping v) -> (src, v)) (H.Inbox.pairs inbox)
    in
    seen := (H.my_id ctx, pairs) :: !seen;
    0
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      H.run ~fd:b ~host_index:0 ~program;
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

let expect_host_rejects name reply =
  match run_host [ reply ] with
  | _ -> Alcotest.fail (name ^ ": malformed reply accepted")
  | exception Frame.Protocol_error _ -> ()

let test_host_rejects_malformed_tables () =
  let ping v = TMsg.encode (Ping v) in
  expect_host_rejects "dedicated payload index >= table size"
    (reply_frame ~table:[ ping 5 ] ~bcast:[] ~slots:[ []; []; [ (0, 1) ] ]);
  expect_host_rejects "broadcast payload index >= table size"
    (reply_frame ~table:[ ping 5 ] ~bcast:[ (1, 1) ] ~slots:[ []; []; [] ]);
  expect_host_rejects "rows naming an empty table"
    (reply_frame ~table:[] ~bcast:[ (1, 0) ] ~slots:[ []; []; [] ]);
  expect_host_rejects "table count beyond the frame"
    (let w = Wire.Writer.create () in
     List.iter (Wire.Writer.add_gamma w) [ 0; 0; 10_000 ];
     Wire.Writer.contents w);
  expect_host_rejects "broadcast source slot out of range"
    (reply_frame ~table:[ ping 5 ] ~bcast:[ (3, 0) ] ~slots:[ []; []; [] ]);
  expect_host_rejects "undecodable table payload"
    (reply_frame ~table:[ ping 5; ("", 0) ] ~bcast:[ (1, 0) ]
       ~slots:[ []; []; [] ])

(* A reply built from raw fields: gammas and [Codec.add_msg] entries. *)
let raw_frame fields =
  let w = Wire.Writer.create () in
  List.iter
    (function
      | `G v -> Wire.Writer.add_gamma w v
      | `M m -> SN.Codec.add_msg w (SN.enc_of m))
    fields;
  Wire.Writer.contents w

let test_host_stale_bytes () =
  (* The round-1 reply is cut short after a longer round-0 reply, and the
     missing tail is exactly what the retained read buffer still holds:
     the two replies' header fields take the same 14 bits (round 0 with
     a 16-bit payload, round 1 with a 14-bit one, both 2 bytes), and
     every later bit is equal. A reader bounded by the buffer's capacity
     would parse the cut reply whole; the host must reject it. *)
  let tail = [ `G 1; `G 1; `G 0; `G 0; `G 0; `G 0 ] in
  let long = raw_frame ([ `G 0; `G 0; `G 1; `M ("\x80\x00", 16) ] @ tail) in
  let full = raw_frame ([ `G 1; `G 0; `G 1; `M ("\x80\x00", 14) ] @ tail) in
  Alcotest.(check int)
    "replies of equal length" (String.length long) (String.length full);
  Alcotest.(check string)
    "equal from byte 2 on"
    (String.sub long 2 (String.length long - 2))
    (String.sub full 2 (String.length full - 2));
  ignore (run_host [ long; full; stop_frame ~round:2 ]);
  for cut = 0 to String.length full - 1 do
    match run_host [ long; String.sub full 0 cut; stop_frame ~round:2 ] with
    | _ -> Alcotest.failf "reply cut at byte %d accepted" cut
    | exception Frame.Protocol_error _ -> ()
  done

let test_host_rejects_non_participant () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Frame.write_frame (Frame.io_of_fd a) config_frame;
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Alcotest.check_raises "destination outside the ids"
        (Invalid_argument "Socket_net: destination 99 is not a participant")
        (fun () ->
          H.run ~fd:b ~host_index:0 ~program:(fun ~extra:_ ctx ->
              ignore (H.exchange ctx [ (99, TMsg.Ping 1) ]);
              0)))

let test_host_checks_exchange_sized () =
  (* The batch length is checked against the arrays at the call, as in
     the engine. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Frame.write_frame (Frame.io_of_fd a) config_frame;
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
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
      match Frame.read_frame_opt (mem_reader ~chunk:1 partial) with
      | _ -> Alcotest.fail "truncated header accepted"
      | exception Frame.Protocol_error _ -> ())
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

   writer -> socketpair -> reader, for every message constructor of
   every protocol: the embedded [Codec.add_msg]/[read_msg] must carry
   the exact [encode] bytes and bit length, and the decoded message must
   re-encode identically (value equality via the codec, which avoids
   comparing abstract payload types structurally). *)

let roundtrip_framed (type a) (module M : Repro_net.Network_intf.WIRE_MSG
                       with type t = a) name (samples : a list) =
  let a_fd, b_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wio = Frame.io_of_fd a_fd and rio = Frame.io_of_fd b_fd in
  let w = Wire.Writer.create () in
  List.iter (fun m -> SN.Codec.add_msg w (SN.enc_of (M.encode m))) samples;
  Frame.write_frame wio (Wire.Writer.contents w);
  let r = Wire.Reader.of_string (Frame.read_frame rio) in
  List.iteri
    (fun i m ->
      let { SN.bytes; bits; _ } = SN.Codec.read_msg r in
      let e_bytes, e_bits = M.encode m in
      Alcotest.(check int)
        (Printf.sprintf "%s[%d] bits" name i)
        e_bits bits;
      Alcotest.(check string)
        (Printf.sprintf "%s[%d] bytes" name i)
        e_bytes bytes;
      Alcotest.(check int)
        (Printf.sprintf "%s[%d] bits = Msg.bits" name i)
        (M.bits m) bits;
      match M.decode bytes with
      | None -> Alcotest.fail (Printf.sprintf "%s[%d] undecodable" name i)
      | Some m' ->
          let r_bytes, r_bits = M.encode m' in
          Alcotest.(check string)
            (Printf.sprintf "%s[%d] re-encode bytes" name i)
            e_bytes r_bytes;
          Alcotest.(check int)
            (Printf.sprintf "%s[%d] re-encode bits" name i)
            e_bits r_bits)
    samples;
  Unix.close a_fd;
  Unix.close b_fd

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
      BZ.Msg.Pk (Phase_king.Vote true);
      BZ.Msg.Pk (Phase_king.Propose false);
      BZ.Msg.Pk (Phase_king.King true);
      BZ.Msg.Vld (Validator.Input (fp, 17));
      BZ.Msg.Vld (Validator.Lock None);
      BZ.Msg.Vld (Validator.Lock (Some (fp, 3)));
      BZ.Msg.VldRaw (Validator.Input ("\x01\x02", 2));
      BZ.Msg.VldRaw (Validator.Lock (Some ("\xff", 8)));
      BZ.Msg.Diff true;
      BZ.Msg.New None;
      BZ.Msg.New (Some 12);
    ]

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
      (* round, no stop, no payloads, no broadcasts, no rows per slot *)
      List.iter (Wire.Writer.add_gamma w)
        ([ round; 0; 0; 0 ] @ List.init n (fun _ -> 0));
      Frame.write_frame io (Wire.Writer.contents w)
    done;
    ignore (Frame.read_frame io);
    Frame.write_frame io (stop_frame ~round:rounds)
  in
  let words rounds =
    Test_rng.minor_words_of (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
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
  (* 46.333 when recorded, against 67.000 when the effect carried the
     outbox. The rest is the round frame and reply, shared by the slice's
     three nodes, and re-encoding where a slot's message changes. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per exchange <= 46.34" per_exchange)
    true (per_exchange <= 46.34)

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
      Alcotest.test_case "host hand-off allocation" `Quick
        test_host_handoff_allocation;
    ] )
