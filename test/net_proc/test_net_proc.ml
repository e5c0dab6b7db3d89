(* Multi-process socket-transport tests: a coordinator over real forked
   host processes, exercising mid-round host failures and fault-free
   billing. These live in their own test binary because OCaml 5 forbids
   [Unix.fork] in any process that has ever spawned a domain — and the
   main suite's shard/parallel tests do. *)

module Frame = Repro_net.Frame
module SN = Repro_net.Socket_net
module Wire = Repro_sim.Wire
module Engine = Repro_sim.Engine

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

let listen_ephemeral () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, port)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Fork a child host; it must never return into the test runner. *)
let fork_host port ~host_index ~program =
  match Unix.fork () with
  | 0 ->
      (try
         H.run ~fd:(connect port) ~host_index ~program;
         Unix._exit 0
       with _ -> Unix._exit 1)
  | pid -> pid

let good_program ~extra:_ ctx =
  for r = 1 to 3 do
    ignore (H.broadcast ctx (TMsg.Ping r))
  done;
  100 + H.my_id ctx

let reap pids =
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids

let run_with_failing_host ~bad =
  let listen, port = listen_ephemeral () in
  let ids = [| 11; 22; 33; 44 |] in
  let config = { SN.ids; seed = 5; n_hosts = 2; extra = "" } in
  let bad_pid = bad port in
  let good_pid = fork_host port ~host_index:1 ~program:good_program in
  let res = SN.serve ~listen ~config ~max_rounds:50 () in
  Unix.close listen;
  reap [ bad_pid; good_pid ];
  res

let check_outcomes (res : SN.result) ~crash_round =
  (* host 0 owns slots 0-1 (ids 11, 22), host 1 slots 2-3 (33, 44) *)
  List.iter
    (fun (id, outcome) ->
      match (id, outcome) with
      | (11 | 22), Engine.Crashed r ->
          Alcotest.(check int)
            (Printf.sprintf "node %d crash round" id)
            crash_round r
      | (33 | 44), Engine.Decided v ->
          Alcotest.(check int)
            (Printf.sprintf "node %d decision" id)
            (100 + id) v
      | id, _ -> Alcotest.fail (Printf.sprintf "node %d: wrong outcome" id))
    res.SN.run.Engine.outcomes

(* A scripted host: handshakes as host [host_index], then hands the
   framed connection to [script]. Like [fork_host], it never returns into
   the test runner. A read that waits 10 s for the coordinator raises
   [Unix_error EAGAIN], so a script that waits for a reply that never
   comes exits instead of keeping the coordinator and [reap] waiting. *)
let fake_host port ~host_index script =
  match Unix.fork () with
  | 0 ->
      (try
         let fd = connect port in
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
         let io = Frame.io_of_fd fd in
         let w = Wire.Writer.create () in
         Wire.Writer.add_gamma w SN.magic;
         Wire.Writer.add_gamma w host_index;
         Frame.write_frame io (Wire.Writer.contents w);
         ignore (Frame.read_frame io);
         script io;
         Unix.close fd
       with _ -> ());
      Unix._exit 0
  | pid -> pid

(* A host-to-coordinator round frame: round, payload table of raw
   (bytes, bits) entries, each its bit length then its bytes, vector
   table of payload-index lists, destination-list table of slot lists,
   then the slot records as raw gamma fields. *)
let round_frame ~round ~table ?(vectors = []) ~lists records =
  let w = Wire.Writer.create () in
  let counted l =
    Wire.Writer.add_gamma w (List.length l);
    List.iter (Wire.Writer.add_gamma w) l
  in
  Wire.Writer.add_gamma w round;
  Wire.Writer.add_gamma w (List.length table);
  List.iter
    (fun (bytes, bits) ->
      Wire.Writer.add_gamma w bits;
      Wire.Writer.add_string w bytes)
    table;
  Wire.Writer.add_gamma w (List.length vectors);
  List.iter counted vectors;
  Wire.Writer.add_gamma w (List.length lists);
  List.iter counted lists;
  List.iter (Wire.Writer.add_gamma w) records;
  Wire.Writer.contents w

let test_disconnect_at_start () =
  (* Handshakes correctly, then vanishes before its first round frame:
     the coordinator must see EOF at round 0 and crash slots 0-1. *)
  let bad port = fake_host port ~host_index:0 ignore in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:0

let test_disconnect_mid_run () =
  let bad port =
    (* Behaves for one full round, then its program raises: the process
       dies between rounds and the coordinator crashes its slots at
       round 1. *)
    fork_host port ~host_index:0 ~program:(fun ~extra:_ ctx ->
        ignore (H.broadcast ctx (TMsg.Ping 9));
        failwith "dying mid-run")
  in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:1

let test_protocol_violation () =
  (* Sends a syntactically valid frame that violates the round contract
     (idle tag for a running slot): the coordinator must treat it exactly
     like a disconnect. *)
  let bad port =
    fake_host port ~host_index:0 (fun io ->
        Frame.write_frame io
          (round_frame ~round:0 ~table:[] ~lists:[] [ 0; 0 ]);
        ignore (Frame.read_frame io))
  in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:0

(* Host 0 plays round 0 correctly (both slots broadcast), then sends
   [frame] as its round-1 frame: the coordinator must crash slots 0-1 at
   round 1 and let host 1 finish. The bad frames' tables carry an
   undecodable entry: were it forwarded, host 1 would fail too. *)
let malformed_round_1 frame () =
  let bad port =
    fake_host port ~host_index:0 (fun io ->
        Frame.write_frame io
          (round_frame ~round:0
             ~table:[ TMsg.encode (Ping 1) ]
             ~lists:[] [ 3; 0; 3; 0 ]);
        ignore (Frame.read_frame io);
        Frame.write_frame io frame;
        ignore (Frame.read_frame io))
  in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:1

let test_broadcast_index_out_of_table =
  malformed_round_1
    (round_frame ~round:1 ~table:[ ("", 0) ] ~lists:[] [ 3; 0; 3; 1 ])

let test_batch_index_out_of_table =
  (* slot 0 sends a batch over the list [slot 2] whose vector names
     payload 5 of 1 *)
  malformed_round_1
    (round_frame ~round:1 ~table:[ ("", 0) ] ~vectors:[ [ 5 ] ]
       ~lists:[ [ 2 ] ] [ 2; 0; 0; 3; 0 ])

let test_vector_index_out_of_table =
  (* slot 0 sends a batch over list 0 with vector 1 of 1 *)
  malformed_round_1
    (round_frame ~round:1 ~table:[ ("", 0) ] ~vectors:[ [ 0 ] ]
       ~lists:[ [ 2 ] ] [ 2; 0; 1; 3; 0 ])

let test_list_index_out_of_table =
  (* slot 0 fans payload 0 over list 1 of 1 *)
  malformed_round_1
    (round_frame ~round:1 ~table:[ ("", 0) ] ~lists:[ [ 2 ] ] [ 4; 1; 0; 3; 0 ])

let test_list_entry_beyond_n =
  (* the list names slot 4 of a 4-slot run *)
  malformed_round_1
    (round_frame ~round:1 ~table:[ ("", 0) ] ~lists:[ [ 2; 4 ] ]
       [ 4; 0; 0; 3; 0 ])

let test_batch_count_off_list =
  (* slot 0's batch vector carries one payload over a list of two *)
  malformed_round_1
    (round_frame ~round:1 ~table:[ ("", 0) ] ~vectors:[ [ 0 ] ]
       ~lists:[ [ 2; 3 ] ] [ 2; 0; 0; 3; 0 ])

let test_table_count_beyond_frame =
  malformed_round_1
    (let w = Wire.Writer.create () in
     Wire.Writer.add_gamma w 1;
     Wire.Writer.add_gamma w 10_000;
     Wire.Writer.contents w)

let test_stale_bytes () =
  (* Host 0's round-1 frame is cut short after a longer round-0 frame,
     and the missing tail is exactly what the coordinator's retained read
     buffer still holds: the frames' leading fields take the same 13
     bits (round 0 with a 15-bit payload, Ping 127, round 1 with a 9-bit
     one, Ping 15, both 2 bytes) and every bit from byte 3 on is equal.
     A reader bounded by the buffer's capacity would parse the cut frame
     whole and keep host 0 running into round 2; the coordinator must
     crash it at round 1. *)
  let records = [ 3; 0; 3; 0 ] in
  let long =
    round_frame ~round:0 ~table:[ TMsg.encode (Ping 127) ] ~lists:[] records
  in
  let full =
    round_frame ~round:1 ~table:[ TMsg.encode (Ping 15) ] ~lists:[] records
  in
  let n = String.length full in
  Alcotest.(check int) "frames of equal length" (String.length long) n;
  Alcotest.(check string)
    "equal from byte 3 on"
    (String.sub long 3 (n - 3))
    (String.sub full 3 (n - 3));
  let bad port =
    fake_host port ~host_index:0 (fun io ->
        Frame.write_frame io long;
        ignore (Frame.read_frame io);
        Frame.write_frame io (String.sub full 0 (n - 1));
        ignore (Frame.read_frame io))
  in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:1

let test_oversized_payload_length () =
  (* Round 0's payload table holds one entry claiming 2^20 bytes, in a
     frame of a few bytes: the coordinator must reject the length
     against the frame's remaining bits before allocating for it, and
     crash the host's slots like any other malformed frame. *)
  let mib = 1 lsl 20 in
  let frame =
    let w = Wire.Writer.create () in
    List.iter (Wire.Writer.add_gamma w) [ 0; 1; 8 * mib ];
    Wire.Writer.add_string w "padding";
    Wire.Writer.contents w
  in
  let bad port =
    fake_host port ~host_index:0 (fun io ->
        Frame.write_frame io frame;
        ignore (Frame.read_frame io))
  in
  let before = Gc.allocated_bytes () in
  let res = run_with_failing_host ~bad in
  let allocated = Gc.allocated_bytes () -. before in
  check_outcomes res ~crash_round:0;
  if allocated >= float_of_int mib then
    Alcotest.failf "coordinator allocated %.0f bytes for the run" allocated

let test_fault_free_decides () =
  let listen, port = listen_ephemeral () in
  let ids = [| 11; 22; 33; 44 |] in
  let config = { SN.ids; seed = 5; n_hosts = 2; extra = "" } in
  let p0 = fork_host port ~host_index:0 ~program:good_program in
  let p1 = fork_host port ~host_index:1 ~program:good_program in
  let res = SN.serve ~listen ~config ~max_rounds:50 () in
  Unix.close listen;
  reap [ p0; p1 ];
  Alcotest.(check int) "rounds" 3
    res.SN.run.Engine.metrics.Repro_sim.Metrics.rounds;
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Engine.Decided v ->
          Alcotest.(check int) (Printf.sprintf "node %d" id) (100 + id) v
      | _ -> Alcotest.fail (Printf.sprintf "node %d did not decide" id))
    res.SN.run.Engine.outcomes;
  (* 3 rounds of 4 broadcasts, each billed on all 4 links. *)
  let a = Repro_renaming.Runner.assess res.SN.run in
  Alcotest.(check int) "messages" (3 * 4 * 4) a.Repro_renaming.Runner.messages

(* Serve [ids] over [n_hosts] forked hosts, host [h] running [run h] on
   its connection. *)
let serve_forked ~ids ~n_hosts run =
  let listen, port = listen_ephemeral () in
  let config = { SN.ids; seed = 5; n_hosts; extra = "" } in
  let pids =
    List.init n_hosts (fun h ->
        match Unix.fork () with
        | 0 -> (
            try
              run h (connect port);
              Unix._exit 0
            with _ -> Unix._exit 1)
        | pid -> pid)
  in
  let res = SN.serve ~listen ~config ~max_rounds:50 () in
  Unix.close listen;
  reap pids;
  res

(* Every outbox shape in rounds 0-2 (broadcast, unicast batch with two
   messages to one peer, multisend, sized batch), byte-equal payloads
   from different senders, nodes deciding in different rounds, and
   identities out of slot order. Round 3, which only the odd slots
   reach, puts every destination-list case in one round: in ascending
   sender identity a broadcast (slot 3), a fan (slot 1), a sized batch
   (slot 7) and a fan (slot 5), the two fans over one list shared
   across the hosts (slots 0-3 and 4-7); both lists span the hosts,
   repeat a destination and name slots that decided after round 2.
   Each node folds its inboxes — sources, order and payloads — into
   its decision. *)
module Mixed (Net : Repro_net.Network_intf.S with type msg = TMsg.t) = struct
  let program ctx =
    let ids = Net.all_ids ctx in
    let n = Array.length ids in
    let me = Net.my_id ctx in
    let i = ref 0 in
    Array.iteri (fun s id -> if id = me then i := s) ids;
    let i = !i in
    let peer k = ids.((i + k) mod n) in
    let acc = ref i in
    for r = 0 to 2 + (i mod 2) do
      let v = r + (i mod 2) in
      let inbox =
        match (r, (i + r) mod 4) with
        | 3, _ -> (
            match i with
            | 3 -> Net.broadcast ctx (TMsg.Ping v)
            | 1 | 5 ->
                Net.multisend ctx
                  ~dsts:[| ids.(0); ids.(5); ids.(0); ids.(6); ids.(3) |]
                  (TMsg.Ping v)
            | _ ->
                let msgs =
                  TMsg.[| Ping v; Ping (v + 5); Ping (v + 1); Ping v |]
                in
                Net.exchange_sized ctx
                  ~dsts:[| ids.(1); ids.(4); ids.(1); ids.(7) |]
                  ~msgs ~sizes:(Array.map TMsg.bits msgs) ~len:4)
        | _, 0 -> Net.broadcast ctx (TMsg.Ping v)
        | _, 1 ->
            Net.exchange ctx
              [
                (peer 1, TMsg.Ping v);
                (peer 1, TMsg.Ping (v + 5));
                (peer 3, TMsg.Ping v);
              ]
        | _, 2 -> Net.multisend ctx ~dsts:[| peer 2; me; peer 5 |] (TMsg.Ping v)
        | _ ->
            let msgs = [| TMsg.Ping (v + 5); TMsg.Ping v |] in
            Net.exchange_sized ctx ~dsts:[| peer 1; peer 2 |] ~msgs
              ~sizes:(Array.map TMsg.bits msgs) ~len:2
      in
      acc :=
        Net.Inbox.fold inbox ~init:!acc ~f:(fun acc ~src (TMsg.Ping v) ->
            ((acc * 131) + (src * 7) + v) land 0xffffff)
    done;
    !acc
end

module Sim = Engine.Make (TMsg)
module Mixed_sim = Mixed (Sim)
module Mixed_host = Mixed (H)

let test_mixed_outboxes_match_engine () =
  let ids = [| 50; 20; 80; 10; 40; 70; 30; 60 |] in
  (* One shard whatever the RENAMING_DOMAINS budget says: this binary
     forks host processes, which OCaml 5 forbids once a domain has been
     spawned. *)
  let sim = Sim.run ~ids ~seed:5 ~shards:1 ~program:Mixed_sim.program () in
  let res =
    serve_forked ~ids ~n_hosts:2 (fun h fd ->
        H.run ~fd ~host_index:h ~program:(fun ~extra:_ ctx ->
            Mixed_host.program ctx))
  in
  let show (id, o) =
    match o with
    | Engine.Decided v -> Printf.sprintf "%d:decided %d" id v
    | Engine.Crashed r -> Printf.sprintf "%d:crashed %d" id r
    | Engine.Byzantine -> Printf.sprintf "%d:byzantine" id
    | Engine.Unfinished -> Printf.sprintf "%d:unfinished" id
  in
  let outcomes (r : int Engine.run_result) = List.map show r.Engine.outcomes in
  Alcotest.(check (list string))
    "per-node decisions (inbox order folded in)" (outcomes sim)
    (outcomes res.SN.run);
  let module M = Repro_sim.Metrics in
  let rows f (r : int Engine.run_result) =
    Array.to_list (Array.map f (M.per_round r.Engine.metrics))
  in
  Alcotest.(check (list int))
    "messages per round"
    (rows (fun r -> r.M.hmsgs) sim)
    (rows (fun r -> r.M.hmsgs) res.SN.run);
  Alcotest.(check (list int))
    "bits per round"
    (rows (fun r -> r.M.hbits) sim)
    (rows (fun r -> r.M.hbits) res.SN.run)

(* Counts payload reads in the host process that runs it. *)
let reads = ref 0

module Counting_msg = struct
  include TMsg

  let read r =
    incr reads;
    TMsg.read r
end

module Counting_host = SN.Host (Counting_msg)

let test_one_decode_per_host_per_run () =
  (* 4 nodes broadcast the same payload for 3 rounds over 2 hosts: each
     host reads it once, at its first use in round 0; every later use
     finds the same bits in its sender's receive memo (or the entry
     already read in that reply), so every node counts 1. *)
  let res =
    serve_forked ~ids:[| 11; 22; 33; 44 |] ~n_hosts:2 (fun h fd ->
        Counting_host.run ~fd ~host_index:h ~program:(fun ~extra:_ ctx ->
            for _ = 1 to 3 do
              ignore (Counting_host.broadcast ctx (TMsg.Ping 1))
            done;
            !reads))
  in
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Engine.Decided v ->
          Alcotest.(check int) (Printf.sprintf "node %d reads" id) 1 v
      | _ -> Alcotest.fail (Printf.sprintf "node %d did not decide" id))
    res.SN.run.Engine.outcomes

(* Counts payload writes in the host process that runs it. *)
let writes = ref 0

module Counting_enc_msg = struct
  include TMsg

  let write w m =
    incr writes;
    TMsg.write w m
end

module Counting_enc_host = SN.Host (Counting_enc_msg)

(* Node 0 sends one batch of [width] messages to the other nodes every
   round, from [exchange_sized] arrays it refills in place: each round
   after the first puts a newly allocated message at position [p] and
   moves the value [p] held to position [p + 1], so exactly those two
   positions change. The other nodes fold what they receive into their
   decision; node 0 decides [on_done ()]. *)
let width = 4
let memo_rounds = 9

module Memo_sender (Net : Repro_net.Network_intf.S with type msg = TMsg.t) =
struct
  let program ~on_done ctx =
    let ids = Net.all_ids ctx in
    if Net.my_id ctx = ids.(0) then begin
      let dsts = Array.init width (fun j -> ids.(1 + (j mod 3))) in
      let msgs = Array.init width (fun j -> TMsg.Ping (100 + j)) in
      for r = 0 to memo_rounds - 1 do
        if r > 0 then begin
          let p = r mod (width - 1) in
          let moved = msgs.(p) in
          msgs.(p) <- TMsg.Ping (1000 + r);
          msgs.(p + 1) <- moved
        end;
        ignore
          (Net.exchange_sized ctx ~dsts ~msgs ~sizes:(Array.map TMsg.bits msgs)
             ~len:width)
      done;
      on_done ()
    end
    else begin
      let acc = ref 0 in
      for _ = 1 to memo_rounds do
        let inbox = Net.skip_round ctx in
        acc :=
          Net.Inbox.fold inbox ~init:!acc ~f:(fun acc ~src (TMsg.Ping v) ->
              ((acc * 131) + (src * 7) + v) land 0xffffff)
      done;
      !acc
    end
end

module Memo_sim = Memo_sender (Sim)
module Memo_host = Memo_sender (Counting_enc_host)

let test_encode_memo () =
  let ids = [| 11; 22; 33; 44 |] in
  let sim =
    Sim.run ~ids ~seed:5 ~shards:1
      ~program:(Memo_sim.program ~on_done:(fun () -> 0))
      ()
  in
  let res =
    serve_forked ~ids ~n_hosts:1 (fun h fd ->
        Counting_enc_host.run ~fd ~host_index:h ~program:(fun ~extra:_ ctx ->
            Memo_host.program ~on_done:(fun () -> !writes) ctx))
  in
  List.iter2
    (fun (id, want) (_, got) ->
      match (want, got) with
      | Engine.Decided _, Engine.Decided written when id = ids.(0) ->
          (* [width] writes in round 0, then one per changed position. *)
          Alcotest.(check int)
            "writes" (width + (2 * (memo_rounds - 1))) written
      | Engine.Decided w, Engine.Decided g ->
          Alcotest.(check int) (Printf.sprintf "node %d received" id) w g
      | _ -> Alcotest.fail (Printf.sprintf "node %d did not decide" id))
    sim.Engine.outcomes res.SN.run.Engine.outcomes

(* [net_node_cli local --algo byz] at n=128: the run keeps within the
   bit budget its own oracles check (exit 0, no VIOLATION line) and
   [--check-sim] finds the simulator's run identical. *)
let test_cli_byz_n128 () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ ".."; ".."; "bin"; "net_node_cli.exe" ]
  in
  let out = Filename.temp_file "net_node_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s local --algo byz -n 128 --hosts 2 --seed 3 --check-sim > %s 2>&1"
         exe out)
  in
  let lines =
    In_channel.with_open_text out In_channel.input_all
    |> String.split_on_char '\n'
  in
  Sys.remove out;
  let starts p l =
    String.length l >= String.length p
    && String.sub l 0 (String.length p) = p
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check (list string))
    "no violation" []
    (List.filter (starts "VIOLATION") lines);
  Alcotest.(check bool)
    "matches the simulator" true
    (List.mem "sim check: socket run matches the simulator exactly" lines)

let () =
  Alcotest.run "repro-renaming-net-proc"
    [
      ( "socket_proc",
        [
          Alcotest.test_case "host EOF at round 0 -> Crashed" `Quick
            test_disconnect_at_start;
          Alcotest.test_case "host dies mid-run -> Crashed" `Quick
            test_disconnect_mid_run;
          Alcotest.test_case "protocol violation -> Crashed" `Quick
            test_protocol_violation;
          Alcotest.test_case "fault-free decides with exact billing" `Quick
            test_fault_free_decides;
          Alcotest.test_case "broadcast payload index out of table -> Crashed"
            `Quick test_broadcast_index_out_of_table;
          Alcotest.test_case "batch payload index out of table -> Crashed"
            `Quick test_batch_index_out_of_table;
          Alcotest.test_case "batch vector index out of table -> Crashed"
            `Quick test_vector_index_out_of_table;
          Alcotest.test_case "list index out of table -> Crashed" `Quick
            test_list_index_out_of_table;
          Alcotest.test_case "list entry beyond n -> Crashed" `Quick
            test_list_entry_beyond_n;
          Alcotest.test_case "batch count off its list -> Crashed" `Quick
            test_batch_count_off_list;
          Alcotest.test_case "table count beyond frame -> Crashed" `Quick
            test_table_count_beyond_frame;
          Alcotest.test_case "2^20-byte payload length -> Crashed, unallocated"
            `Quick test_oversized_payload_length;
          Alcotest.test_case "short frame over stale bytes -> Crashed" `Quick
            test_stale_bytes;
          Alcotest.test_case "mixed outboxes match the engine" `Quick
            test_mixed_outboxes_match_engine;
          Alcotest.test_case "one decode per host per run" `Quick
            test_one_decode_per_host_per_run;
          Alcotest.test_case "one encode per changed batch position" `Quick
            test_encode_memo;
          Alcotest.test_case "net_node_cli byz n=128 within budget" `Quick
            test_cli_byz_n128;
        ] );
    ]
