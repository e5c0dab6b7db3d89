module Engine = Repro_sim.Engine
module Metrics = Repro_sim.Metrics

module M = struct
  type t = Ping of int | Pong of int

  let bits = function Ping _ -> 10 | Pong _ -> 20
  let pp ppf = function
    | Ping v -> Format.fprintf ppf "ping(%d)" v
    | Pong v -> Format.fprintf ppf "pong(%d)" v
end

module Net = Engine.Make (M)
module BL = Byz_list.Make (Net)

let ids3 = [| 10; 20; 30 |]

let test_same_round_delivery () =
  (* Everyone sends its id to everyone; everyone must receive all three
     messages in the same round, sorted by src. *)
  let program ctx =
    let inbox = Net.broadcast ctx (M.Ping (Net.my_id ctx)) in
    Net.Inbox.pairs inbox
  in
  let res = Net.run ~ids:ids3 ~program () in
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Engine.Decided received ->
          Alcotest.(check int)
            (Printf.sprintf "node %d inbox size" id)
            3 (List.length received);
          let srcs = List.map fst received in
          Alcotest.(check (list int)) "sorted srcs" [ 10; 20; 30 ] srcs
      | _ -> Alcotest.fail "expected Decided")
    res.outcomes;
  Alcotest.(check int) "rounds" 1 res.metrics.Metrics.rounds;
  Alcotest.(check int) "messages 3x3" 9 res.metrics.Metrics.honest_messages;
  Alcotest.(check int) "bits" 90 res.metrics.Metrics.honest_bits

let test_point_to_point () =
  let program ctx =
    if Net.my_id ctx = 10 then begin
      ignore (Net.exchange ctx [ (20, M.Ping 99) ]);
      0
    end
    else
      let inbox = Net.skip_round ctx in
      Net.Inbox.length inbox
  in
  let res = Net.run ~ids:ids3 ~program () in
  let outcome id = List.assoc id res.outcomes in
  Alcotest.(check bool) "20 got one message" true
    (outcome 20 = Engine.Decided 1);
  Alcotest.(check bool) "30 got nothing" true (outcome 30 = Engine.Decided 0)

let test_crash_semantics () =
  (* Victim 20 crashes at round 1 (its second exchange): its round-0
     traffic flows, round-1 traffic is suppressed by the filter. *)
  let program ctx =
    let a = Net.Inbox.length (Net.broadcast ctx (M.Ping 1)) in
    let b = Net.Inbox.length (Net.broadcast ctx (M.Ping 2)) in
    let c = Net.Inbox.length (Net.skip_round ctx) in
    (a, b, c)
  in
  let crash obs =
    Net.Orders
      (if obs.Net.obs_round = 1 then
         [ { Net.victim = 20; delivered = (fun _ -> false) } ]
       else [])
  in
  let res = Net.run ~ids:ids3 ~crash ~program () in
  (match List.assoc 20 res.outcomes with
  | Engine.Crashed r -> Alcotest.(check int) "crash round recorded" 1 r
  | _ -> Alcotest.fail "20 should be crashed");
  (match List.assoc 10 res.outcomes with
  | Engine.Decided (a, b, c) ->
      Alcotest.(check int) "round0: all 3 broadcast" 3 a;
      Alcotest.(check int) "round1: victim suppressed" 2 b;
      Alcotest.(check int) "round2: idle" 0 c
  | _ -> Alcotest.fail "10 should decide");
  Alcotest.(check int) "one crash recorded" 1 res.metrics.Metrics.crashes

let test_mid_send_partial_delivery () =
  (* Victim 10 crashes mid-send in round 0, delivering only to 20. *)
  let program ctx =
    let inbox = Net.broadcast ctx (M.Ping (Net.my_id ctx)) in
    Net.Inbox.fold inbox ~init:false ~f:(fun acc ~src _ -> acc || src = 10)
  in
  let crash obs =
    Net.Orders
      (if obs.Net.obs_round = 0 then
         [ { Net.victim = 10; delivered = (fun e -> e.dst = 20) } ]
       else [])
  in
  let res = Net.run ~ids:ids3 ~crash ~program () in
  Alcotest.(check bool) "20 heard 10" true
    (List.assoc 20 res.outcomes = Engine.Decided true);
  Alcotest.(check bool) "30 did not hear 10" true
    (List.assoc 30 res.outcomes = Engine.Decided false)

let test_byzantine_stamping () =
  (* The byz node sends a message claiming nothing; the engine stamps the
     true source (authentication). Byz traffic is costed separately. *)
  let program ctx =
    let inbox = Net.skip_round ctx in
    List.map fst (Net.Inbox.pairs inbox)
  in
  let strategy ~byz_id ~round ~inbox:_ =
    if round = 0 then [ (10, M.Pong byz_id) ] else []
  in
  let res = Net.run ~ids:ids3 ~byz:([ 30 ], BL.of_list strategy) ~program () in
  Alcotest.(check bool) "10 sees authenticated src 30" true
    (List.assoc 10 res.outcomes = Engine.Decided [ 30 ]);
  Alcotest.(check bool) "30 marked byzantine" true
    (List.assoc 30 res.outcomes = Engine.Byzantine);
  Alcotest.(check int) "byz message counted apart" 1
    res.metrics.Metrics.byz_messages;
  Alcotest.(check int) "byz bits" 20 res.metrics.Metrics.byz_bits;
  Alcotest.(check int) "honest messages zero" 0
    res.metrics.Metrics.honest_messages

(* One strategy instance drives two Byzantine nodes with one buffer,
   refilled for each: the engine must have copied node 30's sends out
   before node 40's call overwrites them. Node 30 sends a valid and a
   misaddressed entry, node 40 one valid entry, both to node 10. *)
let test_byzantine_shared_buffer () =
  let ids = [| 10; 20; 30; 40 |] in
  let program ctx = Net.Inbox.pairs (Net.skip_round ctx) in
  let buf = Net.Sends.create () in
  let strategy ~byz_id ~round ~inbox:_ =
    Net.Sends.clear buf;
    if round = 0 then
      if byz_id = 30 then begin
        Net.Sends.add buf 10 (M.Pong 30);
        Net.Sends.add buf 99 (M.Pong 99)
      end
      else Net.Sends.add buf 10 (M.Ping 40);
    buf
  in
  let res = Net.run ~ids ~byz:([ 40; 30 ], strategy) ~program () in
  Alcotest.(check bool) "10 hears each node's own send" true
    (List.assoc 10 res.outcomes
    = Engine.Decided [ (30, M.Pong 30); (40, M.Ping 40) ]);
  Alcotest.(check bool) "20 hears nothing" true
    (List.assoc 20 res.outcomes = Engine.Decided []);
  Alcotest.(check int) "every entry billed" 3 res.metrics.Metrics.byz_messages;
  Alcotest.(check int) "byz bits" 50 res.metrics.Metrics.byz_bits;
  Alcotest.(check int) "misaddressed dropped" 1
    res.metrics.Metrics.byz_misaddressed

let test_byz_receives_inbox () =
  (* Byzantine strategies are reactive: they see last round's inbox. *)
  let witnessed = ref None in
  let program ctx =
    ignore (Net.exchange ctx [ (30, M.Ping 7) ]);
    ignore (Net.skip_round ctx);
    ()
  in
  let strategy ~byz_id:_ ~round ~inbox =
    if round = 1 then
      witnessed :=
        Some
          (List.exists
             (fun (e : Net.envelope) -> e.src = 10 && e.msg = M.Ping 7)
             inbox);
    []
  in
  ignore (Net.run ~ids:ids3 ~byz:([ 30 ], BL.of_list strategy) ~program ());
  Alcotest.(check (option bool)) "byz saw the ping" (Some true) !witnessed

let test_max_rounds_guard () =
  let program ctx =
    let rec loop () =
      ignore (Net.skip_round ctx);
      loop ()
    in
    loop ()
  in
  Alcotest.check_raises "guard trips" (Engine.Max_rounds_exceeded 10) (fun () ->
      ignore (Net.run ~ids:ids3 ~max_rounds:10 ~program ()))

let test_duplicate_ids_rejected () =
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Engine.run: duplicate identities") (fun () ->
      ignore (Net.run ~ids:[| 1; 1 |] ~program:(fun _ -> 0) ()))

(* The id -> slot table the engine and the socket hosts share: compact
   identities take the array, others (negative, or at and above 2^23)
   the hash table, and both answer alike. *)
let test_slot_index () =
  let module S = Repro_util.Slot_index in
  let dup id = Failure (Printf.sprintf "dup %d" id) in
  List.iter
    (fun ids ->
      let t = S.create ~duplicate:dup ids in
      Array.iteri
        (fun s id ->
          Alcotest.(check int) (Printf.sprintf "id %d" id) s (S.find t id))
        ids;
      List.iter
        (fun id ->
          if not (Array.mem id ids) then
            Alcotest.(check int) (Printf.sprintf "outsider %d" id) (-1)
              (S.find t id))
        [ -1; 0; 5; 8_388_607; 8_388_608; max_int; min_int ])
    [
      [||];
      [| 30; 10; 20 |];
      [| 0; 8_388_607 |];
      [| 7; 8_388_608 |];
      [| -3; 4 |];
      [| max_int; 0; min_int |];
    ];
  List.iter
    (fun ids ->
      Alcotest.check_raises "duplicate" (dup 9) (fun () ->
          ignore (S.create ~duplicate:dup ids)))
    [ [| 9; 1; 9 |]; [| 9; 8_388_608; 9 |] ]

let test_byz_id_must_participate () =
  Alcotest.check_raises "unknown byz id"
    (Invalid_argument "Engine.run: byzantine id not a participant") (fun () ->
      ignore
        (Net.run ~ids:ids3
           ~byz:([ 99 ], BL.of_list (fun ~byz_id:_ ~round:_ ~inbox:_ -> []))
           ~program:(fun _ -> 0) ()))

let test_determinism () =
  let program ctx =
    let r = Net.rng ctx in
    let x = Repro_util.Rng.int r 1000 in
    ignore (Net.broadcast ctx (M.Ping x));
    x
  in
  let run () =
    let res = Net.run ~ids:ids3 ~seed:77 ~program () in
    ( List.map (fun (id, o) -> (id, o)) res.outcomes,
      res.metrics.Metrics.honest_messages )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reruns" true (a = b)

(* Same-seed executions must be indistinguishable down to every inbox of
   every node in every round — not just final outcomes. The program mixes
   all three outbox shapes, a mid-send crash adversary and a Byzantine
   node, so the trace crosses each delivery path of the engine. The
   recorder accumulates per node (one cell per slot, merged after the
   run): node programs may run on different domains under [?shards], so
   anything they mutate must be node-local — a single shared list here
   would be both racy and order-scrambled. *)
let test_recorded_trace_equality () =
  let ids = [| 3; 7; 11; 19; 23; 42 |] in
  let record () =
    let per_node = Array.make (Array.length ids) [] in
    let slot id =
      let rec find i = if ids.(i) = id then i else find (i + 1) in
      find 0
    in
    let note round id inbox =
      let s = slot id in
      per_node.(s) <-
        ( round,
          id,
          List.map
            (fun (e : Net.envelope) -> (e.src, e.dst, e.msg))
            (Net.Inbox.to_list inbox) )
        :: per_node.(s)
    in
    let program ctx =
      let id = Net.my_id ctx in
      let r = Net.rng ctx in
      for round = 0 to 5 do
        let x = Repro_util.Rng.int r 100 in
        let inbox =
          match round mod 3 with
          | 0 -> Net.broadcast ctx (M.Ping x)
          | 1 -> Net.multisend ctx ~dsts:[| 3; 19; 42 |] (M.Pong x)
          | _ ->
              Net.exchange ctx
                (if x mod 2 = 0 then [ (7, M.Ping x); (23, M.Pong x) ]
                 else [])
        in
        note round id inbox
      done;
      id
    in
    let crash =
      Net.Crash.random
        ~rng:(Repro_util.Rng.of_seed 5) ~f:2 ~horizon:5
        ~mid_send_prob:1.0 ()
    in
    let strategy ~byz_id:_ ~round ~inbox:_ =
      [ (7, M.Pong round); (11, M.Ping (round * round)) ]
    in
    let res =
      Net.run ~ids ~byz:([ 23 ], BL.of_list strategy) ~crash ~seed:123
        ~program ()
    in
    let trace =
      Array.to_list per_node |> List.concat_map List.rev
    in
    (trace, res.outcomes, Metrics.messages_by_round res.metrics)
  in
  let t1, o1, m1 = record () and t2, o2, m2 = record () in
  Alcotest.(check bool) "identical traces" true (t1 = t2);
  Alcotest.(check bool) "identical outcomes" true (o1 = o2);
  Alcotest.(check (array int)) "identical per-round profile" m1 m2

let test_node_rngs_differ () =
  let program ctx = Repro_util.Rng.int (Net.rng ctx) 1_000_000 in
  let res = Net.run ~ids:ids3 ~seed:5 ~program () in
  let vals =
    List.filter_map
      (function _, Engine.Decided v -> Some v | _ -> None)
      res.outcomes
  in
  Alcotest.(check int) "three values" 3 (List.length vals);
  Alcotest.(check int) "all distinct" 3
    (List.length (List.sort_uniq Int.compare vals))

let test_per_round_message_counts () =
  let program ctx =
    ignore (Net.broadcast ctx (M.Ping 0));
    ignore (Net.exchange ctx [ (10, M.Ping 1) ]);
    ignore (Net.skip_round ctx);
    ()
  in
  let res = Net.run ~ids:ids3 ~program () in
  Alcotest.(check (array int)) "per-round profile" [| 9; 3; 0 |]
    (Metrics.messages_by_round res.metrics)

(* Fuzz: random send patterns. Each node runs [rounds] rounds, sending a
   deterministic-per-seed random subset each round; invariants: inboxes
   are sorted and complete (message conservation), metrics count exactly
   the sends, and the whole run is reproducible. *)
let qcheck_fuzz =
  QCheck.Test.make ~name:"engine fuzz: conservation + ordering + determinism"
    ~count:60
    (QCheck.make
       ~print:(fun (n, rounds, seed) ->
         Printf.sprintf "n=%d rounds=%d seed=%d" n rounds seed)
       QCheck.Gen.(
         let* n = int_range 1 12 in
         let* rounds = int_range 1 6 in
         let* seed = int_range 0 100_000 in
         return (n, rounds, seed)))
    (fun (n, rounds, seed) ->
      let ids = Array.init n (fun i -> (i * 3) + 1) in
      let run () =
        (* Send counts accumulate per node (programs may run on
           different domains under [?shards]); summed after the run. *)
        let sent = Array.make n 0 in
        let program ctx =
          let rng = Net.rng ctx in
          let me = (Net.my_id ctx - 1) / 3 in
          let ok = ref true in
          for _ = 1 to rounds do
            let out =
              Array.to_list ids
              |> List.filter (fun _ -> Repro_util.Rng.bool rng)
              |> List.map (fun dst -> (dst, M.Ping (Net.my_id ctx)))
            in
            sent.(me) <- sent.(me) + List.length out;
            let inbox = Net.exchange ctx out in
            let srcs = List.map fst (Net.Inbox.pairs inbox) in
            if List.sort Int.compare srcs <> srcs then ok := false;
            if List.exists (fun (e : Net.envelope) -> e.dst <> Net.my_id ctx)
                 (Net.Inbox.to_list inbox)
            then ok := false;
            if List.length srcs <> Net.Inbox.length inbox then ok := false
          done;
          !ok
        in
        let res = Net.run ~ids ~seed ~program () in
        (res, Array.fold_left ( + ) 0 sent)
      in
      let res1, sent1 = run () in
      let res2, sent2 = run () in
      let all_ok =
        List.for_all
          (function _, Engine.Decided ok -> ok | _ -> false)
          res1.Engine.outcomes
      in
      (* [sent] is accumulated across all fibers of the run. *)
      all_ok
      && res1.metrics.Metrics.honest_messages = sent1
      && sent1 = sent2
      && res1.metrics.Metrics.honest_messages
         = res2.metrics.Metrics.honest_messages
      && res1.metrics.Metrics.rounds = rounds)

(* The inbox view merges two streams (dedicated deliveries and the
   round-global shared broadcasts); mixing broadcasters and unicasters
   with interleaved identities must still yield one ascending-src
   sequence with every message present. *)
let test_mixed_streams_sorted () =
  let ids = [| 1; 2; 3; 4; 5; 6 |] in
  let program ctx =
    let me = Net.my_id ctx in
    let inbox =
      if me mod 2 = 0 then Net.broadcast ctx (M.Ping me)
      else
        Net.exchange ctx
          (Array.to_list ids |> List.map (fun dst -> (dst, M.Pong me)))
    in
    Net.Inbox.pairs inbox
  in
  let res = Net.run ~ids ~program () in
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Engine.Decided pairs ->
          Alcotest.(check (list int))
            (Printf.sprintf "node %d merged ascending srcs" id)
            [ 1; 2; 3; 4; 5; 6 ] (List.map fst pairs);
          List.iter
            (fun (src, msg) ->
              let expect =
                if src mod 2 = 0 then M.Ping src else M.Pong src
              in
              Alcotest.(check bool)
                (Printf.sprintf "node %d payload from %d" id src)
                true (msg = expect))
            pairs
      | _ -> Alcotest.fail "expected Decided")
    res.outcomes;
  Alcotest.(check int) "messages 6x6" 36 res.metrics.Metrics.honest_messages

(* Sending to an identity outside the participant set is a programming
   error, whichever outbox shape carries it, and it is reported with the
   same text for every shard count and with or without a tap (the tap
   pass validates on the main domain, the shards otherwise). *)
let test_bad_destination_rejected () =
  let ids = [| 10; 20; 30; 40; 50 |] in
  let shapes =
    [
      ( "exchange",
        fun ctx -> Net.exchange ctx [ (10, M.Ping 1); (99, M.Ping 2) ] );
      ("multisend", fun ctx -> Net.multisend ctx ~dsts:[| 30; 99 |] (M.Ping 3));
      ( "exchange_sized",
        fun ctx ->
          Net.exchange_sized ctx ~dsts:[| 40; 99 |]
            ~msgs:[| M.Ping 4; M.Pong 5 |] ~sizes:[| 10; 20 |] ~len:2 );
    ]
  in
  List.iter
    (fun (name, send) ->
      let program ctx =
        if Net.my_id ctx = 20 then ignore (send ctx)
        else ignore (Net.skip_round ctx)
      in
      List.iter
        (fun (shards, tap) ->
          Alcotest.check_raises
            (Printf.sprintf "%s, shards=%d%s" name shards
               (if tap = None then "" else ", tapped"))
            (Invalid_argument
               "Engine.exchange: node 20 sent to 99, not a participant")
            (fun () -> ignore (Net.run ~ids ?tap ~shards ~program ())))
        [
          (1, None);
          (4, None);
          (1, Some (fun ~round:_ ~src:_ ~dst:_ ~bits:_ _ -> ()));
        ])
    shapes

(* [alloc_probe] attributes minor words per phase when the run has one
   shard, and is left untouched otherwise (domains allocate from private
   minor heaps). *)
let test_alloc_probe_contract () =
  let ids = Array.init 8 (fun i -> i + 1) in
  let program ctx =
    let me = Net.my_id ctx in
    let got = ref [] in
    for r = 1 to 4 do
      let inbox =
        Net.exchange ctx
          (List.map (fun dst -> (dst, M.Ping (me + r))) (Array.to_list ids))
      in
      got := Net.Inbox.pairs inbox @ !got
    done;
    List.length !got
  in
  let run shards =
    let p = Engine.alloc_probe () in
    let w0 = Gc.minor_words () in
    ignore (Net.run ~ids ~alloc_probe:p ~shards ~program ());
    (p, Gc.minor_words () -. w0)
  in
  let p, words = run 1 in
  Alcotest.(check bool) "shards=1: deliver > 0" true (p.Engine.ap_deliver > 0.);
  Alcotest.(check bool) "shards=1: resume > 0" true (p.Engine.ap_resume > 0.);
  Alcotest.(check bool) "shards=1: book > 0" true (p.Engine.ap_book > 0.);
  Alcotest.(check bool) "shards=1: phases within the run's minor words" true
    (p.Engine.ap_deliver +. p.Engine.ap_resume +. p.Engine.ap_book <= words);
  let p, _ = run 4 in
  Alcotest.(check (list (float 0.)))
    "shards=4: probe untouched" [ 0.; 0.; 0. ]
    [ p.Engine.ap_deliver; p.Engine.ap_resume; p.Engine.ap_book ]

(* The round hand-off allocates a fixed few words per exchange-class
   call: a node stages its outbox in its own slot and yields a
   payload-free effect. Nodes cycle through [skip_round], [broadcast]
   and [exchange_sized] over arrays and messages kept for the whole run;
   the words of a short run are subtracted from those of a long one, so
   start-up and tear-down cancel, and what is left is divided by the
   extra exchanges. *)
let test_handoff_allocation () =
  let ids = Array.init 8 (fun i -> i + 1) in
  let n = Array.length ids in
  let program ~rounds ctx =
    let dsts = Array.copy ids in
    let msgs = Array.map (fun d -> M.Ping d) ids in
    let sizes = Array.map M.bits msgs in
    let hello = M.Pong (Net.my_id ctx) in
    for r = 0 to rounds - 1 do
      match r mod 3 with
      | 0 -> ignore (Net.skip_round ctx)
      | 1 -> ignore (Net.broadcast ctx hello)
      | _ -> ignore (Net.exchange_sized ctx ~dsts ~msgs ~sizes ~len:n)
    done
  in
  let words rounds =
    Test_rng.minor_words_of (fun () ->
        ignore (Net.run ~ids ~shards:1 ~program:(program ~rounds) ()))
  in
  let short = 30 and long = 330 in
  let per_exchange =
    (words long -. words short) /. float_of_int ((long - short) * n)
  in
  (* 2.752 when recorded: the runtime's own continuation (2 words) and
     the engine's share. It read 4.752 when every yield boxed a fresh
     [Running k], and 19.085 when the effect carried the outbox and the
     engine normalized it after the yield. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per exchange <= 2.76" per_exchange)
    true (per_exchange <= 2.76)

(* [wait_for_mail] is its [skip_round] loop, run in one suspension.
   Eight nodes: three senders run 24 rounds of random broadcasts,
   multisends and silent rounds, then broadcast [Pong 0], the stop mark;
   four waiters wait for mail, log each inbox and sometimes answer its
   first sender, until the mark arrives; a Byzantine node mails a waiter
   every third round. Both variants, at 1 and 4 shards, must give the
   same outcomes, taps, per-round metrics, decide rounds and logs, and
   no [wait_for_mail] may return an empty inbox: the engine does not
   resume a waiting node before it has mail. *)
let test_wait_for_mail_is_skip_loop () =
  let ids = Array.init 8 (fun i -> (i * 7) + 2) in
  let n = Array.length ids in
  let senders = [ ids.(0); ids.(3); ids.(5) ] and byz = ids.(7) in
  let waiters =
    List.filter
      (fun id -> (not (List.mem id senders)) && id <> byz)
      (Array.to_list ids)
  in
  let waiter_ids = Array.of_list waiters in
  let slot id =
    let rec find i = if ids.(i) = id then i else find (i + 1) in
    find 0
  in
  let idle = Array.make n 0 in
  let rec skip_loop ctx =
    let inbox = Net.skip_round ctx in
    if Net.Inbox.length inbox = 0 then begin
      let s = slot (Net.my_id ctx) in
      idle.(s) <- idle.(s) + 1;
      skip_loop ctx
    end
    else inbox
  in
  let stops inbox =
    List.exists (fun (_, m) -> m = M.Pong 0) (Net.Inbox.pairs inbox)
  in
  let run ~wait ~shards =
    (* Per-slot logs: a fiber writes only its own slot, whatever shard
       runs it. *)
    let logs = Array.make n [] and empties = Array.make n 0 in
    let program ctx =
      let me = Net.my_id ctx and rng = Net.rng ctx in
      if List.mem me senders then begin
        for _ = 1 to 24 do
          let x = 1 + Repro_util.Rng.int rng 99 in
          ignore
            (match x mod 6 with
            | 0 -> Net.broadcast ctx (M.Ping x)
            | 1 -> Net.multisend ctx ~dsts:waiter_ids (M.Pong x)
            | _ -> Net.skip_round ctx)
        done;
        ignore (Net.broadcast ctx (M.Pong 0));
        0
      end
      else begin
        let s = slot me in
        let rec loop count =
          let inbox = wait ctx in
          if Net.Inbox.length inbox = 0 then empties.(s) <- empties.(s) + 1;
          logs.(s) <- (Net.round ctx, Net.Inbox.pairs inbox) :: logs.(s);
          if stops inbox then count + 1
          else if Repro_util.Rng.bool rng then begin
            let src, _ = List.hd (Net.Inbox.pairs inbox) in
            let reply = Net.exchange ctx [ (src, M.Ping me) ] in
            if stops reply then count + 1 else loop (count + 1)
          end
          else loop (count + 1)
        in
        loop 0
      end
    in
    let strategy ~byz_id:_ ~round ~inbox:_ =
      if round mod 3 = 1 then
        [ (List.nth waiters (round / 3 mod List.length waiters), M.Ping round) ]
      else []
    in
    let taps = ref [] and decides = ref [] in
    let res =
      Net.run ~ids ~shards ~seed:9 ~byz:([ byz ], BL.of_list strategy)
        ~tap:(fun ~round ~src ~dst ~bits msg ->
          taps := (round, src, dst, bits, msg) :: !taps)
        ~on_decide:(fun ~round ~id -> decides := (round, id) :: !decides)
        ~program ()
    in
    ( (res.outcomes, !taps, Metrics.per_round res.metrics, !decides),
      (Array.to_list logs, empties) )
  in
  let reference, (ref_logs, _) = run ~wait:skip_loop ~shards:1 in
  List.iter
    (fun (wait, name, shards) ->
      let got, (logs, empties) = run ~wait ~shards in
      let what = Printf.sprintf "%s, %d shards" name shards in
      Alcotest.(check bool)
        (what ^ ": outcomes, taps, metrics, decides")
        true (got = reference);
      Alcotest.(check bool) (what ^ ": inbox logs") true (logs = ref_logs);
      Alcotest.(check (array int)) (what ^ ": empty inboxes returned")
        (Array.make n 0) empties)
    [
      (skip_loop, "skip loop", 4);
      (Net.wait_for_mail, "wait_for_mail", 1);
      (Net.wait_for_mail, "wait_for_mail", 4);
    ];
  (* The run is not vacuous: waiters went through idle rounds, and every
     waiter got mail more than once. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d idle rounds" (Array.fold_left ( + ) 0 idle))
    true
    (Array.fold_left ( + ) 0 idle > 0);
  List.iter
    (fun id ->
      let got = List.length (List.nth ref_logs (slot id)) in
      Alcotest.(check bool)
        (Printf.sprintf "waiter %d got mail %d times" id got)
        true (got > 1))
    waiters

let suite =
  ( "engine",
    [
      Alcotest.test_case "same-round delivery" `Quick test_same_round_delivery;
      Alcotest.test_case "point-to-point" `Quick test_point_to_point;
      Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
      Alcotest.test_case "mid-send partial delivery" `Quick
        test_mid_send_partial_delivery;
      Alcotest.test_case "byzantine stamping" `Quick test_byzantine_stamping;
      Alcotest.test_case "byzantine shared buffer" `Quick
        test_byzantine_shared_buffer;
      Alcotest.test_case "byz receives inbox" `Quick test_byz_receives_inbox;
      Alcotest.test_case "max rounds guard" `Quick test_max_rounds_guard;
      Alcotest.test_case "duplicate ids rejected" `Quick
        test_duplicate_ids_rejected;
      Alcotest.test_case "byz id must participate" `Quick
        test_byz_id_must_participate;
      Alcotest.test_case "slot index: dense = sparse" `Quick test_slot_index;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "recorded-trace equality" `Quick
        test_recorded_trace_equality;
      Alcotest.test_case "node rngs differ" `Quick test_node_rngs_differ;
      Alcotest.test_case "per-round message counts" `Quick
        test_per_round_message_counts;
      Alcotest.test_case "mixed streams sorted" `Quick
        test_mixed_streams_sorted;
      Alcotest.test_case "bad destination rejected" `Quick
        test_bad_destination_rejected;
      Alcotest.test_case "alloc probe contract" `Quick
        test_alloc_probe_contract;
      Alcotest.test_case "hand-off allocation" `Quick test_handoff_allocation;
      Alcotest.test_case "wait_for_mail = skip_round loop" `Quick
        test_wait_for_mail_is_skip_loop;
      QCheck_alcotest.to_alcotest qcheck_fuzz;
    ] )
