module CN = Repro_consensus.Committee_net

let members = [ 3; 7; 11; 15; 19; 23; 27 ]

let feed f pairs = List.iter (fun (src, m) -> f ~src m) pairs

let make_net ?(inject = []) ?(members = members) me =
  (* A loopback transport: broadcast delivers the sent message as if
     every member echoed it, after the injected foreign traffic. *)
  CN.create ~me ~members
    ~multisend:(fun ~dsts m ~f ->
      feed f (inject @ List.map (fun dst -> (dst, m)) (Array.to_list dsts)))
    ~skip_round:(fun ~f -> feed f inject)

let kept net =
  List.rev (CN.fold net ~init:[] ~f:(fun acc ~src m -> (src, m) :: acc))

let test_thresholds () =
  let net = make_net 3 in
  Alcotest.(check int) "size" 7 (CN.size net);
  Alcotest.(check int) "t = (7-1)/3" 2 (CN.fault_threshold net);
  Alcotest.(check int) "quorum = n - t" 5 (CN.quorum net)

let test_threshold_arithmetic () =
  List.iter
    (fun (n, t) ->
      let net = make_net ~members:(List.init n (fun i -> i + 1)) 1 in
      Alcotest.(check int) (Printf.sprintf "t for %d" n) t
        (CN.fault_threshold net);
      Alcotest.(check bool) "n > 3t" true (n > 3 * CN.fault_threshold net))
    [ (4, 1); (5, 1); (6, 1); (7, 2); (10, 3); (13, 4); (100, 33) ]

let test_broadcast_filters_outsiders () =
  let inject = [ (99, "evil"); (7, "fine") ] in
  let net = make_net ~inject 3 in
  CN.broadcast net "hello";
  let inbox = kept net in
  Alcotest.(check bool) "outsider dropped" true
    (not (List.exists (fun (src, _) -> src = 99) inbox));
  Alcotest.(check bool) "member kept" true
    (List.exists (fun (src, m) -> src = 7 && m = "fine") inbox);
  (* Kept messages stay in inbox order, not member order: the injected
     7 precedes the loopback's 3. *)
  Alcotest.(check (list (pair int string)))
    "inbox order"
    [ (7, "fine"); (3, "hello"); (11, "hello"); (15, "hello");
      (19, "hello"); (23, "hello"); (27, "hello") ]
    inbox

let test_broadcast_dedups_equivocation () =
  (* Two messages from the same member in one round: only the first
     counts as that member's vote. *)
  let inject = [ (7, "first"); (7, "second") ] in
  let net = make_net ~inject 3 in
  CN.silent_round net;
  let inbox = kept net in
  Alcotest.(check int) "one vote per member" 1 (List.length inbox);
  Alcotest.(check (pair int string)) "first wins" (7, "first") (List.hd inbox)

let test_rounds_are_independent () =
  (* A member heard in one round is heard again in the next; nothing of
     the previous round remains. *)
  let net = make_net ~inject:[ (7, "again") ] 3 in
  CN.broadcast net "one";
  Alcotest.(check int) "round 1 count" 6 (CN.count net (String.equal "one"));
  CN.silent_round net;
  Alcotest.(check (list (pair int string))) "round 2" [ (7, "again") ]
    (kept net);
  Alcotest.(check int) "round 2 count" 0 (CN.count net (String.equal "one"))

(* The member search at its edges: the first and last members are
   found, and ids between members or outside their range are not. *)
let test_member_search_edges () =
  let inject =
    [ (3, "first"); (27, "last"); (13, "between"); (2, "below");
      (-5, "negative"); (28, "above"); (max_int, "max"); (3, "again") ]
  in
  let net = make_net ~inject 3 in
  CN.silent_round net;
  Alcotest.(check (list (pair int string)))
    "kept" [ (3, "first"); (27, "last") ] (kept net);
  let inject = [ (4, "a"); (5, "b"); (6, "c") ] in
  let net = make_net ~members:[ 5 ] ~inject 5 in
  CN.silent_round net;
  Alcotest.(check (list (pair int string))) "one member" [ (5, "b") ] (kept net)

(* Echo [m] from every destination, without a closure per round. *)
let echo m f dsts =
  for i = 0 to Array.length dsts - 1 do
    f ~src:dsts.(i) m
  done

let is_one m = m = 1

(* One broadcast-and-count round costs the same at committee size 7 and
   28: nothing in it grows with the committee. *)
let test_round_allocation_constant () =
  let words size =
    let net =
      CN.create ~me:1
        ~members:(List.init size (fun i -> i + 1))
        ~multisend:(fun ~dsts m ~f -> echo m f dsts)
        ~skip_round:(fun ~f:_ -> ())
    in
    (* The first round allocates the per-net message buffer. *)
    CN.broadcast net 1;
    let c = ref 0 in
    let w =
      Test_rng.minor_words_of (fun () ->
          CN.broadcast net 1;
          c := CN.count net is_one)
    in
    Alcotest.(check int) (Printf.sprintf "count at size %d" size) size !c;
    w
  in
  Alcotest.(check (float 0.)) "size 7 = size 28" (words 7) (words 28)

let suite =
  ( "committee_net",
    [
      Alcotest.test_case "thresholds" `Quick test_thresholds;
      Alcotest.test_case "threshold arithmetic" `Quick
        test_threshold_arithmetic;
      Alcotest.test_case "outsiders filtered" `Quick
        test_broadcast_filters_outsiders;
      Alcotest.test_case "equivocation deduped" `Quick
        test_broadcast_dedups_equivocation;
      Alcotest.test_case "rounds independent" `Quick
        test_rounds_are_independent;
      Alcotest.test_case "member search edges" `Quick
        test_member_search_edges;
      Alcotest.test_case "round allocation constant" `Quick
        test_round_allocation_constant;
    ] )
