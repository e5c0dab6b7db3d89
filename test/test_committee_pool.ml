module P = Repro_crypto.Committee_pool

let test_shared_randomness () =
  let a = P.create ~seed:5 ~namespace:1000 ~p0:0.1 in
  let b = P.create ~seed:5 ~namespace:1000 ~p0:0.1 in
  Alcotest.(check (list int)) "identical pools" (P.members a) (P.members b);
  Alcotest.(check (list int)) "identical king order" (P.king_order a)
    (P.king_order b);
  let c = P.create ~seed:6 ~namespace:1000 ~p0:0.1 in
  Alcotest.(check bool) "different seed differs" true (P.members a <> P.members c)

let test_membership () =
  let p = P.create ~seed:1 ~namespace:500 ~p0:0.2 in
  List.iter
    (fun id -> Alcotest.(check bool) "mem matches list" true (P.mem p id))
    (P.members p);
  Alcotest.(check int) "size matches" (List.length (P.members p)) (P.size p);
  Alcotest.(check bool) "sorted ascending" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a < b && sorted rest
       | _ -> true
     in
     sorted (P.members p))

let test_extremes () =
  let all = P.create ~seed:2 ~namespace:64 ~p0:1.0 in
  Alcotest.(check int) "p0=1 takes everyone" 64 (P.size all);
  let none = P.create ~seed:2 ~namespace:64 ~p0:0.0 in
  Alcotest.(check int) "p0=0 takes no one" 0 (P.size none)

let test_king_order_permutation () =
  let p = P.create ~seed:9 ~namespace:300 ~p0:0.3 in
  Alcotest.(check (list int)) "king order is a permutation of members"
    (P.members p)
    (List.sort Int.compare (P.king_order p))

let test_size_concentration () =
  (* E[size] = p0 * namespace; check within 5 sigma. *)
  let namespace = 20_000 and p0 = 0.1 in
  let p = P.create ~seed:13 ~namespace ~p0 in
  let expected = p0 *. float_of_int namespace in
  let sigma = sqrt (float_of_int namespace *. p0 *. (1. -. p0)) in
  let size = float_of_int (P.size p) in
  Alcotest.(check bool)
    (Printf.sprintf "size %.0f within 5 sigma of %.0f" size expected)
    true
    (abs_float (size -. expected) < 5. *. sigma)

let test_paper_p0 () =
  Alcotest.(check (float 1e-9)) "clamps to 1 for small n" 1.
    (P.paper_p0 ~n:16 ~epsilon0:0.1);
  let p = P.paper_p0 ~n:1_000_000 ~epsilon0:0.1 in
  Alcotest.(check bool) "small for large n" true (p < 0.05 && p > 0.);
  Alcotest.check_raises "epsilon0 range"
    (Invalid_argument "Committee_pool.paper_p0: epsilon0 must be in (0, 1/3)")
    (fun () -> ignore (P.paper_p0 ~n:100 ~epsilon0:0.5))

let test_fault_threshold () =
  let p = P.create ~seed:3 ~namespace:100 ~p0:1.0 in
  Alcotest.(check int) "t = (n-1)/3" 33 (P.fault_threshold p)

(* Recorded from the list-and-Hashtbl pool: the bitmap pool draws the
   same values in the same order, so members and king order stay put. *)
let test_pinned_draws () =
  let p = P.create ~seed:5 ~namespace:40 ~p0:0.3 in
  Alcotest.(check (list int)) "members"
    [ 4; 5; 9; 10; 12; 13; 22; 23; 26; 31; 35; 40 ]
    (P.members p);
  Alcotest.(check (list int)) "king order"
    [ 10; 26; 12; 4; 31; 40; 13; 22; 5; 23; 9; 35 ]
    (P.king_order p)

let test_mem_out_of_range () =
  let p = P.create ~seed:4 ~namespace:50 ~p0:1.0 in
  Alcotest.(check bool) "1 is in" true (P.mem p 1);
  Alcotest.(check bool) "namespace is in" true (P.mem p 50);
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "%d is out" id) false (P.mem p id))
    [ 0; -1; 51 ]

(* A random ascending view over [0, namespace + 1]: candidates,
   non-candidates and out-of-range ids alike. *)
let random_view rng ~namespace =
  List.init (namespace + 2) Fun.id
  |> List.filter (fun _ -> Repro_util.Rng.bernoulli rng 0.3)

let test_kings_among () =
  let rng = Repro_util.Rng.of_seed 17 in
  List.iter
    (fun p0 ->
      for seed = 1 to 8 do
        let namespace = 40 + (seed * 23) in
        let p = P.create ~seed ~namespace ~p0 in
        for _ = 1 to 5 do
          let view = random_view rng ~namespace in
          Alcotest.(check (list int))
            (Printf.sprintf "p0=%g seed=%d" p0 seed)
            (List.filter (fun k -> List.mem k view) (P.king_order p))
            (P.kings_among p view)
        done;
        Alcotest.(check (list int)) "empty view" [] (P.kings_among p []);
        Alcotest.(check (list int)) "whole pool" (P.king_order p)
          (P.kings_among p (P.members p))
      done)
    [ 0.; 0.2; 1. ]

let suite =
  ( "committee_pool",
    [
      Alcotest.test_case "shared randomness" `Quick test_shared_randomness;
      Alcotest.test_case "membership" `Quick test_membership;
      Alcotest.test_case "extremes" `Quick test_extremes;
      Alcotest.test_case "king order permutation" `Quick
        test_king_order_permutation;
      Alcotest.test_case "size concentration" `Quick test_size_concentration;
      Alcotest.test_case "paper p0" `Quick test_paper_p0;
      Alcotest.test_case "fault threshold" `Quick test_fault_threshold;
      Alcotest.test_case "pinned draws" `Quick test_pinned_draws;
      Alcotest.test_case "mem out of range" `Quick test_mem_out_of_range;
      Alcotest.test_case "kings among a view" `Quick test_kings_among;
    ] )
