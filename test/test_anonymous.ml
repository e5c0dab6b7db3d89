module A = Repro_renaming.Anonymous_renaming

let test_birthday_bound_values () =
  Alcotest.(check (float 1e-9)) "k=1 never collides" 0.
    (A.birthday_bound ~k:1 ~m:10);
  Alcotest.(check (float 1e-9)) "k=2 m=1 always collides" 1.
    (A.birthday_bound ~k:2 ~m:1);
  (* classic: 23 people, 365 days ≈ 0.507 *)
  let p = A.birthday_bound ~k:23 ~m:365 in
  Alcotest.(check bool) (Printf.sprintf "birthday paradox %.3f" p) true
    (abs_float (p -. 0.507) < 0.01)

let test_empirical_matches_birthday () =
  List.iter
    (fun rule ->
      let k = 16 and m = 64 in
      let expected = A.birthday_bound ~k ~m in
      let measured =
        A.collision_probability ~rule ~seed:5 ~namespace:100_000 ~k ~m
          ~trials:3000
      in
      Alcotest.(check bool)
        (Printf.sprintf "empirical %.3f vs bound %.3f" measured expected)
        true
        (abs_float (measured -. expected) < 0.05))
    [ A.Uniform_pick; A.Shared_hash ]

let test_silent_nodes_must_collide () =
  (* The lower bound's engine: many silent nodes in a tight namespace
     collide almost surely — shared randomness does not save them. *)
  let p =
    A.collision_probability ~rule:A.Shared_hash ~seed:7 ~namespace:50_000
      ~k:64 ~m:64 ~trials:400
  in
  Alcotest.(check bool) (Printf.sprintf "collision prob %.3f ~ 1" p) true
    (p > 0.99)

let test_budget_success_shape () =
  (* Success probability must be ~0 for o(n) budgets and 1 at budget = n:
     the Ω(n) message bound's shape. *)
  let n = 64 in
  let success b =
    A.budget_success_probability ~seed:9 ~namespace:50_000 ~n ~budget:b
      ~trials:300
  in
  let low = success 0 and mid = success (n / 2) and full = success n in
  Alcotest.(check bool) (Printf.sprintf "budget 0: %.3f" low) true (low < 0.01);
  Alcotest.(check bool) (Printf.sprintf "budget n/2: %.3f" mid) true (mid < 0.5);
  Alcotest.(check (float 1e-9)) "budget n succeeds" 1. full;
  Alcotest.(check bool) "monotone-ish" true (low <= mid +. 0.05 && mid <= full)

let test_success_requires_linear_budget () =
  (* For success probability >= 3/4 (the theorem's threshold) the budget
     must be a constant fraction of n. *)
  let n = 48 in
  let rec smallest_budget b =
    if b > n then n
    else if
      A.budget_success_probability ~seed:11 ~namespace:50_000 ~n ~budget:b
        ~trials:300
      >= 0.75
    then b
    else smallest_budget (b + 4)
  in
  let b = smallest_budget 0 in
  Alcotest.(check bool)
    (Printf.sprintf "3/4-success needs budget %d >= n/2" b)
    true
    (b >= n / 2)

let test_e6_pinned () =
  (* Small calls in E6's shape (bench/main.ml, seeds 600/601, the
     50,000-id namespace), pinned exactly: a change to the id sampler,
     the per-trial draws or the duplicate check moves them, and with
     them the committed results/e6_* tables. *)
  let pin what expected actual =
    Alcotest.(check (float 0.)) what expected actual
  in
  pin "uniform pick k=12" 0.64
    (A.collision_probability ~rule:A.Uniform_pick ~seed:600 ~namespace:50_000
       ~k:12 ~m:64 ~trials:200);
  pin "shared hash k=12" 0.665
    (A.collision_probability ~rule:A.Shared_hash ~seed:600 ~namespace:50_000
       ~k:12 ~m:64 ~trials:200);
  pin "budget 60 of 64" 0.1
    (A.budget_success_probability ~seed:601 ~namespace:50_000 ~n:64
       ~budget:60 ~trials:200)

let suite =
  ( "anonymous_renaming",
    [
      Alcotest.test_case "birthday bound" `Quick test_birthday_bound_values;
      Alcotest.test_case "empirical matches birthday" `Quick
        test_empirical_matches_birthday;
      Alcotest.test_case "silent nodes collide" `Quick
        test_silent_nodes_must_collide;
      Alcotest.test_case "budget success shape" `Quick test_budget_success_shape;
      Alcotest.test_case "3/4 success needs linear budget" `Quick
        test_success_requires_linear_budget;
      Alcotest.test_case "E6 calls pinned" `Quick test_e6_pinned;
    ] )
