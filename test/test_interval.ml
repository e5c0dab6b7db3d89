module I = Repro_util.Interval

let itv = Alcotest.testable I.pp I.equal

let test_make () =
  Alcotest.(check int) "size" 10 (I.size (I.make 1 10));
  Alcotest.(check bool) "singleton" true (I.is_singleton (I.singleton 5));
  Alcotest.(check int) "point" 5 (I.point (I.singleton 5));
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Interval.make: empty interval") (fun () ->
      ignore (I.make 3 2))

let test_halving () =
  let i = I.make 1 10 in
  Alcotest.check itv "bot" (I.make 1 5) (I.bot i);
  Alcotest.check itv "top" (I.make 6 10) (I.top i);
  let odd = I.make 1 7 in
  Alcotest.check itv "bot odd" (I.make 1 4) (I.bot odd);
  Alcotest.check itv "top odd" (I.make 5 7) (I.top odd);
  (* the paper's formula: bot = [l, ⌊(l+r)/2⌋] *)
  let shifted = I.make 4 9 in
  Alcotest.check itv "bot shifted" (I.make 4 6) (I.bot shifted);
  Alcotest.check itv "top shifted" (I.make 7 9) (I.top shifted);
  Alcotest.check itv "bot singleton is identity" (I.singleton 3)
    (I.bot (I.singleton 3));
  Alcotest.check_raises "top singleton"
    (Invalid_argument "Interval.top: singleton has no top") (fun () ->
      ignore (I.top (I.singleton 3)))

let test_subset_contains () =
  let i = I.make 2 8 in
  Alcotest.(check bool) "subset yes" true (Halving_tree.subset (I.make 3 5) i);
  Alcotest.(check bool) "subset self" true (Halving_tree.subset i i);
  Alcotest.(check bool) "subset no" false (Halving_tree.subset (I.make 1 5) i);
  Alcotest.(check bool) "contains" true (I.contains i 2);
  Alcotest.(check bool) "not contains" false (I.contains i 9)

let test_depth_in_tree () =
  Alcotest.(check (option int)) "root" (Some 0) (Halving_tree.depth_in_tree ~n:8 (I.make 1 8));
  Alcotest.(check (option int))
    "left child" (Some 1)
    (Halving_tree.depth_in_tree ~n:8 (I.make 1 4));
  Alcotest.(check (option int))
    "leaf" (Some 3)
    (Halving_tree.depth_in_tree ~n:8 (I.singleton 5));
  Alcotest.(check (option int)) "non-vertex" None (Halving_tree.depth_in_tree ~n:8 (I.make 2 5))

let qcheck_interval =
  QCheck.make
    ~print:(fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi)
    QCheck.Gen.(
      let* lo = int_range 1 1000 in
      let* span = int_range 1 1000 in
      return (lo, lo + span))

(* [(lo + hi) / 2] overflows for intervals near [max_int]; [bot]/[top]
   must behave as if the midpoint were computed with unbounded integers.
   Exercised through [bot]/[top] since the midpoint itself is private. *)
let test_halving_near_max_int () =
  let lo = max_int - 9 in
  let i = I.make lo max_int in
  let b = I.bot i and t = I.top i in
  Alcotest.check itv "bot at max_int" (I.make lo (lo + 4)) b;
  Alcotest.check itv "top at max_int" (I.make (lo + 5) max_int) t;
  Alcotest.(check int) "partition sizes" (I.size i) (I.size b + I.size t);
  (* Two negative halves would also "partition"; pin the exact bound. *)
  Alcotest.(check bool) "bot hi positive" true (b.I.hi > 0);
  let single = I.make max_int max_int in
  Alcotest.check itv "singleton at max_int fixed by bot" single (I.bot single)

let qcheck_halving_near_max_int =
  QCheck.Test.make ~name:"bot/top partition near max_int (no mid overflow)"
    ~count:500
    QCheck.(pair (int_range 0 4096) (int_range 1 4096))
    (fun (off, span) ->
      let hi = max_int - off in
      let lo = hi - span in
      let i = I.make lo hi in
      let b = I.bot i and t = I.top i in
      b.I.lo = lo && t.I.hi = hi
      && b.I.hi + 1 = t.I.lo
      && b.I.hi >= lo && b.I.hi < hi
      && I.size b - I.size t >= 0
      && I.size b - I.size t <= 1)

let qcheck_halving_partition =
  QCheck.Test.make ~name:"bot/top partition the interval" ~count:500
    qcheck_interval (fun (lo, hi) ->
      let i = I.make lo hi in
      let b = I.bot i and t = I.top i in
      b.I.lo = i.I.lo && t.I.hi = i.I.hi
      && b.I.hi + 1 = t.I.lo
      && I.size b + I.size t = I.size i
      && I.size b >= I.size t
      && I.size b - I.size t <= 1)

let qcheck_tree_leaves =
  QCheck.Test.make ~name:"halving tree: every leaf path reaches a singleton"
    ~count:200
    QCheck.(int_range 1 300)
    (fun n ->
      (* walking bot repeatedly from [1,n] reaches a singleton in
         ceil(log2 n) steps *)
      let rec depth i acc =
        if I.is_singleton i then acc else depth (I.bot i) (acc + 1)
      in
      depth (I.full n) 0 <= (if n = 1 then 0 else Repro_util.Ilog.ceil_log2 n))

let qcheck_tree_vertex_consistency =
  QCheck.Test.make ~name:"tree_vertex_at agrees with depth_in_tree" ~count:300
    QCheck.(pair (int_range 2 256) (pair (int_range 0 5) (int_range 0 31)))
    (fun (n, (depth, index)) ->
      match Halving_tree.tree_vertex_at ~n ~depth ~index with
      | None -> true
      | Some i -> Halving_tree.depth_in_tree ~n i = Some depth)

let suite =
  ( "interval",
    [
      Alcotest.test_case "make/size/point" `Quick test_make;
      Alcotest.test_case "halving" `Quick test_halving;
      Alcotest.test_case "halving near max_int" `Quick
        test_halving_near_max_int;
      QCheck_alcotest.to_alcotest qcheck_halving_near_max_int;
      Alcotest.test_case "subset/contains" `Quick test_subset_contains;
      Alcotest.test_case "depth_in_tree" `Quick test_depth_in_tree;
      QCheck_alcotest.to_alcotest qcheck_halving_partition;
      QCheck_alcotest.to_alcotest qcheck_tree_leaves;
      QCheck_alcotest.to_alcotest qcheck_tree_vertex_consistency;
    ] )
