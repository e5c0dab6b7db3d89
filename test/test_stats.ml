module S = Repro_util.Stats

let close = Alcotest.(check (float 1e-9))

let test_summary () =
  let s = S.summarize [ 1.; 2.; 3.; 4. ] in
  close "mean" 2.5 s.S.mean;
  close "min" 1. s.S.min;
  close "max" 4. s.S.max;
  close "median" 2.5 s.S.median;
  Alcotest.(check int) "n" 4 s.S.n;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (S.summarize []))

let test_percentile () =
  let xs = [ 10.; 20.; 30.; 40.; 50. ] in
  close "p0" 10. (S.percentile xs 0.);
  close "p50" 30. (S.percentile xs 50.);
  close "p100" 50. (S.percentile xs 100.);
  close "p25" 20. (S.percentile xs 25.)

(* The least-squares line under [log_log_slope]: [log y = 2 log x + 1]
   exactly, and a vertical line is rejected. *)
let test_linear_fit () =
  close "slope" 2.
    (S.log_log_slope
       (List.map (fun t -> (exp t, exp ((2. *. t) +. 1.))) [ 1.; 2.; 3. ]));
  Alcotest.check_raises "degenerate x"
    (Invalid_argument "Stats.log_log_slope: degenerate x") (fun () ->
      ignore (S.log_log_slope [ (2., 1.); (2., 5.) ]))

let test_log_log_slope () =
  (* y = 4 x^2: slope 2 on log-log *)
  let pts = List.init 10 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 4. *. (x ** 2.)))
  in
  Alcotest.(check (float 1e-6)) "quadratic slope" 2. (S.log_log_slope pts)

let test_log_log_slope_filtered () =
  (* Non-positive coordinates are filtered before the fit; when fewer
     than two points survive, the error must name the real cause (the
     filtering), not a generic point-count complaint. *)
  Alcotest.check_raises "all points filtered"
    (Invalid_argument "Stats.log_log_slope: 0 usable points after filtering")
    (fun () -> ignore (S.log_log_slope [ (0., 1.); (1., 0.); (-2., 3.) ]));
  Alcotest.check_raises "one point survives"
    (Invalid_argument "Stats.log_log_slope: 1 usable points after filtering")
    (fun () -> ignore (S.log_log_slope [ (2., 4.); (0., 7.) ]));
  Alcotest.check_raises "empty input"
    (Invalid_argument "Stats.log_log_slope: 0 usable points after filtering")
    (fun () -> ignore (S.log_log_slope []));
  (* Two usable points among garbage: fits fine. *)
  close "fit ignores filtered points" 1.
    (S.log_log_slope [ (0., 5.); (2., 2.); (4., 4.); (-1., -1.) ])

let test_singleton () =
  let s = S.summarize [ 7.5 ] in
  Alcotest.(check int) "n" 1 s.S.n;
  close "mean" 7.5 s.S.mean;
  close "median" 7.5 s.S.median;
  close "min" 7.5 s.S.min;
  close "max" 7.5 s.S.max;
  (* population stddev: a single observation deviates from its own mean
     by nothing (the sample formula would divide by zero here). *)
  close "stddev" 0. s.S.stddev

(* Reference percentile on the sorted array: exact at the anchor points
   p = 0, 50, 100 regardless of interpolation convention. *)
let test_percentile_reference () =
  let xs = [ 9.; 1.; 4.; 25.; 16. ] in
  let sorted = List.sort compare xs |> Array.of_list in
  close "p0 = min" sorted.(0) (S.percentile xs 0.);
  close "p100 = max" sorted.(4) (S.percentile xs 100.);
  close "p50 = median" sorted.(2) (S.percentile xs 50.);
  close "p50 = summarize median" (S.summarize xs).S.median
    (S.percentile xs 50.)

let nonempty_floats =
  QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (float_bound_exclusive 1000.))

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p, within [min,max]"
    ~count:300
    QCheck.(pair nonempty_floats (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      let v1 = S.percentile xs lo and v2 = S.percentile xs hi in
      let s = S.summarize xs in
      v1 <= v2 +. 1e-9
      && s.S.min <= v1 +. 1e-9
      && v2 <= s.S.max +. 1e-9)

let qcheck_percentile_anchors =
  QCheck.Test.make ~name:"percentile anchors p in {0,50,100}" ~count:300
    nonempty_floats
    (fun xs ->
      let sorted = List.sort compare xs |> Array.of_list in
      let n = Array.length sorted in
      let median =
        if n mod 2 = 1 then sorted.(n / 2)
        else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.
      in
      abs_float (S.percentile xs 0. -. sorted.(0)) <= 1e-9
      && abs_float (S.percentile xs 100. -. sorted.(n - 1)) <= 1e-9
      && abs_float (S.percentile xs 50. -. median) <= 1e-9)

let qcheck_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = S.summarize xs in
      s.S.min <= s.S.mean +. 1e-9 && s.S.mean <= s.S.max +. 1e-9)

let suite =
  ( "stats",
    [
      Alcotest.test_case "summarize" `Quick test_summary;
      Alcotest.test_case "percentile" `Quick test_percentile;
      Alcotest.test_case "singleton summary" `Quick test_singleton;
      Alcotest.test_case "percentile reference" `Quick test_percentile_reference;
      QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
      QCheck_alcotest.to_alcotest qcheck_percentile_anchors;
      Alcotest.test_case "linear fit" `Quick test_linear_fit;
      Alcotest.test_case "log-log slope" `Quick test_log_log_slope;
      Alcotest.test_case "log-log slope: filtered-point errors" `Quick
        test_log_log_slope_filtered;
      QCheck_alcotest.to_alcotest qcheck_mean_bounds;
    ] )
