module Rng = Repro_util.Rng
module Splitmix = Repro_util.Splitmix

let test_determinism () =
  let a = Rng.of_seed 42 and b = Rng.of_seed 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_split_independence () =
  let parent = Rng.of_seed 7 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_copy () =
  let sm = Splitmix.create 5L in
  ignore (Splitmix.next sm);
  let dup = Splitmix.copy sm in
  Alcotest.(check int64) "copy continues identically" (Splitmix.next sm)
    (Splitmix.next dup)

let qcheck_int_range =
  QCheck.Test.make ~name:"int within bound" ~count:1000
    QCheck.(pair (int_range 1 10_000) small_int)
    (fun (bound, seed) ->
      let rng = Rng.of_seed seed in
      let v = Rng.int rng bound in
      0 <= v && v < bound)

let qcheck_bernoulli_extremes =
  QCheck.Test.make ~name:"bernoulli extremes" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Rng.of_seed seed in
      (not (Rng.bernoulli rng 0.)) && Rng.bernoulli rng 1.)

let test_bernoulli_frequency () =
  let rng = Rng.of_seed 9 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "frequency %.3f near 0.3" freq)
    true
    (abs_float (freq -. 0.3) < 0.02)

let test_shuffle_permutes () =
  let rng = Rng.of_seed 3 in
  let arr = Array.init 100 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Rng.of_seed 4 in
  let arr = Array.init 50 (fun i -> i) in
  let s = Rng.sample_without_replacement rng 20 arr in
  Alcotest.(check int) "size" 20 (Array.length s);
  let uniq = List.sort_uniq Int.compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 20 (List.length uniq);
  let over = Rng.sample_without_replacement rng 500 arr in
  Alcotest.(check int) "clamped to population" 50 (Array.length over)

let test_float_range () =
  let rng = Rng.of_seed 12 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

(* Literal SplitMix64 output, recorded before the state moved into an
   unboxed buffer: the first five [bits64] of three seeds. *)
let test_bits64_pinned () =
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.of_seed seed in
      let got = List.init 5 (fun _ -> Rng.bits64 rng) in
      Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) expected got)
    [
      ( 0,
        [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
          0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL ] );
      ( 1,
        [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL;
          0x71C18690EE42C90BL; 0x71BB54D8D101B5B9L ] );
      ( 12345,
        [ 0x22118258A9D111A0L; 0x346EDCE5F713F8EDL; 0x1E9A57BC80E6721DL;
          0x2D160E7E5C3F42CAL; 0x81C2E6DC980D78EBL ] );
    ]

let test_next_int_twin () =
  let a = Splitmix.create 77L in
  let b = Splitmix.copy a in
  for _ = 1 to 1000 do
    Alcotest.(check int) "next_int = to_int next" (Int64.to_int (Splitmix.next b))
      (Splitmix.next_int a)
  done

(* Minor words [f] allocates, net of the measurement's own overhead. *)
let minor_words_of f =
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  measure f -. measure (fun () -> ())

let test_draws_allocate_nothing () =
  let rng = Rng.of_seed 3 in
  let sink = ref 0 in
  List.iter
    (fun (name, draw) ->
      let words =
        minor_words_of (fun () ->
            for _ = 1 to 100_000 do
              sink := !sink + draw ()
            done)
      in
      Alcotest.(check (float 0.)) (name ^ ": minor words over 10^5 draws") 0.
        words)
    [
      ("int", fun () -> Rng.int rng 1000);
      ("bool", fun () -> Bool.to_int (Rng.bool rng));
      ("bernoulli", fun () -> Bool.to_int (Rng.bernoulli rng 0.3));
    ]

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "split independence" `Quick test_split_independence;
      Alcotest.test_case "splitmix copy" `Quick test_copy;
      Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
      Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
      Alcotest.test_case "sample without replacement" `Quick
        test_sample_without_replacement;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "bits64 stream pinned" `Quick test_bits64_pinned;
      Alcotest.test_case "next_int = to_int next" `Quick test_next_int_twin;
      Alcotest.test_case "draws allocate nothing" `Quick
        test_draws_allocate_nothing;
      QCheck_alcotest.to_alcotest qcheck_int_range;
      QCheck_alcotest.to_alcotest qcheck_bernoulli_extremes;
    ] )
