module F = Repro_crypto.Fingerprint
module B = Repro_util.Bitvec
module I = Repro_util.Interval
module Oracle = Fingerprint_oracle

(* The production path on an explicit, non-empty bit list: [of_segment]
   over a vector holding exactly those bits. *)
let of_list k bits =
  let v = B.create (List.length bits) in
  List.iteri (fun i bit -> if bit then B.set v (i + 1) true) bits;
  F.of_segment k v (I.make 1 (List.length bits))

let test_determinism () =
  let k = F.key_of_seed 42 in
  let k' = F.key_of_seed 42 in
  let bits = [ true; false; true; true ] in
  Alcotest.(check bool)
    "same seed, same fingerprint" true
    (F.equal (of_list k bits) (of_list k' bits));
  let k2 = F.key_of_seed 43 in
  Alcotest.(check bool)
    "different seed, different fingerprint (whp)" false
    (F.equal (of_list k bits) (of_list k2 bits))

let test_of_segment_matches_of_bits () =
  let k = F.key_of_seed 7 in
  let v = B.create 32 in
  List.iter (fun i -> B.set v i true) [ 3; 4; 9; 17; 32 ];
  let seg = I.make 2 20 in
  Alcotest.(check bool)
    "segment = explicit bits" true
    (F.equal (F.of_segment k v seg)
       (Oracle.of_bits ~seed:7 (Oracle.bits_of_segment v seg)))

let test_position_sensitivity () =
  let k = F.key_of_seed 11 in
  (* Same number of ones, different positions: must differ (whp). *)
  let a = of_list k [ true; false; false; true ] in
  let b = of_list k [ false; true; true; false ] in
  Alcotest.(check bool) "position-sensitive" false (F.equal a b)

let test_compare_consistent () =
  let k = F.key_of_seed 3 in
  let a = of_list k [ true; true ] in
  let b = of_list k [ true; false ] in
  Alcotest.(check int) "compare self" 0 (F.compare a a);
  Alcotest.(check bool) "compare antisym" true
    (F.compare a b = -F.compare b a)

let qcheck_no_collision_random_pairs =
  (* Sampled collision resistance: random distinct bit strings of equal
     length almost never collide (pair collision prob <= (m/p)^2 with
     m <= 128, p = 2^31-1: ~ 4e-15). 2000 trials must see none. *)
  QCheck.Test.make ~name:"no collisions on random distinct inputs" ~count:2000
    QCheck.(
      triple small_int
        (list_of_size (QCheck.Gen.int_range 1 128) bool)
        (list_of_size (QCheck.Gen.int_range 1 128) bool))
    (fun (seed, xs, ys) ->
      let k = F.key_of_seed seed in
      if List.length xs = List.length ys && xs <> ys then
        not (F.equal (of_list k xs) (of_list k ys))
      else true)

let p = (1 lsl 31) - 1

(* [of_raw] keeps each value's non-negative residue mod [p], negative
   inputs and inputs >= p included; a residue never bleeds into the
   other field of the packed value. *)
let qcheck_raw_roundtrip =
  let residue v = ((v mod p) + p) mod p in
  QCheck.Test.make ~name:"of_raw/to_int_pair roundtrip (mod p)" ~count:500
    QCheck.(
      pair
        (oneof [ int; int_range (-2 * p) (2 * p); int_bound (p - 1) ])
        (oneof [ int; int_range (-2 * p) (2 * p); int_bound (p - 1) ]))
    (fun (a, b) ->
      let fp = F.of_raw a b in
      F.to_int_pair fp = (residue a, residue b)
      && F.equal fp (F.of_raw (residue a) (residue b)))

(* [compare] orders by the first value, then the second. *)
let qcheck_compare_lexicographic =
  QCheck.Test.make ~name:"compare = compare of (v1, v2)" ~count:500
    QCheck.(
      quad (int_bound (p - 1)) (int_bound (p - 1)) (int_bound (p - 1))
        (int_bound (p - 1)))
    (fun (a, b, c, d) ->
      let sign x = Int.compare x 0 in
      sign (F.compare (F.of_raw a b) (F.of_raw c d))
      = sign (compare (a, b) (c, d)))

let test_raw_edges () =
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "p - 1 stays" (p - 1, p - 1)
    (F.to_int_pair (F.of_raw (p - 1) (p - 1)));
  Alcotest.check pair "p is 0" (0, 0) (F.to_int_pair (F.of_raw p p));
  Alcotest.check pair "-1 is p - 1" (p - 1, 0)
    (F.to_int_pair (F.of_raw (-1) 0));
  Alcotest.check pair "min_int" (((min_int mod p) + p) mod p, 1)
    (F.to_int_pair (F.of_raw min_int 1))

let test_bits_size () =
  let k = F.key_of_seed 1 in
  Alcotest.(check int) "62-bit wire size" 62 (F.bits (of_list k [ true ]))

(* The one-pass [of_segment] against the oracle's list-fold [of_bits]
   on random vectors up to 300 bits: segments start and end anywhere,
   so they cross the bit vector's 63-bit word seams. *)
let qcheck_of_segment_matches_of_bits =
  QCheck.Test.make ~name:"of_segment = of_bits of the segment's bits"
    ~count:500
    QCheck.(
      quad small_int
        (list_of_size (QCheck.Gen.int_range 1 300) bool)
        small_nat small_nat)
    (fun (seed, bits, a, b) ->
      let len = List.length bits in
      let v = B.create len in
      List.iteri (fun i bit -> if bit then B.set v (i + 1) true) bits;
      let lo = 1 + (a mod len) in
      let hi = lo + (b mod (len - lo + 1)) in
      let seg = I.make lo hi in
      let seg_bits = List.filteri (fun i _ -> i + 1 >= lo && i + 1 <= hi) bits in
      F.equal
        (F.of_segment (F.key_of_seed seed) v seg)
        (Oracle.of_bits ~seed seg_bits))

(* A fingerprint is an immediate: [of_segment] allocates nothing
   however long the segment, and neither does [of_raw]. *)
let test_allocation_free () =
  let k = F.key_of_seed 5 in
  let v = B.create 8192 in
  for i = 1 to 8192 do
    if i mod 3 = 0 then B.set v i true
  done;
  let sink = ref (F.of_raw 0 0) in
  let words seg =
    Test_rng.minor_words_of (fun () -> sink := F.of_segment k v seg)
  in
  let small = words (I.make 100 115) and large = words (I.make 1 8192) in
  Alcotest.(check (float 0.)) "of_segment, 16-bit segment" 0. small;
  Alcotest.(check (float 0.)) "of_segment, 8192-bit segment" 0. large;
  let raw =
    Test_rng.minor_words_of (fun () ->
        for i = 1 to 1000 do
          sink := F.of_raw (i * 7919) (-i)
        done)
  in
  Alcotest.(check (float 0.)) "1000 of_raw" 0. raw;
  ignore (Sys.opaque_identity !sink)

let suite =
  ( "fingerprint",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "of_segment = of_bits" `Quick
        test_of_segment_matches_of_bits;
      Alcotest.test_case "position sensitivity" `Quick test_position_sensitivity;
      Alcotest.test_case "compare" `Quick test_compare_consistent;
      Alcotest.test_case "wire size" `Quick test_bits_size;
      Alcotest.test_case "of_segment allocation constant" `Quick
        test_allocation_free;
      Alcotest.test_case "of_raw edges" `Quick test_raw_edges;
      QCheck_alcotest.to_alcotest qcheck_of_segment_matches_of_bits;
      QCheck_alcotest.to_alcotest qcheck_no_collision_random_pairs;
      QCheck_alcotest.to_alcotest qcheck_raw_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_compare_lexicographic;
    ] )
