module B = Repro_util.Bitvec
module I = Repro_util.Interval
module Oracle = Fingerprint_oracle

let test_basic () =
  let v = B.create 10 in
  Alcotest.(check int) "length" 10 (B.length v);
  Alcotest.(check bool) "initially zero" false (B.get v 1);
  B.set v 3 true;
  B.set v 10 true;
  Alcotest.(check bool) "set 3" true (B.get v 3);
  Alcotest.(check bool) "set 10" true (B.get v 10);
  B.set v 3 false;
  Alcotest.(check bool) "cleared 3" false (B.get v 3);
  Alcotest.(check int) "count_all" 1 (B.count_all v);
  Alcotest.check_raises "out of range" (Invalid_argument "Bitvec: position out of range")
    (fun () -> ignore (B.get v 11))

let test_rank_ones_in () =
  let v = B.create 12 in
  List.iter (fun i -> B.set v i true) [ 2; 5; 7; 12 ];
  Alcotest.(check int) "rank 1" 0 (B.rank v 1);
  Alcotest.(check int) "rank 2" 1 (B.rank v 2);
  Alcotest.(check int) "rank 7" 3 (B.rank v 7);
  Alcotest.(check int) "rank 12" 4 (B.rank v 12);
  Alcotest.(check (list int)) "ones_in" [ 5; 7 ] (B.ones_in v (I.make 3 8))

let test_fill_and_blit () =
  let v = B.create 16 in
  B.fill_segment_with_ones v (I.make 5 10) 3;
  Alcotest.(check int) "filled count" 3 (B.count v (I.make 5 10));
  Alcotest.(check int) "nothing outside" 3 (B.count_all v);
  (* The ship-segments ablation's blit: a segment's packed bytes written
     over the same segment of another vector. *)
  let w = B.create 16 in
  let all = I.make 1 16 in
  B.set_segment_bytes w all (B.segment_bytes v all);
  Alcotest.(check bool) "segments equal" true (Oracle.equal_segment v w all);
  B.set w 16 true;
  Alcotest.(check bool) "differ now" false (Oracle.equal_segment v w (I.make 9 16));
  Alcotest.(check bool) "prefix still equal" true
    (Oracle.equal_segment v w (I.make 1 8));
  Alcotest.check_raises "overfill" (Invalid_argument "Bitvec.fill_segment_with_ones")
    (fun () -> B.fill_segment_with_ones v (I.make 1 2) 3)

(* Model-based property test: Bitvec behaves like a bool array. *)
let ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (let* pos = int_range 1 64 in
       let* b = bool in
       return (pos, b)))

let qcheck_model =
  QCheck.Test.make ~name:"bitvec agrees with bool-array model" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";"
           (List.map (fun (p, b) -> Printf.sprintf "%d:=%b" p b) ops))
       ops_gen)
    (fun ops ->
      let v = B.create 64 in
      let model = Array.make 65 false in
      List.iter
        (fun (pos, b) ->
          B.set v pos b;
          model.(pos) <- b)
        ops;
      let ok_bits = ref true in
      for i = 1 to 64 do
        if B.get v i <> model.(i) then ok_bits := false
      done;
      let model_count lo hi =
        let c = ref 0 in
        for i = lo to hi do
          if model.(i) then incr c
        done;
        !c
      in
      !ok_bits
      && B.count v (I.make 10 50) = model_count 10 50
      && B.rank v 33 = model_count 1 33
      && B.count_all v = model_count 1 64)

(* The test-side segment fold the fingerprint oracle reads segments
   with. *)
let qcheck_fold =
  QCheck.Test.make ~name:"fold_segment visits bits in order" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 0 23))
    (fun (lo, span) ->
      let v = B.create 64 in
      let hi = lo + span in
      (* set even positions *)
      for i = lo to hi do
        if i mod 2 = 0 then B.set v i true
      done;
      let collected =
        Oracle.fold_segment v (I.make lo hi) ~init:[] ~f:(fun acc b -> b :: acc)
        |> List.rev
      in
      List.length collected = span + 1
      && List.for_all2
           (fun b i -> b = (i mod 2 = 0))
           collected
           (List.init (span + 1) (fun k -> lo + k)))

(* Differential tests for the word-parallel primitives: every operation
   is re-implemented bit-by-bit over a bool-array reference and compared
   on vectors whose lengths straddle the 63-bit word boundary (the
   masking in the first/mid/last word of a range is where a SWAR bug
   would hide). *)

let boundary_lengths = [ 1; 2; 62; 63; 64; 126; 127; 130 ]

let vec_gen =
  QCheck.Gen.(
    let* len = oneofl boundary_lengths in
    let* bits = list_size (int_range 0 (2 * len)) (int_range 1 len) in
    let* lo = int_range 1 len in
    let* hi = int_range lo len in
    return (len, bits, lo, hi))

let vec_print (len, bits, lo, hi) =
  Printf.sprintf "len=%d seg=[%d,%d] bits=[%s]" len lo hi
    (String.concat ";" (List.map string_of_int bits))

let build (len, bits) =
  let v = B.create len in
  let model = Array.make (len + 1) false in
  List.iter
    (fun i ->
      B.set v i true;
      model.(i) <- true)
    bits;
  (v, model)

let model_ones model lo hi =
  List.filter (fun i -> model.(i)) (List.init (hi - lo + 1) (fun k -> lo + k))

let qcheck_range_ops =
  QCheck.Test.make ~name:"count/iter_set vs bit-by-bit reference"
    ~count:500
    (QCheck.make ~print:vec_print vec_gen)
    (fun (len, bits, lo, hi) ->
      let v, model = build (len, bits) in
      let seg = I.make lo hi in
      let ones = model_ones model lo hi in
      B.count v seg = List.length ones
      && B.ones_in v seg = ones
      &&
      let collected = ref [] in
      B.iter_set v seg ~f:(fun p -> collected := p :: !collected);
      List.rev !collected = ones)

let qcheck_rank =
  QCheck.Test.make ~name:"rank vs bit-by-bit reference" ~count:500
    (QCheck.make ~print:vec_print vec_gen)
    (fun (len, bits, pos, _) ->
      let v, model = build (len, bits) in
      let all = model_ones model 1 len in
      B.rank v pos = List.length (model_ones model 1 pos)
      && B.count_all v = List.length all)

let test_word_parallel_edges () =
  (* length 0: constructible, countable, un-indexable *)
  let z = B.create 0 in
  Alcotest.(check int) "len 0 count_all" 0 (B.count_all z);
  Alcotest.check_raises "len 0 get"
    (Invalid_argument "Bitvec: position out of range") (fun () ->
      ignore (B.get z 1));
  (* exactly one word, last position = sign bit of the word *)
  let v = B.create 63 in
  B.set v 63 true;
  Alcotest.(check int) "sign-bit count" 1 (B.count v (I.make 63 63));
  Alcotest.(check (list int)) "sign-bit ones_in" [ 63 ]
    (B.ones_in v (I.make 1 63));
  Alcotest.(check int) "sign-bit rank" 1 (B.rank v 63);
  (* first position of the second word *)
  let w = B.create 64 in
  B.set w 64 true;
  Alcotest.(check int) "word-boundary rank" 1 (B.rank w 64);
  Alcotest.(check (list int)) "word-boundary ones_in" [ 64 ]
    (B.ones_in w (I.make 2 64));
  Alcotest.(check (list int)) "empty-range ones_in" []
    (B.ones_in w (I.make 1 63))

let suite =
  ( "bitvec",
    [
      Alcotest.test_case "basic get/set" `Quick test_basic;
      Alcotest.test_case "rank/ones_in" `Quick test_rank_ones_in;
      Alcotest.test_case "fill/blit/equal" `Quick test_fill_and_blit;
      Alcotest.test_case "word-parallel edge cases" `Quick
        test_word_parallel_edges;
      QCheck_alcotest.to_alcotest qcheck_model;
      QCheck_alcotest.to_alcotest qcheck_fold;
      QCheck_alcotest.to_alcotest qcheck_range_ops;
      QCheck_alcotest.to_alcotest qcheck_rank;
    ] )
