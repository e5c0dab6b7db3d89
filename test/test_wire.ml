module W = Repro_sim.Wire

let test_bits_roundtrip () =
  let w = W.Writer.create () in
  List.iter (W.Writer.add_bit w) [ true; false; true; true; false ];
  Alcotest.(check int) "bit length" 5 (W.Writer.bit_length w);
  let r = W.Reader.of_string (W.Writer.contents w) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) "bit value" expected (W.Reader.read_bit r))
    [ true; false; true; true; false ]

(* Encode then decode one fixed-width value. *)
let roundtrip_fixed v ~width =
  let w = W.Writer.create () in
  W.Writer.add_fixed w v ~width;
  W.Reader.read_fixed (W.Reader.of_string (W.Writer.contents w)) ~width

let test_fixed_roundtrip () =
  List.iter
    (fun (v, width) ->
      Alcotest.(check int)
        (Printf.sprintf "fixed %d/%d" v width)
        v
        (roundtrip_fixed v ~width))
    [ (0, 1); (1, 1); (5, 3); (255, 8); (256, 9); (12345, 20); (0, 0) ]

let test_fixed_rejects () =
  let w = W.Writer.create () in
  Alcotest.check_raises "value too large"
    (Invalid_argument "Wire.Writer.add_fixed: value does not fit") (fun () ->
      W.Writer.add_fixed w 8 ~width:3);
  Alcotest.check_raises "negative"
    (Invalid_argument "Wire.Writer.add_fixed: value does not fit") (fun () ->
      W.Writer.add_fixed w (-1) ~width:3)

let test_gamma_values () =
  Alcotest.(check int) "gamma_bits 0" 1 (W.gamma_bits 0);
  Alcotest.(check int) "gamma_bits 1" 3 (W.gamma_bits 1);
  Alcotest.(check int) "gamma_bits 2" 3 (W.gamma_bits 2);
  Alcotest.(check int) "gamma_bits 3" 5 (W.gamma_bits 3);
  Alcotest.(check int) "gamma_bits 6" 5 (W.gamma_bits 6);
  Alcotest.(check int) "gamma_bits 7" 7 (W.gamma_bits 7)

let test_out_of_bits () =
  let r = W.Reader.of_string "" in
  Alcotest.check_raises "empty input"
    (Invalid_argument "Wire.Reader: out of bits") (fun () ->
      ignore (W.Reader.read_bit r))

(* [within] bounds a field and demands it be read whole; the outer
   bound comes back however the field's read ends. *)
let test_within () =
  let w = W.Writer.create () in
  List.iter (W.Writer.add_gamma w) [ 5; 9; 2 ];
  W.Writer.add_fixed w 3 ~width:2;
  let r = W.Reader.of_string (W.Writer.contents w) in
  Alcotest.(check int) "first" 5 (W.Reader.read_gamma r);
  let field = W.gamma_bits 9 in
  Alcotest.(check int)
    "exact field" 9
    (W.Reader.within r ~bits:field W.Reader.read_gamma);
  Alcotest.(check int) "position after the field" (W.gamma_bits 5 + field)
    (W.Reader.position r);
  Alcotest.check_raises "read past the field"
    (Invalid_argument "Wire.Reader: out of bits") (fun () ->
      ignore (W.Reader.within r ~bits:2 W.Reader.read_gamma));
  Alcotest.(check int)
    "outer bound restored"
    (8 * W.Writer.byte_length w)
    (W.Reader.position r + W.Reader.bits_remaining r);
  let r = W.Reader.of_string (W.Writer.contents w) in
  W.Reader.skip r (W.gamma_bits 5 + field);
  Alcotest.check_raises "field left unread"
    (Invalid_argument "Wire.Reader.within: short read") (fun () ->
      ignore (W.Reader.within r ~bits:(W.gamma_bits 2 + 1) W.Reader.read_gamma));
  Alcotest.(check int) "reads on past the field" 3
    (W.Reader.read_fixed r ~width:2);
  Alcotest.check_raises "field beyond the input"
    (Invalid_argument "Wire.Reader: out of bits") (fun () ->
      ignore (W.Reader.within r ~bits:64 W.Reader.read_gamma));
  Alcotest.check_raises "skip beyond the input"
    (Invalid_argument "Wire.Reader: out of bits") (fun () ->
      W.Reader.skip r 64)

(* [add_subbytes] appends a slice exactly as [add_string] appends it as
   a string, at every bit offset. *)
let test_add_subbytes () =
  let src = Bytes.of_string "\x00\xa5\x3c\xff\x01" in
  for k = 0 to 7 do
    let a = W.Writer.create () and b = W.Writer.create () in
    for _ = 1 to k do
      W.Writer.add_bit a true;
      W.Writer.add_bit b true
    done;
    W.Writer.add_subbytes a src 1 3;
    W.Writer.add_string b (Bytes.sub_string src 1 3);
    Alcotest.(check string)
      (Printf.sprintf "offset %d" k)
      (W.Writer.contents b) (W.Writer.contents a)
  done;
  Alcotest.check_raises "slice outside the bytes"
    (Invalid_argument "Wire.Writer.add_subbytes: range") (fun () ->
      W.Writer.add_subbytes (W.Writer.create ()) src 3 3)

let qcheck_gamma_roundtrip =
  QCheck.Test.make ~name:"gamma roundtrip + exact cost" ~count:1000
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let w = W.Writer.create () in
      W.Writer.add_gamma w v;
      let exact = W.Writer.bit_length w = W.gamma_bits v in
      let r = W.Reader.of_string (W.Writer.contents w) in
      W.Reader.read_gamma r = v && exact)

(* {2 Differential tests against the bit-at-a-time oracle}

   The same operations go through the library and through
   [Wire_oracle]; every outcome is compared as [Ok value] or
   [Error message]. Writes continue past a rejected operation (neither
   codec writes anything before its checks pass); reads stop at the
   first error, after which the reader's position is unspecified. *)

module O = Wire_oracle

type wop = Bit of bool | Fixed of int * int | Gamma of int | Str of string
type rop = RBit | RFixed of int | RGamma | RStr of int

let pp_wop = function
  | Bit b -> Printf.sprintf "bit %b" b
  | Fixed (v, w) -> Printf.sprintf "fixed %d/%d" v w
  | Gamma v -> Printf.sprintf "gamma %d" v
  | Str s -> Printf.sprintf "string %S" s

let pp_rop = function
  | RBit -> "bit"
  | RFixed w -> Printf.sprintf "fixed/%d" w
  | RGamma -> "gamma"
  | RStr n -> Printf.sprintf "string/%d" n

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let run_wop w o op =
  let both f g = (outcome f, outcome g) in
  match op with
  | Bit b ->
      both (fun () -> W.Writer.add_bit w b) (fun () -> O.Writer.add_bit o b)
  | Fixed (v, width) ->
      both
        (fun () -> W.Writer.add_fixed w v ~width)
        (fun () -> O.Writer.add_fixed o v ~width)
  | Gamma v ->
      both (fun () -> W.Writer.add_gamma w v) (fun () -> O.Writer.add_gamma o v)
  | Str s ->
      both
        (fun () -> W.Writer.add_string w s)
        (fun () -> O.Writer.add_string o s)

(* The library's and the oracle's bytes for [ops]; fails on the first
   operation whose outcome differs, or on different final streams. *)
let write_both ops =
  let w = W.Writer.create () and o = O.Writer.create () in
  List.iter
    (fun op ->
      let got, want = run_wop w o op in
      if got <> want then
        QCheck.Test.fail_reportf "%s: outcomes differ" (pp_wop op);
      if W.Writer.bit_length w <> O.Writer.bit_length o then
        QCheck.Test.fail_reportf "%s: bit_length %d, oracle %d" (pp_wop op)
          (W.Writer.bit_length w) (O.Writer.bit_length o))
    ops;
  let got = W.Writer.contents w and want = O.Writer.contents o in
  if not (String.equal got want) then
    QCheck.Test.fail_reportf "contents %S, oracle %S" got want;
  want

(* Read outcomes as strings, so values of every read kind compare and
   print alike. *)
let run_rop r o op =
  let both f g = (outcome f, outcome g) in
  match op with
  | RBit ->
      both
        (fun () -> string_of_bool (W.Reader.read_bit r))
        (fun () -> string_of_bool (O.Reader.read_bit o))
  | RFixed width ->
      both
        (fun () -> string_of_int (W.Reader.read_fixed r ~width))
        (fun () -> string_of_int (O.Reader.read_fixed o ~width))
  | RGamma ->
      both
        (fun () -> string_of_int (W.Reader.read_gamma r))
        (fun () -> string_of_int (O.Reader.read_gamma o))
  | RStr n ->
      both
        (fun () -> W.Reader.read_string r n)
        (fun () -> O.Reader.read_string o n)

let read_both ?r data rops =
  let r = Option.value r ~default:(W.Reader.of_string data) in
  let o = O.Reader.of_string data in
  let show = function Ok v -> Printf.sprintf "%S" v | Error m -> "raise " ^ m in
  let rec go = function
    | [] -> true
    | op :: rest -> (
        match run_rop r o op with
        | got, want when got <> want ->
            QCheck.Test.fail_reportf "%s on %S: %s, oracle %s" (pp_rop op)
              data (show got) (show want)
        | Error _, _ -> true
        | Ok _, _ ->
            if W.Reader.bits_remaining r <> O.Reader.bits_remaining o then
              QCheck.Test.fail_reportf "%s: bits_remaining %d, oracle %d"
                (pp_rop op) (W.Reader.bits_remaining r)
                (O.Reader.bits_remaining o);
            go rest)
  in
  go rops

let reads_of =
  List.map (function
    | Bit _ -> RBit
    | Fixed (_, w) -> RFixed w
    | Gamma _ -> RGamma
    | Str s -> RStr (String.length s))

(* Every prefix of [data] cut at a byte boundary, and [data] itself. *)
let cuts data =
  List.init (String.length data + 1) (fun c -> String.sub data 0 c)

let test_every_width_every_offset () =
  (* Exhaustive over the span shapes: each width 0-62 at each starting
     bit offset 0-7, for the empty, full and a mixed value, then one
     more bit so the field never ends flush with the stream. Reads are
     checked on the whole stream and on every byte-truncated prefix. *)
  let rng = Repro_util.Rng.of_seed 7 in
  for offset = 0 to 7 do
    for width = 0 to 62 do
      let mask = (1 lsl width) - 1 in
      let mixed = Int64.to_int (Repro_util.Rng.bits64 rng) land mask in
      List.iter
        (fun v ->
          let prefix = List.init offset (fun i -> Bit (i land 1 = 0)) in
          let ops = prefix @ [ Fixed (v, width); Bit true ] in
          let data = write_both ops in
          List.iter (fun d -> ignore (read_both d (reads_of ops))) (cuts data))
        [ 0; mask; mixed ]
    done
  done

let test_writer_rejections () =
  (* Rejected writes: same message, nothing written, stream continues. *)
  ignore
    (write_both
       [
         Bit true; Fixed (0, -1); Fixed (0, 63); Fixed (8, 3); Fixed (-1, 3);
         Fixed (-1, 62); Gamma (-1); Gamma max_int; Fixed (5, 3);
         Gamma (max_int - 1); Bit false;
       ])

(* Gamma values spread over every code length k = 0..61: a value with
   [v + 1] in [\[2^k, 2^(k+1))]. *)
let gen_gamma_value =
  QCheck.Gen.(
    let* k = int_range 0 61 in
    let* r = int_range 0 ((1 lsl k) - 1) in
    return ((1 lsl k) - 1 + r))

let gen_wop =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun b -> Bit b) bool);
        ( 4,
          let* width = int_range 0 62 in
          let* x = int_range 0 max_int in
          let v = x land ((1 lsl width) - 1) in
          return (Fixed (v, width)) );
        (3, map (fun v -> Gamma v) gen_gamma_value);
        (1, map (fun s -> Str s) (string_size (int_range 0 12)));
      ])

let gen_bad_wop =
  QCheck.Gen.(
    oneof
      [
        map (fun w -> Fixed (0, w)) (oneofl [ -1; 63; 100 ]);
        map (fun w -> Fixed (1 lsl w, w)) (int_range 0 61);
        map (fun w -> Fixed (-1, w)) (int_range 0 62);
        return (Gamma (-1));
        return (Gamma max_int);
      ])

let print_wops ops = String.concat "; " (List.map pp_wop ops)

let qcheck_writer_differential =
  QCheck.Test.make ~name:"writer = bit-at-a-time oracle" ~count:1000
    (QCheck.make ~print:print_wops
       QCheck.Gen.(
         list_size (int_range 0 40)
           (frequency [ (12, gen_wop); (1, gen_bad_wop) ])))
    (fun ops ->
      ignore (write_both ops);
      true)

(* A writer reused across streams: after a long stream and [reset], a
   short one must come out exactly as from a fresh writer and from the
   oracle — the reset re-zeroes every byte the long stream touched. *)
let qcheck_writer_reuse =
  let gen_ops lo hi =
    QCheck.Gen.(
      list_size (int_range lo hi)
        (frequency [ (12, gen_wop); (1, gen_bad_wop) ]))
  in
  QCheck.Test.make ~name:"reset writer = fresh writer = oracle" ~count:500
    (QCheck.make
       ~print:(fun (long, short) ->
         Printf.sprintf "long [%s]; short [%s]" (print_wops long)
           (print_wops short))
       QCheck.Gen.(pair (gen_ops 10 60) (gen_ops 0 10)))
    (fun (long, short) ->
      let reused = W.Writer.create () in
      List.iter (fun op -> ignore (run_wop reused (O.Writer.create ()) op)) long;
      W.Writer.reset reused;
      if W.Writer.bit_length reused <> 0 || W.Writer.byte_length reused <> 0
      then QCheck.Test.fail_report "reset writer is not empty";
      let o = O.Writer.create () and fresh = W.Writer.create () in
      List.iter
        (fun op ->
          ignore (run_wop reused o op);
          ignore (run_wop fresh (O.Writer.create ()) op))
        short;
      let want = O.Writer.contents o in
      let check name w =
        if not (String.equal (W.Writer.contents w) want) then
          QCheck.Test.fail_reportf "%s writer %S, oracle %S" name
            (W.Writer.contents w) want;
        if W.Writer.bit_length w <> O.Writer.bit_length o then
          QCheck.Test.fail_reportf "%s writer bit_length %d, oracle %d" name
            (W.Writer.bit_length w) (O.Writer.bit_length o)
      in
      check "reused" reused;
      check "fresh" fresh;
      true)

(* [Reader.of_bytes] over a buffer whose bytes past [len] are junk reads
   what the oracle reads on the first [len] bytes alone, reads past the
   end included. *)
let qcheck_reader_of_bytes_bound =
  QCheck.Test.make ~name:"of_bytes reader = oracle, junk past len" ~count:500
    (QCheck.make
       ~print:(fun (ops, junk) ->
         Printf.sprintf "[%s] + junk %S" (print_wops ops) junk)
       QCheck.Gen.(
         pair
           (list_size (int_range 0 30) gen_wop)
           (string_size (int_range 1 16))))
    (fun (ops, junk) ->
      let data = write_both ops in
      let r =
        W.Reader.of_bytes (Bytes.of_string (data ^ junk))
          ~len:(String.length data)
      in
      read_both ~r data (reads_of ops @ [ RBit; RGamma; RFixed 7; RStr 1 ]))

(* A valid stream, then damage: none, a byte-boundary cut, or one byte
   XORed with a non-zero mask. *)
type damage = Intact | Cut of int | Corrupt of int * int

let damage data = function
  | Intact -> data
  | Cut c -> String.sub data 0 (c mod (String.length data + 1))
  | Corrupt (_, _) when data = "" -> data
  | Corrupt (i, x) ->
      let b = Bytes.of_string data in
      let i = i mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
      Bytes.to_string b

let gen_damage =
  QCheck.Gen.(
    frequency
      [
        (1, return Intact);
        (2, map (fun c -> Cut c) nat);
        (2, map2 (fun i x -> Corrupt (i, x)) nat (int_range 1 255));
      ])

(* Streams with a long zero run at a random offset: gamma prefixes of
   k = 55-70 zeros, across the k = 61 boundary and the k = 62
   rejection, ended by a 1 and a random payload. *)
let gen_zero_run =
  QCheck.Gen.(
    let* offset = int_range 0 7 in
    let* zeros = int_range 55 70 in
    let* tail = list_size (int_range 0 70) bool in
    return
      (List.init offset (fun _ -> Bit true)
      @ List.init zeros (fun _ -> Bit false)
      @ (Bit true :: List.map (fun b -> Bit b) tail)))

let qcheck_reader_differential =
  QCheck.Test.make ~name:"reader = bit-at-a-time oracle" ~count:1500
    (QCheck.make
       ~print:(fun (ops, d) ->
         Printf.sprintf "%s / %s" (print_wops ops)
           (match d with
           | Intact -> "intact"
           | Cut c -> Printf.sprintf "cut %d" c
           | Corrupt (i, x) -> Printf.sprintf "corrupt %d ^ %d" i x))
       QCheck.Gen.(
         pair
           (frequency
              [ (4, list_size (int_range 0 30) gen_wop); (1, gen_zero_run) ])
           gen_damage))
    (fun (ops, d) ->
      let data = damage (write_both ops) d in
      (* Read the stream back as written, and as one gamma at every
         starting offset the first byte allows. *)
      read_both data (reads_of ops)
      && List.for_all
           (fun skip ->
             read_both data
               (List.init skip (fun _ -> RBit) @ [ RGamma; RGamma ]))
           [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let qcheck_reader_random_bytes =
  (* Arbitrary bytes under arbitrary reads, sized strings included. *)
  let gen_rop =
    QCheck.Gen.(
      frequency
        [
          (2, return RBit);
          (3, map (fun w -> RFixed w) (int_range (-1) 63));
          (3, return RGamma);
          (1, map (fun n -> RStr n) (int_range (-1) 6));
        ])
  in
  QCheck.Test.make ~name:"reader = oracle on random bytes" ~count:1000
    (QCheck.make
       ~print:(fun (s, rops) ->
         Printf.sprintf "%S / %s" s
           (String.concat "; " (List.map pp_rop rops)))
       QCheck.Gen.(
         pair
           (string_size (int_range 0 24))
           (list_size (int_range 1 12) gen_rop)))
    (fun (s, rops) -> read_both s rops)

let test_fixed_width62_boundary () =
  (* width = 62 skips the fit check (any non-negative int fits); the
     byte path must still roundtrip the extreme values. *)
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "fixed %d/62" v)
        v
        (roundtrip_fixed v ~width:62))
    [ 0; 1; max_int - 1; max_int ]

let test_read_fixed_truncated () =
  (* [read_fixed] bounds-checks the whole field up front: a field that
     extends past the input must raise, never return garbage. *)
  List.iter
    (fun (data, width) ->
      let r = W.Reader.of_string data in
      Alcotest.check_raises
        (Printf.sprintf "width %d over %d bytes" width (String.length data))
        (Invalid_argument "Wire.Reader: out of bits")
        (fun () -> ignore (W.Reader.read_fixed r ~width)))
    [ ("", 8); ("\xff", 9); ("\xff\xff\xff", 62) ]

let test_gamma_k62_rejected () =
  (* Regression: the writer can never emit a 62-zero unary prefix
     ([add_gamma] caps k at floor_log2 max_int = 61), and accepting one
     would compute [(1 lsl 62) lor rest], which wraps negative on 63-bit
     ints. Hand-built streams with k = 62 must raise, never return. *)
  let k62 =
    (* 62 zero bits, the terminating 1, then 62 set bits of "payload" —
       enough input that the pre-fix reader reached the negative wrap
       instead of running out of bits. *)
    let b = Bytes.make 16 '\xff' in
    Bytes.fill b 0 7 '\x00';
    Bytes.set b 7 '\x02';
    Bytes.to_string b
  in
  List.iter
    (fun (name, data) ->
      let r = W.Reader.of_string data in
      Alcotest.check_raises name (Invalid_argument "Wire.Reader: gamma")
        (fun () -> ignore (W.Reader.read_gamma r)))
    [ ("k=62 with full payload", k62); ("all zeros", String.make 32 '\x00') ]

let test_gamma_k61_boundary () =
  (* The largest value the writer can emit (k = 61) must still read. *)
  let v = max_int - 1 in
  let w = W.Writer.create () in
  W.Writer.add_gamma w v;
  let r = W.Reader.of_string (W.Writer.contents w) in
  Alcotest.(check int) "max gamma" v (W.Reader.read_gamma r)

let test_gamma_truncated () =
  (* Truncation inside the unary prefix and inside the payload both
     raise cleanly (out of bits), never return a negative. *)
  let v = 1_000_000 in
  let w = W.Writer.create () in
  W.Writer.add_gamma w v;
  let full = W.Writer.contents w in
  for len = 0 to String.length full - 1 do
    let r = W.Reader.of_string (String.sub full 0 len) in
    match W.Reader.read_gamma r with
    | got ->
        Alcotest.failf "truncated to %d bytes: returned %d instead of raising"
          len got
    | exception Invalid_argument _ -> ()
  done

let qcheck_gamma_never_negative =
  (* Adversarial bytes: [read_gamma] either raises [Invalid_argument] or
     returns a non-negative value — no silent overflow. *)
  QCheck.Test.make ~name:"read_gamma on random bytes: raise or >= 0"
    ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 24))
    (fun s ->
      let r = W.Reader.of_string s in
      match W.Reader.read_gamma r with
      | v -> v >= 0
      | exception Invalid_argument _ -> true)

let test_many_gammas () =
  (* Regression for [Writer.ensure]'s growth policy: 10k gammas append
     ~600k bits through the zero-run + byte-aligned paths; the buffer
     must grow geometrically (one blit per growth) and the stream must
     stay exact — length and every value. *)
  let w = W.Writer.create () in
  let value i = i * 7919 in
  let expected_bits = ref 0 in
  for i = 0 to 9_999 do
    W.Writer.add_gamma w (value i);
    expected_bits := !expected_bits + W.gamma_bits (value i)
  done;
  Alcotest.(check int) "exact stream length" !expected_bits
    (W.Writer.bit_length w);
  let r = W.Reader.of_string (W.Writer.contents w) in
  for i = 0 to 9_999 do
    Alcotest.(check int)
      (Printf.sprintf "gamma #%d" i)
      (value i) (W.Reader.read_gamma r)
  done

let qcheck_mixed_stream =
  (* Interleave fixed, gamma and single-bit writes and read them back. *)
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          (let* v = int_range 0 1023 in
           return (`Fixed (v, 10)));
          (let* v = int_range 0 100_000 in
           return (`Gamma v));
          (let* b = bool in
           return (`Bit b));
        ])
  in
  QCheck.Test.make ~name:"mixed stream roundtrip" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let w = W.Writer.create () in
      List.iter
        (function
          | `Fixed (v, width) -> W.Writer.add_fixed w v ~width
          | `Gamma v -> W.Writer.add_gamma w v
          | `Bit b -> W.Writer.add_bit w b)
        ops;
      let r = W.Reader.of_string (W.Writer.contents w) in
      List.for_all
        (function
          | `Fixed (v, width) -> W.Reader.read_fixed r ~width = v
          | `Gamma v -> W.Reader.read_gamma r = v
          | `Bit b -> Bool.equal (W.Reader.read_bit r) b)
        ops)

let suite =
  ( "wire",
    [
      Alcotest.test_case "bit roundtrip" `Quick test_bits_roundtrip;
      Alcotest.test_case "fixed roundtrip" `Quick test_fixed_roundtrip;
      Alcotest.test_case "fixed rejects bad values" `Quick test_fixed_rejects;
      Alcotest.test_case "gamma costs" `Quick test_gamma_values;
      Alcotest.test_case "reader exhaustion" `Quick test_out_of_bits;
      Alcotest.test_case "bounded field reads" `Quick test_within;
      Alcotest.test_case "appending a byte slice" `Quick test_add_subbytes;
      Alcotest.test_case "fixed width-62 boundary" `Quick
        test_fixed_width62_boundary;
      Alcotest.test_case "read_fixed truncated input" `Quick
        test_read_fixed_truncated;
      Alcotest.test_case "gamma k=62 rejected" `Quick test_gamma_k62_rejected;
      Alcotest.test_case "gamma k=61 boundary" `Quick test_gamma_k61_boundary;
      Alcotest.test_case "gamma truncated input" `Quick test_gamma_truncated;
      Alcotest.test_case "10k gammas (growth regression)" `Quick
        test_many_gammas;
      QCheck_alcotest.to_alcotest qcheck_gamma_roundtrip;
      Alcotest.test_case "every width at every offset = oracle" `Quick
        test_every_width_every_offset;
      Alcotest.test_case "rejected writes = oracle" `Quick
        test_writer_rejections;
      QCheck_alcotest.to_alcotest qcheck_writer_differential;
      QCheck_alcotest.to_alcotest qcheck_writer_reuse;
      QCheck_alcotest.to_alcotest qcheck_reader_of_bytes_bound;
      QCheck_alcotest.to_alcotest qcheck_reader_differential;
      QCheck_alcotest.to_alcotest qcheck_reader_random_bytes;
      QCheck_alcotest.to_alcotest qcheck_gamma_never_negative;
      QCheck_alcotest.to_alcotest qcheck_mixed_stream;
    ] )
