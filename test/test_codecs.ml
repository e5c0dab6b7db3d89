(* Codec properties for every protocol message type: decode ∘ encode is
   the identity, the [bits] accounting the metrics use equals the
   encoded bit length exactly, and the streaming [write]/[read] pair,
   which both are derived from, gives the same bits at any offset of a
   stream. *)

module W = Repro_sim.Wire

module I = Repro_util.Interval
module CRM = Repro_renaming.Crash_renaming.Msg
module BRM = Repro_renaming.Byzantine_renaming.Msg
module FLM = Repro_renaming.Flooding_renaming.Msg
module FP = Repro_crypto.Fingerprint

let crash_msg_gen =
  QCheck.Gen.(
    let payload =
      let* id = int_range 1 1_000_000 in
      let* lo = int_range 1 5000 in
      let* span = int_range 0 5000 in
      let* d = int_range 0 40 in
      let* p = int_range 0 40 in
      return (id, I.make lo (lo + span), d, p)
    in
    oneof
      [
        return CRM.Notify;
        (let* id, iv, d, p = payload in
         return (CRM.Status { id; iv; d; p }));
        (let* _id, iv, d, p = payload in
         return (CRM.Response { iv; d; p }));
      ])

let fp_gen =
  QCheck.Gen.(
    let* a = int_range 0 ((1 lsl 31) - 2) in
    let* b = int_range 0 ((1 lsl 31) - 2) in
    return (FP.of_raw a b))

(* One arm per constructor, so every flat constructor is drawn: the
   "every constructor" case checks it over a fixed seed. *)
let byz_msg_gen =
  QCheck.Gen.(
    let fp_cnt = pair fp_gen (int_range 0 100_000) in
    let raw_cnt =
      pair (string_size ~gen:char (int_range 0 12)) (int_range 0 100_000)
    in
    oneof
      [
        return BRM.Elect;
        return BRM.Announce;
        map (fun b -> BRM.Pk_vote b) bool;
        map (fun b -> BRM.Pk_propose b) bool;
        map (fun b -> BRM.Pk_king b) bool;
        map (fun (fp, cnt) -> BRM.Vld_input (fp, cnt)) fp_cnt;
        map (fun (fp, cnt) -> BRM.Vld_lock (fp, cnt)) fp_cnt;
        return BRM.Vld_lock_none;
        map (fun (raw, cnt) -> BRM.Vld_raw_input (raw, cnt)) raw_cnt;
        map (fun (raw, cnt) -> BRM.Vld_raw_lock (raw, cnt)) raw_cnt;
        return BRM.Vld_raw_lock_none;
        map (fun b -> BRM.Diff b) bool;
        return (BRM.New None);
        map (fun r -> BRM.New (Some r)) (int_range 1 100_000);
      ])

(* Exhaustive, so a new constructor fails to compile until it is
   numbered here (and then drawn by [byz_msg_gen]). *)
let byz_constructor = function
  | BRM.Elect -> 0
  | BRM.Announce -> 1
  | BRM.Pk_vote _ -> 2
  | BRM.Pk_propose _ -> 3
  | BRM.Pk_king _ -> 4
  | BRM.Vld_input _ -> 5
  | BRM.Vld_lock _ -> 6
  | BRM.Vld_lock_none -> 7
  | BRM.Vld_raw_input _ -> 8
  | BRM.Vld_raw_lock _ -> 9
  | BRM.Vld_raw_lock_none -> 10
  | BRM.Diff _ -> 11
  | BRM.New None -> 12
  | BRM.New (Some _) -> 13

let test_byz_gen_covers_constructors () =
  let seen = Array.make 14 0 in
  let st = Random.State.make [| 41 |] in
  for _ = 1 to 500 do
    let i = byz_constructor (byz_msg_gen st) in
    seen.(i) <- seen.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "constructor %d drawn" i)
        true (c > 0))
    seen

let flooding_msg_gen =
  QCheck.Gen.(
    let* ids = list_size (int_range 0 50) (int_range 1 100_000) in
    return (FLM.Known (List.sort_uniq Int.compare ids)))

let roundtrip_test name gen ~equal ~encode ~decode ~bits ~pp =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" pp) gen)
    (fun m ->
      let encoded, len = encode m in
      bits m = len
      && 8 * String.length encoded >= len
      && 8 * String.length encoded < len + 8
      && match decode encoded with Some m' -> equal m m' | None -> false)

let qcheck_crash =
  roundtrip_test "crash msg codec roundtrip + exact bits" crash_msg_gen
    ~equal:( = ) ~encode:CRM.encode ~decode:CRM.decode ~bits:CRM.bits
    ~pp:CRM.pp

let qcheck_byz =
  roundtrip_test "byz msg codec roundtrip + exact bits" byz_msg_gen
    ~equal:( = ) ~encode:BRM.encode ~decode:BRM.decode ~bits:BRM.bits
    ~pp:BRM.pp

let qcheck_flooding =
  roundtrip_test "flooding msg codec roundtrip + exact bits" flooding_msg_gen
    ~equal:( = ) ~encode:FLM.encode ~decode:FLM.decode ~bits:FLM.bits
    ~pp:FLM.pp

(* [m] written after a prefix of 0–7 single bits and some gamma fields:
   the bits from the prefix's end on are [encode m]'s, and [read] there
   returns an equal message after exactly [bits m] bits. *)
let streaming_test name gen ~equal ~write ~read ~encode ~bits ~pp =
  let prefix =
    QCheck.Gen.(pair (int_range 0 7) (list_size (int_range 0 3) (int_bound 5000)))
  in
  QCheck.Test.make ~name ~count:500
    (QCheck.make
       ~print:(fun (m, (k, gs)) ->
         Format.asprintf "%a after %d bits and gammas [%s]" pp m k
           (String.concat "; " (List.map string_of_int gs)))
       QCheck.Gen.(pair gen prefix))
    (fun (m, (k, gs)) ->
      let w = W.Writer.create () in
      for i = 1 to k do
        W.Writer.add_bit w (i land 1 = 1)
      done;
      List.iter (W.Writer.add_gamma w) gs;
      let off = W.Writer.bit_length w in
      write w m;
      let e_bytes, e_bits = encode m in
      let stream = W.Reader.of_string (W.Writer.contents w) in
      let expected = W.Reader.of_string e_bytes in
      W.Reader.skip stream off;
      let same = ref (W.Writer.bit_length w - off = e_bits) in
      for _ = 1 to e_bits do
        if W.Reader.read_bit stream <> W.Reader.read_bit expected then
          same := false
      done;
      let r = W.Reader.of_string (W.Writer.contents w) in
      W.Reader.skip r off;
      let m' = read r in
      !same && bits m = e_bits
      && W.Reader.position r = off + bits m
      && equal m m')

let streaming_crash =
  streaming_test "crash msg write/read at any offset" crash_msg_gen
    ~equal:( = ) ~write:CRM.write ~read:CRM.read ~encode:CRM.encode
    ~bits:CRM.bits ~pp:CRM.pp

let streaming_byz =
  streaming_test "byz msg write/read at any offset" byz_msg_gen ~equal:( = )
    ~write:BRM.write ~read:BRM.read ~encode:BRM.encode ~bits:BRM.bits
    ~pp:BRM.pp

let streaming_flooding =
  streaming_test "flooding msg write/read at any offset" flooding_msg_gen
    ~equal:( = ) ~write:FLM.write ~read:FLM.read ~encode:FLM.encode
    ~bits:FLM.bits ~pp:FLM.pp

let test_message_size_bounds () =
  (* The O(log N) claim, concretely: any crash/byz message over namespace
     N fits in c·log2 N + c' bits. *)
  let namespace = 1 lsl 20 in
  let log_n = Repro_util.Ilog.ceil_log2 namespace in
  let sample =
    [
      CRM.Status
        {
          id = namespace;
          iv = I.make 1 namespace;
          d = log_n;
          p = log_n;
        };
      CRM.Response
        { iv = I.make (namespace / 2) namespace; d = 0; p = 0 };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Format.asprintf "%a fits in O(log N)" CRM.pp m)
        true
        (CRM.bits m <= (8 * log_n) + 16))
    sample;
  let fp = FP.of_raw 123456 654321 in
  Alcotest.(check bool) "byz validator message O(log N)" true
    (BRM.bits (BRM.Vld_input (fp, namespace)) <= (8 * log_n) + 80)

let suite =
  ( "codecs",
    [
      Alcotest.test_case "message size bounds" `Quick test_message_size_bounds;
      Alcotest.test_case "byz generator draws every constructor" `Quick
        test_byz_gen_covers_constructors;
      QCheck_alcotest.to_alcotest qcheck_crash;
      QCheck_alcotest.to_alcotest qcheck_byz;
      QCheck_alcotest.to_alcotest qcheck_flooding;
      QCheck_alcotest.to_alcotest streaming_crash;
      QCheck_alcotest.to_alcotest streaming_byz;
      QCheck_alcotest.to_alcotest streaming_flooding;
    ] )
