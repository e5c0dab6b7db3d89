(* Golden pins of the wire format, byte for byte. Each digest was
   recorded from the bit-at-a-time [Wire] codec, and every later codec
   must reproduce it unchanged: the socket backend ships these bytes
   between processes, so a codec rewrite that moved one bit would
   desynchronise mixed-version peers and break [--check-sim].

   - a fixed-seed stream of mixed [add_bit] / [add_fixed] (every width
     0-62, at drifting bit offsets) / [add_gamma] (every magnitude up to
     k = 61) writes;
   - [Crash_renaming.Msg.encode] over every envelope of
     [renaming_cli crash -n 64 -f 8 --adversary killer --seed 7];
   - [Byzantine_renaming.Msg.encode] over every envelope of
     [renaming_cli byz -n 24 -f 3 --attack split-world --seed 11];
   - [Byzantine_renaming.Msg.encode] over a fixed list holding every
     constructor, the ship-segments ablation's raw messages included,
     which no pinned run sends.

   The two runs are the ones CI's trace [cmp] gates record. Their inputs
   are derived here as [Experiment] derives them, and each tapped run is
   checked against [Experiment]'s own run for the same seed, so the
   derivation cannot drift unnoticed. *)

module W = Repro_sim.Wire
module E = Repro_renaming.Experiment
module CR = Repro_renaming.Crash_renaming
module BZ = Repro_renaming.Byzantine_renaming
module BS = Repro_renaming.Byz_strategies
module Runner = Repro_renaming.Runner
module Rng = Repro_util.Rng
module FP = Repro_crypto.Fingerprint

let digest_hex s = Digest.to_hex (Digest.string s)

(* Bit length, then the bytes: the length fixes how many bytes follow,
   so the concatenation is unambiguous. *)
let add_encoding buf (bytes, bits) =
  Buffer.add_string buf (string_of_int bits);
  Buffer.add_char buf ':';
  Buffer.add_string buf bytes

let writer_stream () =
  let rng = Rng.of_seed 2026 in
  let w = W.Writer.create () in
  let random_bits () = Int64.to_int (Rng.bits64 rng) land max_int in
  for i = 0 to 2999 do
    match i mod 3 with
    | 0 -> W.Writer.add_bit w (Rng.bool rng)
    | 1 ->
        (* [(1 lsl 62) - 1] wraps to [max_int]: the mask is right for
           every width, 62 included. *)
        let width = i / 3 mod 63 in
        W.Writer.add_fixed w (random_bits () land ((1 lsl width) - 1)) ~width
    | _ ->
        let k = Rng.int rng 63 in
        W.Writer.add_gamma w
          (min (max_int - 1) (random_bits () land ((1 lsl k) - 1)))
  done;
  (W.Writer.contents w, W.Writer.bit_length w)

let test_writer_stream () =
  let bytes, bits = writer_stream () in
  Alcotest.(check int) "stream bit length" 90_668 bits;
  Alcotest.(check string)
    "stream digest" "d14da01e7a3a2a4fd8dac4d28fe27c6f" (digest_hex bytes)

let check_same_run name (tapped : Runner.assessment)
    (reference : Runner.assessment) =
  Alcotest.(check (list int))
    (name ^ ": rounds, messages, bits equal Experiment's run")
    [ reference.rounds; reference.messages; reference.bits ]
    [ tapped.rounds; tapped.messages; tapped.bits ];
  Alcotest.(check (list (pair int int)))
    (name ^ ": assignments equal Experiment's run")
    reference.assignments tapped.assignments

let test_crash_envelopes () =
  let n = 64 and f = 8 and seed = 7 in
  let namespace = 64 * n in
  let ids = E.random_ids ~seed:(seed lxor 0x1d5) ~namespace ~n in
  let crash =
    CR.Net.Crash.committee_killer
      ~rng:(Rng.of_seed (seed lxor 0xadce5))
      ~budget:f ()
  in
  let buf = Buffer.create (1 lsl 16) and count = ref 0 in
  let tap ~round:_ ~src:_ ~dst:_ ~bits:_ msg =
    incr count;
    add_encoding buf (CR.Msg.encode msg)
  in
  let tapped =
    Runner.assess
      (CR.Net.run ~ids ~crash ~tap ~seed
         ~program:(CR.program CR.experiment_params)
         ())
  in
  check_same_run "crash" tapped
    (E.run_crash ~protocol:E.This_work_crash ~n ~namespace
       ~adversary:(E.Committee_killer f) ~seed ());
  Alcotest.(check int) "envelopes" 32_640 !count;
  Alcotest.(check string) "encodings digest" "543661cfda61d114ba7036e68fdb9ae9"
    (digest_hex (Buffer.contents buf))

let test_byz_envelopes () =
  let n = 24 and f = 3 and seed = 11 in
  let namespace = 64 * n in
  let ids = E.random_ids ~seed:(seed lxor 0x2e7) ~namespace ~n in
  let params =
    {
      BZ.namespace;
      shared_seed = seed lxor 0x5aed;
      epsilon0 = 0.1;
      pool_probability = `Fixed (E.committee_pool_probability ~n);
      committee = BZ.Shared_pool;
      reconcile = BZ.Fingerprint_dnc;
      consensus = BZ.Phase_king_consensus;
    }
  in
  let byz_ids =
    Array.to_list
      (Rng.sample_without_replacement (Rng.of_seed (seed lxor 0xca410)) f ids)
  in
  let strategy =
    BS.split_world params ~rng:(Rng.of_seed (seed lxor 0xb42)) ~ids
  in
  let buf = Buffer.create (1 lsl 22) and count = ref 0 in
  let tap ~round:_ ~src:_ ~dst:_ ~bits:_ msg =
    incr count;
    add_encoding buf (BZ.Msg.encode msg)
  in
  let tapped =
    Runner.assess
      (BZ.Net.run ~ids ~byz:(byz_ids, strategy) ~tap ~max_rounds:400_000 ~seed
         ~program:(BZ.program params) ())
  in
  check_same_run "byz" tapped
    (E.run_byz ~protocol:E.This_work_byz ~n ~namespace
       ~adversary:(E.Split_world_byz f) ~seed ());
  Alcotest.(check int) "envelopes" 851_070 !count;
  Alcotest.(check string) "encodings digest" "ff4d851a56522a2326bdb6684f2c3ac4"
    (digest_hex (Buffer.contents buf))

(* Recorded while validator and phase-king messages nested their
   sub-protocol's message type inside [Msg.t]; the flat constructors
   must encode to the same bytes. *)
let test_byz_constructors () =
  let fps =
    [ FP.of_raw 0 0; FP.of_raw 123456 654321; FP.of_raw ((1 lsl 31) - 2) 1 ]
  in
  let cnts = [ 0; 1; 17; 100_000 ] in
  let raws = [ ""; "\x01\x02"; "\xff"; "segment bytes" ] in
  let samples =
    let open BZ.Msg in
    [ Elect; Announce ]
    @ List.concat_map
        (fun b -> [ Pk_vote b; Pk_propose b; Pk_king b; Diff b ])
        [ true; false ]
    @ List.concat_map
        (fun fp ->
          List.concat_map
            (fun c -> [ Vld_input (fp, c); Vld_lock (fp, c) ])
            cnts)
        fps
    @ [ Vld_lock_none; Vld_raw_lock_none; New None; New (Some 1) ]
    @ [ New (Some 4097) ]
    @ List.concat_map
        (fun s ->
          List.concat_map
            (fun c -> [ Vld_raw_input (s, c); Vld_raw_lock (s, c) ])
            cnts)
        raws
  in
  let buf = Buffer.create 4096 in
  List.iter (fun m -> add_encoding buf (BZ.Msg.encode m)) samples;
  Alcotest.(check int) "messages" 71 (List.length samples);
  Alcotest.(check string) "encodings digest" "f929c5978f9fc79de721a5d41da39927"
    (digest_hex (Buffer.contents buf))

let suite =
  ( "wire_pins",
    [
      Alcotest.test_case "mixed writer stream" `Quick test_writer_stream;
      Alcotest.test_case "crash killer envelopes" `Quick test_crash_envelopes;
      Alcotest.test_case "byz split-world envelopes" `Quick test_byz_envelopes;
      Alcotest.test_case "byz message per constructor" `Quick
        test_byz_constructors;
    ] )
