(* Reference implementations for segment fingerprints, one bit at a
   time: a segment's bits by [Bitvec.get], segment equality position by
   position, and the fingerprint polynomial evaluated over a bool list.

   [Fingerprint.of_segment] must agree with [of_bits] of the segment's
   bits. The oracle derives the evaluation points from the seed itself,
   so it shares no arithmetic with the library: only [Rng], and
   [Fingerprint.of_raw] to hand its values back as a fingerprint. *)

module B = Repro_util.Bitvec
module I = Repro_util.Interval
module F = Repro_crypto.Fingerprint

(* Left fold over the segment's bits, low position first. *)
let fold_segment v (seg : I.t) ~init ~f =
  let acc = ref init in
  for pos = seg.lo to seg.hi do
    acc := f !acc (B.get v pos)
  done;
  !acc

let bits_of_segment v seg =
  List.rev (fold_segment v seg ~init:[] ~f:(fun acc b -> b :: acc))

(* Do the two vectors agree on every position of the segment? *)
let equal_segment a b (seg : I.t) =
  let rec go pos =
    pos > seg.hi || (B.get a pos = B.get b pos && go (pos + 1))
  in
  go seg.lo

let p = (1 lsl 31) - 1

(* The two evaluation points [Fingerprint.key_of_seed seed] draws, the
   second point first: the library draws both in one record expression,
   whose fields OCaml evaluates right to left. *)
let points seed =
  let rng = Repro_util.Rng.of_seed (seed lxor 0x5eed_f00d) in
  let x2 = 2 + Repro_util.Rng.int rng (p - 4) in
  let x1 = 2 + Repro_util.Rng.int rng (p - 4) in
  (x1, x2)

(* [Σ b_i · x^i mod p], low-degree coefficient first. *)
let eval x bits =
  let step (acc, pow) b =
    ((if b then (acc + pow) mod p else acc), pow * x mod p)
  in
  fst (List.fold_left step (0, 1) bits)

(* The fingerprint of [bits] under [Fingerprint.key_of_seed seed]. *)
let of_bits ~seed bits =
  let x1, x2 = points seed in
  F.of_raw (eval x1 bits) (eval x2 bits)
