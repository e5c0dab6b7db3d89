let p = (1 lsl 31) - 1

type key = { x1 : int; x2 : int }

(* Both values are below [p < 2^31], so [v1 lsl 31 lor v2] packs them
   into one immediate int below [2^62]: a fingerprint allocates nothing,
   and int order on the packed value is the order of [(v1, v2)]. *)
type t = int

let pack v1 v2 = (v1 lsl 31) lor v2
let v1 t = t lsr 31
let v2 t = t land p (* [p = 2^31 - 1] is also the low 31-bit mask *)

let key_of_seed seed =
  let rng = Repro_util.Rng.of_seed (seed lxor 0x5eed_f00d) in
  (* Evaluation points in [2, p-2]: excludes the degenerate 0, 1 and p-1
     points. *)
  let draw () = 2 + Repro_util.Rng.int rng (p - 4) in
  { x1 = draw (); x2 = draw () }

(* [Σ b_i · x^i mod p], low-degree coefficient first, at both points
   in one pass over the segment: a running power per point rather than
   Horner's rule, which would reverse the polynomial when bits are read
   in increasing position. The accumulators live in int refs
   (registers); all operands are < 2^31, so products fit in OCaml's
   63-bit native ints. *)
let of_segment key bv (seg : Repro_util.Interval.t) =
  let x1 = key.x1 and x2 = key.x2 in
  let acc1 = ref 0 and pow1 = ref 1 and acc2 = ref 0 and pow2 = ref 1 in
  for pos = seg.lo to seg.hi do
    if Repro_util.Bitvec.get bv pos then begin
      acc1 := (!acc1 + !pow1) mod p;
      acc2 := (!acc2 + !pow2) mod p
    end;
    pow1 := !pow1 * x1 mod p;
    pow2 := !pow2 * x2 mod p
  done;
  pack !acc1 !acc2

let equal = Int.equal
let compare = Int.compare
let bits _ = 62
let to_int_pair t = (v1 t, v2 t)

(* The non-negative residue: [mod] keeps the dividend's sign, and a
   negative value would bleed into the other packed field. *)
let residue v =
  let r = v mod p in
  if r < 0 then r + p else r

let of_raw v1 v2 = pack (residue v1) (residue v2)
let pp ppf t = Format.fprintf ppf "fp(%x,%x)" (v1 t) (v2 t)
