(* Word-parallel bit vectors: 63 bits per native [int] word.

   Positions are 1-based (paper convention); position [pos] lives at bit
   [(pos - 1) mod 63] of word [(pos - 1) / 63].  Bit 62 of a word is the
   sign bit of the native int — words are treated as opaque bags of 63
   bits and only combined with [land]/[lor]/[lsr]/[lsl], all of which
   are well-defined on negative ints in OCaml.

   Invariant: bits at positions > [len] inside the last word are always
   zero ([set] range-checks), so whole-word popcounts never over-count. *)

type t = { len : int; words : int array }

let bpw = 63

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; words = Array.make ((len + bpw - 1) / bpw) 0 }

let length t = t.len
let copy t = { len = t.len; words = Array.copy t.words }

let check t pos =
  if pos < 1 || pos > t.len then invalid_arg "Bitvec: position out of range"

let get t pos =
  check t pos;
  let i = pos - 1 in
  Array.unsafe_get t.words (i / bpw) land (1 lsl (i mod bpw)) <> 0

let set t pos v =
  check t pos;
  let i = pos - 1 in
  let w = i / bpw and b = i mod bpw in
  let cur = Array.unsafe_get t.words w in
  Array.unsafe_set t.words w
    (if v then cur lor (1 lsl b) else cur land lnot (1 lsl b))

(* SWAR popcount in two 32-bit halves: the usual 64-bit masks do not fit
   OCaml's 63-bit int literals, the 32-bit ones do. *)
let popcount x =
  let pc32 v =
    let v = v - ((v lsr 1) land 0x5555_5555) in
    let v = (v land 0x3333_3333) + ((v lsr 2) land 0x3333_3333) in
    let v = (v + (v lsr 4)) land 0x0f0f_0f0f in
    (v * 0x0101_0101) lsr 24 land 0xff
  in
  pc32 (x land 0xffff_ffff) + pc32 (x lsr 32)

(* Index of the lowest set bit; [x] must be non-zero. *)
let ntz x =
  let b = ref (x land -x) and n = ref 0 in
  if !b land 0xffff_ffff = 0 then begin
    n := !n + 32;
    b := !b lsr 32
  end;
  if !b land 0xffff = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xff = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xf = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr n;
  !n

(* Bits [0..b] of a word; [-1] covers all 63 bits. *)
let mask_upto b = if b >= bpw - 1 then -1 else (1 lsl (b + 1)) - 1

(* Bits [b..62] of a word. *)
let mask_from b = -1 lsl b

(* [count t (Interval.make lo hi)] without constructing the interval, for
   allocation-free loops that already hold the bounds as plain ints. *)
let count_range t ~lo ~hi =
  check t lo;
  check t hi;
  let i0 = (lo - 1) / bpw and b0 = (lo - 1) mod bpw in
  let i1 = (hi - 1) / bpw and b1 = (hi - 1) mod bpw in
  if i0 = i1 then
    popcount (Array.unsafe_get t.words i0 land mask_from b0 land mask_upto b1)
  else begin
    let acc = ref (popcount (Array.unsafe_get t.words i0 land mask_from b0)) in
    for w = i0 + 1 to i1 - 1 do
      acc := !acc + popcount (Array.unsafe_get t.words w)
    done;
    !acc + popcount (Array.unsafe_get t.words i1 land mask_upto b1)
  end

let count t (seg : Interval.t) = count_range t ~lo:seg.lo ~hi:seg.hi

let count_all t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let rank t i =
  check t i;
  let i1 = (i - 1) / bpw and b1 = (i - 1) mod bpw in
  let acc = ref 0 in
  for w = 0 to i1 - 1 do
    acc := !acc + popcount (Array.unsafe_get t.words w)
  done;
  !acc + popcount (Array.unsafe_get t.words i1 land mask_upto b1)

let iter_set t (seg : Interval.t) ~f =
  check t seg.lo;
  check t seg.hi;
  let i0 = (seg.lo - 1) / bpw and b0 = (seg.lo - 1) mod bpw in
  let i1 = (seg.hi - 1) / bpw and b1 = (seg.hi - 1) mod bpw in
  for w = i0 to i1 do
    let x = Array.unsafe_get t.words w in
    let x = if w = i0 then x land mask_from b0 else x in
    let x = if w = i1 then x land mask_upto b1 else x in
    let x = ref x in
    let base = w * bpw in
    while !x <> 0 do
      f (base + ntz !x + 1);
      x := !x land (!x - 1)
    done
  done

let ones_in t (seg : Interval.t) =
  let acc = ref [] in
  iter_set t seg ~f:(fun pos -> acc := pos :: !acc);
  List.rev !acc

(* Word-parallel [dst.(seg) <- x] for a constant bit [x], used by fill
   below.  Masks follow the same first/last-word split as
   [count]. *)
let apply_masked dst (seg : Interval.t) ~f =
  let i0 = (seg.lo - 1) / bpw and b0 = (seg.lo - 1) mod bpw in
  let i1 = (seg.hi - 1) / bpw and b1 = (seg.hi - 1) mod bpw in
  for w = i0 to i1 do
    let m =
      (if w = i0 then mask_from b0 else -1)
      land if w = i1 then mask_upto b1 else -1
    in
    Array.unsafe_set dst.words w (f m (Array.unsafe_get dst.words w))
  done

let fill_segment_with_ones t (seg : Interval.t) k =
  if k < 0 || k > Interval.size seg then
    invalid_arg "Bitvec.fill_segment_with_ones";
  check t seg.lo;
  check t seg.hi;
  apply_masked t seg ~f:(fun m cur -> cur land lnot m);
  if k > 0 then
    apply_masked t
      (Interval.make seg.lo (seg.lo + k - 1))
      ~f:(fun m cur -> cur lor m)

let segment_bytes t (seg : Interval.t) =
  check t seg.lo;
  check t seg.hi;
  let m = Interval.size seg in
  let out = Bytes.make ((m + 7) / 8) '\000' in
  for k = 0 to m - 1 do
    if get t (seg.lo + k) then begin
      let byte = Char.code (Bytes.get out (k lsr 3)) in
      Bytes.set out (k lsr 3) (Char.chr (byte lor (1 lsl (k land 7))))
    end
  done;
  Bytes.unsafe_to_string out

let set_segment_bytes t (seg : Interval.t) s =
  check t seg.lo;
  check t seg.hi;
  let m = Interval.size seg in
  if 8 * String.length s < m then
    invalid_arg "Bitvec.set_segment_bytes: string too short";
  for k = 0 to m - 1 do
    let b = Char.code s.[k lsr 3] land (1 lsl (k land 7)) <> 0 in
    set t (seg.lo + k) b
  done

let pp ppf t =
  for pos = 1 to t.len do
    Format.pp_print_char ppf (if get t pos then '1' else '0')
  done
