(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field holds a pointer to a boxed [int64], so every update
   would allocate one. Reading and writing the buffer compile to raw
   64-bit loads and stores, and with [mix] inlined the whole step stays
   in registers — only {!next}'s boxed result allocates. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* The standard SplitMix64 finalizer (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] advance t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  s

let next t = mix (advance t)
let next_int t = Int64.to_int (mix (advance t))

(* A distinct finalizer for split streams so that a split generator's
   output is decorrelated from the parent's [next] output. *)
let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  Int64.(logxor z (shift_right_logical z 33))

let split t = create (mix_gamma (next t))
