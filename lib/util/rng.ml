type t = Splitmix.t

let of_seed seed = Splitmix.create (Int64.of_int seed)
let split = Splitmix.split
let bits64 = Splitmix.next

(* Rejection sampling over the non-negative 62-bit range to avoid
   modulo bias. A top-level loop rather than a local closure, and
   [Splitmix.next_int] rather than a boxed [int64]: a draw allocates
   nothing. *)
let rec below t bound limit =
  let v = Splitmix.next_int t land max_int in
  if v >= limit then below t bound limit else v mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  below t bound (max_int - (max_int mod bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in";
  lo + int t (hi - lo + 1)

(* Inlined into [bernoulli] so the comparison reads the float unboxed. *)
let[@inline] float t =
  let v = Splitmix.next_int t land max_int in
  float_of_int v /. (float_of_int max_int +. 1.)

let bool t = Splitmix.next_int t land 1 = 1

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else float t < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let copy = Array.copy arr in
  shuffle t copy;
  Array.sub copy 0 (min k (Array.length copy))

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  arr
