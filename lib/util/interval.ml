type t = { lo : int; hi : int }

let make lo hi =
  if hi < lo then invalid_arg "Interval.make: empty interval";
  { lo; hi }

let full n = make 1 n
let singleton x = { lo = x; hi = x }
let size t = t.hi - t.lo + 1
let is_singleton t = t.lo = t.hi

let point t =
  if not (is_singleton t) then invalid_arg "Interval.point: not a singleton";
  t.lo

(* Not [(lo + hi) / 2]: the sum overflows for intervals near [max_int]
   (e.g. namespaces sized close to the word limit), silently producing a
   negative midpoint. The subtract-first form cannot overflow for any
   [lo <= hi]. *)
let mid t = t.lo + ((t.hi - t.lo) / 2)

let bot t = if is_singleton t then t else { lo = t.lo; hi = mid t }

let top t =
  if is_singleton t then invalid_arg "Interval.top: singleton has no top";
  { lo = mid t + 1; hi = t.hi }

let equal a b = a.lo = b.lo && a.hi = b.hi
let contains t x = t.lo <= x && x <= t.hi

let compare a b =
  match Int.compare a.lo b.lo with 0 -> Int.compare a.hi b.hi | c -> c

let pp ppf t = Format.fprintf ppf "[%d,%d]" t.lo t.hi
let to_string t = Format.asprintf "%a" pp t
