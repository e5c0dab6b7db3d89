let rec search (a : int array) (x : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let v = Array.unsafe_get a mid in
    if v = x then mid
    else if v < x then search a x (mid + 1) hi
    else search a x lo mid

let index a x = search a x 0 (Array.length a)
