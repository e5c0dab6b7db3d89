(* Test-side helpers over the halving tree of [Interval]: containment
   and the tree's vertex coordinates, for the oracles and lemma checks
   that reason about where a committee's interval sits. The protocols
   only ever walk the tree by [bot]/[top]. *)

module I = Repro_util.Interval

(* [subset a b] iff [a ⊆ b]. *)
let subset (a : I.t) (b : I.t) = b.lo <= a.lo && a.hi <= b.hi

(* [Some d] if [i] is a vertex at depth [d] of the halving tree rooted
   at [\[1, n\]], [None] if it is not a tree vertex. The root has depth
   [0]. *)
let depth_in_tree ~n i =
  let rec go cur d =
    if I.equal cur i then Some d
    else if I.is_singleton cur then None
    else if subset i (I.bot cur) then go (I.bot cur) (d + 1)
    else if subset i (I.top cur) then go (I.top cur) (d + 1)
    else None
  in
  if subset i (I.full n) then go (I.full n) 0 else None

(* Walk from the root taking the binary expansion of [index] ([depth]
   bits, most significant first; 0 = bot, 1 = top); [None] if a branch
   bottoms out in a singleton early. *)
let tree_vertex_at ~n ~depth ~index =
  let rec go cur d =
    if d = depth then Some cur
    else if I.is_singleton cur then None
    else
      let bit = (index lsr (depth - d - 1)) land 1 in
      go (if bit = 0 then I.bot cur else I.top cur) (d + 1)
  in
  if depth < 0 || index < 0 || (depth > 0 && index >= 1 lsl depth) then None
  else go (I.full n) 0
