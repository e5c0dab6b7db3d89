(* Deterministic slot partition for intra-round sharding.

   One run of the engine may be split across OCaml domains *inside* each
   round: recipient slots [0, n) are divided into [shards] contiguous
   ranges, one per domain. The partition is a pure function of (n,
   shards) — no state, no rounding drift — so every shard, every round
   and every process computes exactly the same split. Contiguity is what
   makes the merge deterministic for free: concatenating per-shard
   results in shard order is ascending-slot order. *)

let count ~n ~shards =
  if shards < 1 then invalid_arg "Shard.count: shards must be >= 1";
  if n < 0 then invalid_arg "Shard.count: negative n";
  max 1 (min shards n)

(* Slots [0, n) split into [shards] contiguous ranges balanced within
   one: the first [n mod shards] ranges hold [n/shards + 1] slots, the
   rest [n/shards]. Ranges beyond [n] (shards > n) are empty. *)
let range ~n ~shards k =
  if shards < 1 then invalid_arg "Shard.range: shards must be >= 1";
  if n < 0 then invalid_arg "Shard.range: negative n";
  if k < 0 || k >= shards then
    invalid_arg
      (Printf.sprintf "Shard.range: shard %d outside [0, %d)" k shards);
  let base = n / shards and rem = n mod shards in
  let lo = (k * base) + min k rem in
  let hi = lo + base + (if k < rem then 1 else 0) in
  (lo, hi)

let owner ~n ~shards slot =
  if slot < 0 || slot >= n then
    invalid_arg
      (Printf.sprintf "Shard.owner: slot %d outside [0, %d)" slot n);
  let base = n / shards and rem = n mod shards in
  (* The first [rem] ranges are [base+1] wide and end at
     [rem * (base+1)]; past that boundary ranges are [base] wide. *)
  if base = 0 then slot
  else if slot < rem * (base + 1) then slot / (base + 1)
  else rem + ((slot - (rem * (base + 1))) / base)
