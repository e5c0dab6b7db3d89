(* Lint fixture: the two candidate homes for the round-scoped verdict
   arenas (Arena.Vec emission triples and change logs, growable
   buffers the crash committee once kept). A module-level arena under a domain-shared
   library is cross-run — and under sharding cross-domain — reusable
   mutable state: D4 at the definition, S1 at any parallel site whose
   closure writes through it. The suite lints this file as
   "lib/util/d4_arena.ml": exactly the two globals below must fire D4,
   the [Pool.run] closure pushing into the global vector must fire S1,
   and the chosen per-run shapes must stay silent. *)

(* Rejected route: process-wide emission buffers, shared by every
   concurrent run and every shard. Fires D4. *)
let out_msgs = Arena.Vec.create ~dummy:0
let change_log = Arena.Vec.create ~dummy:(0, 0)

(* The parallel site writing through the global arena: the summary
   graph must connect the closure's [Vec.push] to [out_msgs]. *)
let emit_all pool xs =
  Pool.run pool (fun () -> List.iter (fun x -> Arena.Vec.push out_msgs x) xs)

(* Chosen route: the arenas live in per-run committee state created
   inside the program closure; rounds clear and refill them, shards
   each own their committee. Nothing here is top-level mutable, so the
   linter must stay silent. *)
type committee = { out : int Arena.Vec.t; log : (int * int) Arena.Vec.t }

let make_committee () =
  { out = Arena.Vec.create ~dummy:0; log = Arena.Vec.create ~dummy:(0, 0) }

let emit_round cs verdicts =
  Arena.Vec.clear cs.out;
  Arena.Vec.clear cs.log;
  List.iteri
    (fun i v ->
      Arena.Vec.push cs.out v;
      Arena.Vec.push cs.log (i, v))
    verdicts;
  Arena.Vec.length cs.out
