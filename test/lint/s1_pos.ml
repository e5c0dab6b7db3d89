(* S1 cross-file fixture, part 2: the parallel call site. The closure
   handed to [Pool.run] writes S1_glob.counter two hops away (closure ->
   S1_glob.bump -> counter), in a different file — the per-file rules
   provably see nothing wrong here. *)

let shard_sum pool xs = Pool.run pool (fun () -> List.iter S1_glob.bump xs)
