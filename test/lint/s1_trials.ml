(* S1 cross-file fixture, part 3: a trial fan-out. [Parallel.map] runs
   its jobs on a domain pool whose job is a parameter, so the call graph
   cannot follow the closure through it; the call site itself is the
   parallel region. The closure reaches S1_glob.counter through
   S1_glob.bump, in another file. *)

let trial_sum count = Parallel.map count (fun i -> S1_glob.bump i)
