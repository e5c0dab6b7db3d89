(* S1 cross-file fixture, part 1: a top-level mutable binding and the
   helper that writes it. On its own this file is clean — test/lint
   is not a domain-shared directory, so D4 stays quiet — and only the
   project-wide pass can connect [bump] to a parallel region in another
   file (s1_pos.ml). *)

let counter = ref 0

let bump k = counter := !counter + k
