(* A committee transport with no network behind it, for measuring what
   the consensus sub-protocols themselves allocate. Every round delivers
   one message from each of the first [heard] members, in member order:
   [reply i m] is member [i]'s message in a round where this node sent
   [m], and a silent round delivers nothing. The closures are built
   here, once, so a round over this net allocates only what [reply]
   does. *)

module CN = Repro_consensus.Committee_net

let create ~me ~members ~heard ~reply =
  let ids = Array.of_list (List.sort_uniq Int.compare members) in
  CN.create ~me ~members
    ~multisend:(fun ~dsts:_ m ~f ->
      for i = 0 to heard - 1 do
        f ~src:ids.(i) (reply i m)
      done)
    ~skip_round:(fun ~f:_ -> ())

(* Minor words per extra phase between two runs of [words], at [short]
   and [long] phases: what a phase allocates beyond the instance's fixed
   set-up. *)
let words_per_phase ~words ~short ~long =
  (words long -. words short) /. float_of_int (long - short)
