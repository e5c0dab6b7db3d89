let run ~net ~msgs ~coin ~horizon ~input =
  let t = Committee_net.fault_threshold net in
  let quorum = Committee_net.quorum net in
  (* Built once per instance: a phase allocates nothing. *)
  let c = Phase_king.counter msgs in
  let v = ref input in
  let decided = ref None in
  for phase = 1 to horizon do
    (* Round 1: universal vote exchange; a quorum of identical votes
       yields a proposal. As in phase-king, two correct members can never
       propose different values (their quorums would intersect in more
       than t equivocators). *)
    Committee_net.broadcast net (msgs.Phase_king.vote !v);
    let proposal =
      if Phase_king.votes net c true >= quorum then Some true
      else if Phase_king.votes net c false >= quorum then Some false
      else None
    in
    (* Round 2: proposals out; quorum support decides, t+1 support adopts,
       otherwise the shared coin breaks the symmetry — matching the
       unique proposable value with probability 1/2. *)
    (match proposal with
    | Some b -> Committee_net.broadcast net (msgs.Phase_king.propose b)
    | None -> Committee_net.silent_round net);
    let supported =
      if Phase_king.proposals net c true > t then Some true
      else if Phase_king.proposals net c false > t then Some false
      else None
    in
    match supported with
    | Some b ->
        v := b;
        if Phase_king.proposals net c b >= quorum && Option.is_none !decided
        then decided := Some b
    | None -> if Option.is_none !decided then v := coin phase
  done;
  (* A decided member keeps voting its decision until the horizon so that
     every correct member consumes the same number of rounds; agreement
     at the horizon holds except with probability 2^-horizon. *)
  match !decided with Some b -> b | None -> !v
