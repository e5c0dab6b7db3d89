
let run ~net ~embed ~project ~coin ~horizon ~input =
  let t = Committee_net.fault_threshold net in
  let quorum = Committee_net.quorum net in
  let count want = Committee_net.count net (Phase_king.projects_to project want) in
  let v = ref input in
  let decided = ref None in
  for phase = 1 to horizon do
    (* Round 1: universal vote exchange; a quorum of identical votes
       yields a proposal. As in phase-king, two correct members can never
       propose different values (their quorums would intersect in more
       than t equivocators). *)
    Committee_net.broadcast net (embed (Phase_king.Vote !v));
    let cnt b = count (Phase_king.Vote b) in
    let proposal =
      if cnt true >= quorum then Some true
      else if cnt false >= quorum then Some false
      else None
    in
    (* Round 2: proposals out; quorum support decides, t+1 support adopts,
       otherwise the shared coin breaks the symmetry — matching the
       unique proposable value with probability 1/2. *)
    (match proposal with
    | Some b -> Committee_net.broadcast net (embed (Phase_king.Propose b))
    | None -> Committee_net.silent_round net);
    let props b = count (Phase_king.Propose b) in
    let supported =
      if props true > t then Some true
      else if props false > t then Some false
      else None
    in
    (match supported with
    | Some b ->
        v := b;
        if props b >= quorum && !decided = None then decided := Some b
    | None -> if !decided = None then v := coin phase)
  done;
  (* A decided member keeps voting its decision until the horizon so that
     every correct member consumes the same number of rounds; agreement
     at the horizon holds except with probability 2^-horizon. *)
  match !decided with Some b -> b | None -> !v
