type kind = Vote | Propose | King | Other

type 'm msgs = {
  vote : bool -> 'm;
  propose : bool -> 'm;
  king : bool -> 'm;
  kind : 'm -> kind;
  bit : 'm -> bool;
}

type 'm counter = {
  voted_true : 'm -> bool;
  voted_false : 'm -> bool;
  proposed_true : 'm -> bool;
  proposed_false : 'm -> bool;
}

(* One-argument closures, not partial applications of one predicate: a
   count calls one per kept message, where a curried call is slower. *)
let counter c =
  {
    voted_true = (fun m -> match c.kind m with Vote -> c.bit m | _ -> false);
    voted_false =
      (fun m -> match c.kind m with Vote -> not (c.bit m) | _ -> false);
    proposed_true =
      (fun m -> match c.kind m with Propose -> c.bit m | _ -> false);
    proposed_false =
      (fun m -> match c.kind m with Propose -> not (c.bit m) | _ -> false);
  }

let votes net c b =
  Committee_net.count net (if b then c.voted_true else c.voted_false)

let proposals net c b =
  Committee_net.count net (if b then c.proposed_true else c.proposed_false)

let run ~net ~msgs ~kings ~input =
  let t = Committee_net.fault_threshold net in
  let quorum = Committee_net.quorum net in
  (match kings with
  | [] -> invalid_arg "Phase_king.run: no kings"
  | _ when List.compare_length_with kings (t + 1) < 0 ->
      invalid_arg "Phase_king.run: fewer than t+1 kings"
  | _ -> ());
  let c = counter msgs in
  (* The king fold is built once too: the phase's king is read from
     [king], and the value it circulated comes back as a static
     option. *)
  let king = ref 0 in
  let from_king acc ~src m =
    if src <> !king then acc
    else
      match msgs.kind m with
      | King -> if msgs.bit m then Some true else Some false
      | Vote | Propose | Other -> acc
  in
  (* Phases [i = 0 .. t], one per king, in the agreed king order. *)
  let rec phases v i = function
    | k :: kings when i <= t ->
        (* Round 1: universal exchange of current values. *)
        Committee_net.broadcast net (msgs.vote v);
        let proposal =
          if votes net c true >= quorum then Some true
          else if votes net c false >= quorum then Some false
          else None
        in
        (* Round 2: exchange proposals. A correct member proposes at
           most one value, and no two correct members propose different
           values (two quorums of voters intersect in > t senders, who
           would all have had to equivocate). *)
        (match proposal with
        | Some b -> Committee_net.broadcast net (msgs.propose b)
        | None -> Committee_net.silent_round net);
        let supported =
          if proposals net c true > t then Some true
          else if proposals net c false > t then Some false
          else None
        in
        let strong =
          match supported with
          | Some b -> proposals net c b >= quorum
          | None -> false
        in
        let v = match supported with Some b -> b | None -> v in
        (* Round 3: the phase king circulates its value; members without
           a strong quorum adopt it. *)
        if Committee_net.me net = k then
          Committee_net.broadcast net (msgs.king v)
        else Committee_net.silent_round net;
        let v =
          if strong then v
          else begin
            king := k;
            match Committee_net.fold net ~init:None ~f:from_king with
            | Some b -> b
            | None -> v
          end
        in
        phases v (i + 1) kings
    | _ -> v
  in
  phases input 0 kings
