type msg = Vote of bool | Propose of bool | King of bool

type 'm instance = {
  vote_true : 'm;
  vote_false : 'm;
  propose_true : 'm;
  propose_false : 'm;
  voted_true : 'm -> bool;
  voted_false : 'm -> bool;
  proposed_true : 'm -> bool;
  proposed_false : 'm -> bool;
}

(* Built once per instance: the four embedded messages and the four
   counting predicates, so no phase builds a constructor or a closure. *)
let instance ~embed ~project =
  {
    vote_true = embed (Vote true);
    vote_false = embed (Vote false);
    propose_true = embed (Propose true);
    propose_false = embed (Propose false);
    voted_true =
      (fun m -> match project m with Some (Vote true) -> true | _ -> false);
    voted_false =
      (fun m -> match project m with Some (Vote false) -> true | _ -> false);
    proposed_true =
      (fun m -> match project m with Some (Propose true) -> true | _ -> false);
    proposed_false =
      (fun m ->
        match project m with Some (Propose false) -> true | _ -> false);
  }

let vote c b = if b then c.vote_true else c.vote_false
let propose c b = if b then c.propose_true else c.propose_false

let votes net c b =
  Committee_net.count net (if b then c.voted_true else c.voted_false)

let proposals net c b =
  Committee_net.count net (if b then c.proposed_true else c.proposed_false)

let run ~net ~embed ~project ~kings ~input =
  let t = Committee_net.fault_threshold net in
  let quorum = Committee_net.quorum net in
  (match kings with
  | [] -> invalid_arg "Phase_king.run: no kings"
  | _ when List.compare_length_with kings (t + 1) < 0 ->
      invalid_arg "Phase_king.run: fewer than t+1 kings"
  | _ -> ());
  let c = instance ~embed ~project in
  let king_true = embed (King true) and king_false = embed (King false) in
  (* The king fold is built once too: the phase's king is read from
     [king], and the value it circulated comes back as a static
     option. *)
  let king = ref 0 in
  let from_king acc ~src m =
    if src <> !king then acc
    else
      match project m with
      | Some (King true) -> Some true
      | Some (King false) -> Some false
      | _ -> acc
  in
  (* Phases [i = 0 .. t], one per king, in the agreed king order. *)
  let rec phases v i = function
    | k :: kings when i <= t ->
        (* Round 1: universal exchange of current values. *)
        Committee_net.broadcast net (vote c v);
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
        | Some b -> Committee_net.broadcast net (propose c b)
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
          Committee_net.broadcast net (if v then king_true else king_false)
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
