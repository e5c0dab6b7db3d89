type msg = Vote of bool | Propose of bool | King of bool

(* [m] projects to exactly the consensus message [want]. Passed to
   {!Committee_net.count}, it reads a vote tally without an option or a
   list per message. *)
let projects_to project want m =
  match (project m, want) with
  | Some (Vote v), Vote w | Some (Propose v), Propose w | Some (King v), King w
    ->
      Bool.equal v w
  | _ -> false

let run ~net ~embed ~project ~kings ~input =
  let t = Committee_net.fault_threshold net in
  let quorum = Committee_net.quorum net in
  let kings =
    match List.filteri (fun i _ -> i <= t) kings with
    | [] -> invalid_arg "Phase_king.run: no kings"
    | ks when List.length ks < t + 1 ->
        invalid_arg "Phase_king.run: fewer than t+1 kings"
    | ks -> ks
  in
  let count want = Committee_net.count net (projects_to project want) in
  let v = ref input in
  List.iter
    (fun king ->
      (* Round 1: universal exchange of current values. *)
      Committee_net.broadcast net (embed (Vote !v));
      let cnt b = count (Vote b) in
      let proposal =
        if cnt true >= quorum then Some true
        else if cnt false >= quorum then Some false
        else None
      in
      (* Round 2: exchange proposals. A correct member proposes at most
         one value, and no two correct members propose different values
         (two quorums of voters intersect in > t senders, who would all
         have had to equivocate). *)
      (match proposal with
      | Some b -> Committee_net.broadcast net (embed (Propose b))
      | None -> Committee_net.silent_round net);
      let props b = count (Propose b) in
      let supported =
        if props true > t then Some true
        else if props false > t then Some false
        else None
      in
      let strong =
        match supported with Some b -> props b >= quorum | None -> false
      in
      (match supported with Some b -> v := b | None -> ());
      (* Round 3: the phase king circulates its value; members without a
         strong quorum adopt it. *)
      if Committee_net.me net = king then
        Committee_net.broadcast net (embed (King !v))
      else Committee_net.silent_round net;
      if not strong then begin
        let from_king =
          Committee_net.fold net ~init:None ~f:(fun acc ~src m ->
              if src <> king then acc
              else match project m with Some (King b) -> Some b | _ -> acc)
        in
        match from_king with Some b -> v := b | None -> ()
      end)
    kings;
  !v
