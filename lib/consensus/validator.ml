type kind = Input | Lock | Other

type 'm msgs = {
  kind : 'm -> kind;
  same_value : 'm -> 'm -> bool;
  lock : 'm -> 'm;
  lock_none : 'm;
}

type 'm result = { same : bool; value : 'm }

(* A round's tally: [groups] distinct values, each in [msgs] as its first
   message, in order of first appearance, seen [counts] times. A round
   keeps at most one message per member, so arrays sized to the committee
   never fill up; both live for one [run], reset by [groups <- 0]. *)
type 'm tally = {
  msgs : 'm array;
  counts : int array;
  mutable groups : int;
}

(* One more occurrence of [m]'s value: a scan of the groups from [i],
   and a new group at the end if none holds it. *)
let rec bump same_value tl m i =
  if i = tl.groups then begin
    tl.msgs.(i) <- m;
    tl.counts.(i) <- 1;
    tl.groups <- i + 1
  end
  else if same_value m tl.msgs.(i) then tl.counts.(i) <- tl.counts.(i) + 1
  else bump same_value tl m (i + 1)

(* The index of the largest group, on equal counts the one that appeared
   first; -1 when the round kept no value. *)
let best tl =
  let b = ref (-1) in
  for i = 0 to tl.groups - 1 do
    if !b < 0 || tl.counts.(i) > tl.counts.(!b) then b := i
  done;
  !b

let run ~net ~msgs ~input =
  let quorum = Committee_net.quorum net in
  let t = Committee_net.fault_threshold net in
  let size = Committee_net.size net in
  let tl =
    { msgs = Array.make size input; counts = Array.make size 0; groups = 0 }
  in
  (* A round's fold: each kept message of the round's kind bumps its
     group in place. *)
  let add kind () ~src:_ m =
    match (kind, msgs.kind m) with
    | Input, Input | Lock, Lock -> bump msgs.same_value tl m 0
    | _ -> ()
  in
  (* Round 1: exchange inputs; lock a value seen from a quorum. At most
     one value can be locked across all correct members: two quorums of
     senders intersect in more than t members, who would all have had to
     send both values. *)
  Committee_net.broadcast net input;
  Committee_net.fold net ~init:() ~f:(add Input);
  let lock =
    match best tl with
    | b when b >= 0 && tl.counts.(b) >= quorum -> msgs.lock tl.msgs.(b)
    | _ -> msgs.lock_none
  in
  (* Round 2: exchange locks; grade the support for the unique lockable
     value. *)
  tl.groups <- 0;
  Committee_net.broadcast net lock;
  Committee_net.fold net ~init:() ~f:(add Lock);
  match best tl with
  | b when b >= 0 && tl.counts.(b) >= quorum ->
      { same = true; value = tl.msgs.(b) }
  | b when b >= 0 && tl.counts.(b) >= t + 1 ->
      { same = false; value = tl.msgs.(b) }
  | _ -> { same = false; value = input }
