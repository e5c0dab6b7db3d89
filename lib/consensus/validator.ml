type 'v msg = Input of 'v | Lock of 'v option

type 'v result = { same : bool; value : 'v }

(* A round's tally: [groups] distinct values in [vals], in order of
   first appearance, each seen [counts] times. A round keeps at most one
   message per member, so arrays sized to the committee never fill up;
   both are allocated once per [run] and reset by [groups <- 0]. *)
type 'v tally = {
  vals : 'v array;
  counts : int array;
  mutable groups : int;
}

(* One more occurrence of [v]: a scan of the groups from [i], and a new
   group at the end if none holds it. *)
let rec bump equal tl v i =
  if i = tl.groups then begin
    tl.vals.(i) <- v;
    tl.counts.(i) <- 1;
    tl.groups <- i + 1
  end
  else if equal v tl.vals.(i) then tl.counts.(i) <- tl.counts.(i) + 1
  else bump equal tl v (i + 1)

(* The index of the largest group, on equal counts the one that appeared
   first; -1 when the round kept no value. *)
let best tl =
  let b = ref (-1) in
  for i = 0 to tl.groups - 1 do
    if !b < 0 || tl.counts.(i) > tl.counts.(!b) then b := i
  done;
  !b

let run ~net ~embed ~project ~equal ~input =
  let quorum = Committee_net.quorum net in
  let t = Committee_net.fault_threshold net in
  let size = Committee_net.size net in
  let tl =
    { vals = Array.make size input; counts = Array.make size 0; groups = 0 }
  in
  (* The two rounds' folds, built once: each kept message of the right
     kind bumps its group in place. *)
  let add_input () ~src:_ m =
    match project m with
    | Some (Input v) -> bump equal tl v 0
    | Some (Lock _) | None -> ()
  in
  let add_lock () ~src:_ m =
    match project m with
    | Some (Lock (Some v)) -> bump equal tl v 0
    | Some (Lock None | Input _) | None -> ()
  in
  (* Round 1: exchange inputs; lock a value seen from a quorum. At most
     one value can be locked across all correct members: two quorums of
     senders intersect in more than t members, who would all have had to
     send both values. *)
  Committee_net.broadcast net (embed (Input input));
  Committee_net.fold net ~init:() ~f:add_input;
  let lock =
    match best tl with
    | b when b >= 0 && tl.counts.(b) >= quorum -> Some tl.vals.(b)
    | _ -> None
  in
  (* Round 2: exchange locks; grade the support for the unique lockable
     value. *)
  tl.groups <- 0;
  Committee_net.broadcast net (embed (Lock lock));
  Committee_net.fold net ~init:() ~f:add_lock;
  match best tl with
  | b when b >= 0 && tl.counts.(b) >= quorum ->
      { same = true; value = tl.vals.(b) }
  | b when b >= 0 && tl.counts.(b) >= t + 1 ->
      { same = false; value = tl.vals.(b) }
  | _ -> { same = false; value = input }
