type 'v msg = Input of 'v | Lock of 'v option

let rounds_needed = 2

type 'v result = { same : bool; value : 'v }

(* One more occurrence of [v] in (value, count) groups kept in
   first-appearance order. *)
let rec bump equal v = function
  | [] -> [ (v, 1) ]
  | (v', c) :: rest when equal v v' -> (v', c + 1) :: rest
  | g :: rest -> g :: bump equal v rest

(* The largest group; on equal counts the one that appeared first. *)
let best = function
  | [] -> None
  | g :: groups ->
      Some
        (List.fold_left
           (fun ((_, bc) as acc) ((_, (c : int)) as g) ->
             if c > bc then g else acc)
           g groups)

let run ~net ~embed ~project ~equal ~input =
  let quorum = Committee_net.quorum net in
  let t = Committee_net.fault_threshold net in
  (* Round 1: exchange inputs; lock a value seen from a quorum. At most
     one value can be locked across all correct members: two quorums of
     senders intersect in more than t members, who would all have had to
     send both values. *)
  Committee_net.broadcast net (embed (Input input));
  let inputs =
    Committee_net.fold net ~init:[] ~f:(fun groups ~src:_ m ->
        match project m with
        | Some (Input v) -> bump equal v groups
        | Some (Lock _) | None -> groups)
  in
  let lock =
    match best inputs with Some (v, c) when c >= quorum -> Some v | _ -> None
  in
  (* Round 2: exchange locks; grade the support for the unique lockable
     value. *)
  Committee_net.broadcast net (embed (Lock lock));
  let locks =
    Committee_net.fold net ~init:[] ~f:(fun groups ~src:_ m ->
        match project m with
        | Some (Lock (Some v)) -> bump equal v groups
        | Some (Lock None | Input _) | None -> groups)
  in
  match best locks with
  | Some (v, c) when c >= quorum -> { same = true; value = v }
  | Some (v, c) when c >= t + 1 -> { same = false; value = v }
  | _ -> { same = false; value = input }
