type 'm receiver = src:int -> 'm -> unit

type 'm t = {
  me : int;
  members : int list;
  ids : int array;  (* [members] as an array, for binary search *)
  multisend : dsts:int list -> 'm -> f:'m receiver -> unit;
  skip_round : f:'m receiver -> unit;
  (* The round's kept messages, in inbox order: [kept] entries of
     [kept_src]/[kept_msg]. [stamp.(i)] is the last round member [i] was
     heard in, so a second message in the same round is dropped without
     a lookup table. All three buffers live as long as the net. *)
  stamp : int array;
  kept_src : int array;
  mutable kept_msg : 'm array;  (* allocated on the first kept message *)
  mutable kept : int;
  mutable round : int;
  keep : 'm receiver;  (* one closure for the net's lifetime *)
}

let size t = Array.length t.ids
let me t = t.me
let fault_threshold t = (size t - 1) / 3
let quorum t = size t - fault_threshold t

let keep t ~src m =
  let i = Repro_util.Sorted.index t.ids src in
  if i >= 0 && t.stamp.(i) <> t.round then begin
    t.stamp.(i) <- t.round;
    if Array.length t.kept_msg = 0 then
      t.kept_msg <- Array.make (Array.length t.ids) m;
    t.kept_src.(t.kept) <- src;
    t.kept_msg.(t.kept) <- m;
    t.kept <- t.kept + 1
  end

let create ~me ~members ~multisend ~skip_round =
  let members = List.sort_uniq Int.compare members in
  let ids = Array.of_list members in
  let k = Array.length ids in
  let rec t =
    {
      me;
      members;
      ids;
      multisend;
      skip_round;
      stamp = Array.make k 0;
      kept_src = Array.make k 0;
      kept_msg = [||];
      kept = 0;
      round = 0;
      keep = (fun ~src m -> keep t ~src m);
    }
  in
  t

let start_round t =
  t.round <- t.round + 1;
  t.kept <- 0

let broadcast t m =
  start_round t;
  t.multisend ~dsts:t.members m ~f:t.keep

let silent_round t =
  start_round t;
  t.skip_round ~f:t.keep

let fold t ~init ~f =
  let acc = ref init in
  for k = 0 to t.kept - 1 do
    acc := f !acc ~src:t.kept_src.(k) t.kept_msg.(k)
  done;
  !acc

let count t p =
  let c = ref 0 in
  for k = 0 to t.kept - 1 do
    if p t.kept_msg.(k) then incr c
  done;
  !c
