(* A direct array below [dense_limit] (8 Mi cells, 64 MB), a hash table
   for anything else, so an exotic identity cannot force a huge array. *)
module Int_tbl = Hashtbl.Make (Int)

type t = Dense of int array | Sparse of int Int_tbl.t

let dense_limit = 8_388_608

let create ~duplicate ids =
  let compact = Array.for_all (fun id -> id >= 0 && id < dense_limit) ids in
  if compact then begin
    let a = Array.make (Array.fold_left max (-1) ids + 1) (-1) in
    Array.iteri
      (fun s id ->
        if a.(id) >= 0 then raise (duplicate id);
        a.(id) <- s)
      ids;
    Dense a
  end
  else begin
    let h = Int_tbl.create (2 * Array.length ids) in
    Array.iteri
      (fun s id ->
        if Int_tbl.mem h id then raise (duplicate id);
        Int_tbl.add h id s)
      ids;
    Sparse h
  end

let find t id =
  match t with
  | Dense a -> if id >= 0 && id < Array.length a then a.(id) else -1
  | Sparse h -> (
      match Int_tbl.find h id with s -> s | exception Not_found -> -1)
