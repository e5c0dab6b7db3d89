(* Lint fixture: D3's stdlib generics, path-scoped to the runtime
   libraries. Under lib/ each of the first six bindings fires once; the
   typed forms after them and the annotated one do not. At its real
   test/lint path the file is clean. *)

let member x l = List.mem x l
let lookup k l = List.assoc_opt k l
let in_array x a = Array.mem x a

let seen () =
  let h = Hashtbl.create 8 in
  Hashtbl.replace h 1 ();
  (Hashtbl.mem h 1, Hashtbl.find_opt h 2)

module Int_tbl = Hashtbl.Make (Int)

let typed_seen () =
  let h = Int_tbl.create 8 in
  Int_tbl.replace h 1 ();
  Int_tbl.mem h 1

let typed_member x l = List.exists (Int.equal x) l
let physical_member x l = List.memq x l

(* lint: allow D3 — fixture exercises the comment hatch *)
let allowed k l = List.assoc k l
