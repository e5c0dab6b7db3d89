(* Byzantine strategies written as lists, for tests and oracles. The
   engine's strategies fill a send buffer they own ([Sends]); a test
   strategy is easier to read as a function returning its
   [(dst, msg)] sends, and an oracle compares a buffer as such a list.
   [of_list] adapts the first, [to_list] reads back the second. *)

module type NET = sig
  type msg
  type envelope

  module Sends : sig
    type t = private {
      mutable dst : int array;
      mutable msg : msg array;
      mutable len : int;
    }

    val create : unit -> t
    val clear : t -> unit
    val add : t -> int -> msg -> unit
  end

  type byz_strategy = byz_id:int -> round:int -> inbox:envelope list -> Sends.t
end

module Make (Net : NET) = struct
  type strategy =
    byz_id:int -> round:int -> inbox:Net.envelope list -> (int * Net.msg) list

  (* The sends a buffer holds, in emission order. *)
  let to_list (b : Net.Sends.t) =
    List.init b.len (fun i -> (b.dst.(i), b.msg.(i)))

  let of_list (f : strategy) : Net.byz_strategy =
    let buf = Net.Sends.create () in
    fun ~byz_id ~round ~inbox ->
      Net.Sends.clear buf;
      List.iter (fun (d, m) -> Net.Sends.add buf d m) (f ~byz_id ~round ~inbox);
      buf
end

include Make (Repro_renaming.Byzantine_renaming.Net)
