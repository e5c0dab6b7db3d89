module Ilog = Repro_util.Ilog
module Trace = Repro_obs.Trace

module Msg = struct
  type t = Known of int list
  (** Invariant: the identity list is sorted ascending (the codec
      delta-encodes consecutive gaps). *)

  module W = Repro_sim.Wire

  (* A set message carries one gamma-coded gap per element: still the
     Ω(n log N)-bit large-message cost of the flooding baselines in
     Table 1 (identities are spread over [N], so gaps average N/n). *)
  let bits (Known ids) =
    let _, total =
      List.fold_left
        (fun (prev, acc) id -> (id, acc + W.gamma_bits (id - prev)))
        (0, W.gamma_bits (List.length ids))
        ids
    in
    total

  let write w (Known ids) =
    W.Writer.add_gamma w (List.length ids);
    ignore
      (List.fold_left
         (fun prev id ->
           W.Writer.add_gamma w (id - prev);
           id)
         0 ids)

  (* A loop, not a recursive closure per call; the count needs no bound
     of its own, since every id read takes at least one bit. *)
  let read r =
    let k = W.Reader.read_gamma r in
    let prev = ref 0 and acc = ref [] in
    for _ = 1 to k do
      prev := !prev + W.Reader.read_gamma r;
      acc := !prev :: !acc
    done;
    Known (List.rev !acc)

  let encode m = W.encode_with write m
  let decode s = W.decode_with read s

  let pp ppf (Known ids) =
    Format.fprintf ppf "known{%d ids}" (List.length ids)
end

module Net = Repro_sim.Engine.Make (Msg)

type params = { rounds : [ `Tolerate of int | `Fixed of int ] }

let default_params = { rounds = `Tolerate max_int }

let rounds_of params ~n =
  match params.rounds with
  | `Fixed r -> max 1 r
  | `Tolerate f -> min n (f + 1)

module Iset = Set.Make (Int)

(* The flooding loop over any network backend satisfying
   {!Repro_net.Network_intf.S} — the simulator's engine or the
   multi-process socket transport. *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) =
struct
  let program params ctx =
    let n = Net.n ctx in
    let known = ref (Iset.singleton (Net.my_id ctx)) in
    for _ = 1 to rounds_of params ~n do
      let inbox = Net.broadcast ctx (Msg.Known (Iset.elements !known)) in
      Net.Inbox.iter inbox ~f:(fun ~src:_ msg ->
          let (Msg.Known ids) = msg in
          known := Iset.union !known (Iset.of_list ids))
    done;
    (* New identity: rank of the node's own identity in the common set. *)
    let rank =
      Iset.cardinal (Iset.filter (fun i -> i <= Net.my_id ctx) !known)
    in
    rank
end

module Node = Make_node (Net)

let program = Node.program

let run ?(params = default_params) ?crash ?trace ?seed ?shards ~ids () =
  let res =
    Net.run ~ids ?crash ?tap:(Option.map Trace.tap trace)
      ?on_crash:(Option.map Trace.on_crash trace)
      ?on_decide:(Option.map Trace.on_decide trace)
      ?on_round_end:(Option.map Trace.on_round_end trace)
      ?seed ?shards ~program:(program params) ()
  in
  Option.iter (fun t -> Trace.finish t res.Repro_sim.Engine.metrics) trace;
  res
