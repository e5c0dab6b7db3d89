module Msg = Crash_renaming.Msg
module Net = Crash_renaming.Net

(* Election probability (c · 2^p · log n) / n with c large enough to
   saturate at 1 for every n and p: the committee is all of [V]. *)
let params =
  {
    Crash_renaming.election_constant = 1e12;
    phase_factor = 3;
    reelection = Crash_renaming.On_demand;
    target = `Strong;
  }

let program ctx = Crash_renaming.program params ctx

(* The same fixed-parameter instantiation over any network backend. *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) =
struct
  module Node = Crash_renaming.Make_node (Net)

  let program ctx = Node.program params ctx
end

let run ?crash ?trace ?seed ?shards ~ids () =
  Crash_renaming.run ~params ?crash ?trace ?seed ?shards ~ids ()
