(** Baseline: all-to-all interval-halving renaming in the style of
    Okun–Barak–Gafni [34] (the crash-model reading of Table 1's row).

    Structurally this is the paper's crash-resilient algorithm with the
    committee identically equal to {e all} nodes: every node announces
    every phase, every node reports to everyone, every node issues
    verdicts to everyone. Correctness is therefore inherited from the
    committee algorithm's halving rule, while the cost reverts to the
    pre-paper profile that Table 1 reports for the baselines: Θ(n²)
    messages per round for O(log n) rounds — Õ(n² ) messages regardless of
    how many failures actually occur.

    (A plain "each node halves by its own view, no verdict exchange"
    variant is {e not} crash-safe: a mid-send crash can inflate ranks
    asymmetrically and overflow an interval; see the failure-injection
    test [test_halving.ml] exercising ghost-status scenarios. The verdict
    round's deepest-then-leftmost selection is what restores safety.) *)

module Msg = Crash_renaming.Msg
module Net = Crash_renaming.Net

val params : Crash_renaming.params
(** Crash-renaming parameters with certain election: committee = everyone
    from phase one, re-elections vacuous. *)

val program : Net.ctx -> int

(** The fixed-parameter instantiation over an arbitrary network backend
    ({!Repro_net.Network_intf.S}). *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) : sig
  val program : Net.ctx -> int
end

val run :
  ?crash:Net.crash_adversary ->
  ?trace:Repro_obs.Trace.t ->
  ?seed:int ->
  ?shards:int ->
  ids:int array ->
  unit ->
  int Repro_sim.Engine.run_result
(** Wrapper over {!Crash_renaming.run} with the all-to-all parameters;
    [trace] and [shards] behave as there. *)
