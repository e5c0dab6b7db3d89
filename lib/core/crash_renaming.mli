(** The crash-resilient strong renaming algorithm (paper Section 2,
    Theorem 1.2; pseudocode Appendix A, Figures 1–3).

    Every node keeps an interval [I_v ⊆ [1, n]] (its candidate range of
    new identities), a depth [d_v] in the interval-halving tree, and an
    escalation counter [p_v]. Execution is [3·⌈log n⌉] phases of 3 rounds:

    + committee members announce themselves to everyone;
    + every node reports [⟨ID, I_v, d_v, p_v⟩] to the announced committee;
    + committee members halve the intervals of minimum depth — ranking
      reporters by identity inside each interval — and reply; nodes adopt
      the best response. A node that receives {e no} response concludes
      the whole committee crashed, increments [p_v] and self-elects with
      probability [(c · 2^{p_v} · log n) / n], which doubles the expected
      replacement committee size after every wipe-out and makes the
      message complexity scale with the adversary's actual crash count.

    Guarantees (Theorem 1.2): always correct, always [O(log n)] rounds,
    [O((f + log n)·n log n)] messages w.h.p., each of [O(log N)] bits. *)

module Msg : sig
  type t =
    | Notify  (** committee-membership announcement (round 1) *)
    | Status of { id : int; iv : Repro_util.Interval.t; d : int; p : int }
        (** node report (round 2) *)
    | Response of { iv : Repro_util.Interval.t; d : int; p : int }
        (** committee verdict (round 3) — carries no id: the engine
            names the recipient on the envelope, and the omission lets
            one physically-shared value serve a whole verdict group *)

  val bits : t -> int
  (** Exact encoded size: tested equal to [snd (encode m)]. *)

  val write : Repro_sim.Wire.Writer.t -> t -> unit
  (** The codec: exactly [bits m] bits. *)

  val read : Repro_sim.Wire.Reader.t -> t
  (** [write]'s inverse.
      @raise Invalid_argument on a malformed field or too few bits. *)

  val encode : t -> string * int
  (** Wire bytes (zero-padded) and the exact bit length, from [write]. *)

  val decode : string -> t option
  (** [read] over the bytes; [None] where it raises. *)

  val pp : Format.formatter -> t -> unit
end

module Net : module type of Repro_sim.Engine.Make (Msg)

type reelection_policy =
  | On_demand
      (** the paper's rule: self-elect only after committee silence or
          upon learning a larger [p] *)
  | Every_phase
      (** ablation: additionally retry the election coin every phase —
          the committee (and message bill) grows monotonically *)

type params = {
  election_constant : float;
      (** the paper's 256 in [(256 · 2^p · log n) / n]; the asymptotic
          value saturates the probability at 1 for any practical [n], so
          experiments use a small constant with identical logic *)
  phase_factor : int;  (** the paper's 3 in [3·⌈log n⌉] phases *)
  reelection : reelection_policy;
  target : [ `Strong | `Loose of int ];
      (** [`Strong] renames into [\[1, n\]] (the paper's setting);
          [`Loose m] with [m >= n] renames into [\[1, m\]] — Definition
          1.1's general target namespace, obtained by rooting the halving
          tree at [\[1, m\]] *)
}

val paper_params : params
(** [{election_constant = 256.; phase_factor = 3; reelection = On_demand;
     target = `Strong}]: the constants of the paper's analysis.
    Test-only: at the sizes simulated here they put every node in the
    committee, so no run path uses them; a test checks that case, and
    DESIGN, ALGORITHMS and README contrast them with
    {!experiment_params}. *)

val experiment_params : params
(** [{election_constant = 3.; phase_factor = 3; reelection = On_demand;
     target = `Strong}] — small committees at benchmark scale; used by
    the evaluation harness. *)

val phases : params -> n:int -> int

type telemetry = {
  on_phase_end :
    phase:int ->
    id:int ->
    iv:Repro_util.Interval.t ->
    d:int ->
    p:int ->
    elected:bool ->
    unit;
}
(** Per-node observation hook, invoked at the end of every phase with the
    node's post-phase state. Used by the lemma-level test suites
    (Lemmas 2.2/2.3/2.5) and the tracing example; all nodes run in one
    process, so the hook may aggregate across nodes. *)

exception Invalid_committee_inbox of string
(** The committee's input contract. A committee member answers the
    status reports of one round from a verdict index over slots in
    ascending identity order, which is sound only if the round's inbox
    satisfies:
    - every status's [id] equals its transport-level source;
    - sources are participants, strictly ascending, each reporting at
      most once (the engine's inbox order);
    - minimum-depth non-singleton intervals are pairwise disjoint (the
      shared halving-tree invariant);
    - depths and escalation levels lie in [\[0, 2^20)];
    - every interval lies in the target namespace [\[1, m\]] ([n] for
      [`Strong], [m] for [`Loose m]), which bounds the number of
      verdict groups the member's columns are sized for.

    Honest crash-model traffic satisfies all five by construction, so
    the member does not absorb a violation: it raises this exception,
    naming the failed precondition, out of the node program. Nothing in
    the library catches it — the engine re-raises it from [Net.run], and
    the fuzzer reports it as a crashed run. *)

val program :
  ?telemetry:telemetry -> ?alloc_emit:float ref -> params -> Net.ctx -> int
(** The per-node program; returns the node's new identity in [[1, n]].
    Run it through {!Net.run} or the {!run} convenience wrapper.
    [alloc_emit] accumulates the minor words allocated by the committee
    (a member's record, at its first committee round, then each round's
    verdict build and outbox fill) — the protocol half of the
    {!Repro_sim.Engine.alloc_probe} attribution; meaningful only when
    every node of a run shares one cell on one domain. *)

(** The same node program over an arbitrary network backend: any module
    satisfying {!Repro_net.Network_intf.S} on this protocol's message
    type. [Make_node (Net).program] {e is} {!program} — the top-level
    value is the instantiation at the simulator's engine — and
    instantiating at [Repro_net.Socket_net.Host (Msg)] runs the
    identical node code across OS processes (see [bin/net_node_cli]). *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) : sig
  val program :
    ?telemetry:telemetry -> ?alloc_emit:float ref -> params -> Net.ctx -> int
end

val run :
  ?params:params ->
  ?telemetry:telemetry ->
  ?crash:Net.crash_adversary ->
  ?trace:Repro_obs.Trace.t ->
  ?seed:int ->
  ?shards:int ->
  ids:int array ->
  unit ->
  int Repro_sim.Engine.run_result
(** Convenience wrapper around {!Net.run}. A given [trace] records the
    run: it is wired into [Engine.run]'s tap and hooks (see there for
    their contracts), and {!Repro_obs.Trace.finish} is called on the
    run's metrics before this returns. [shards] passes through
    (bit-identical results, traces included, for every count), except
    that a [telemetry] run always runs with one shard: telemetry hooks
    may aggregate across nodes from inside the fibers, which is only
    deterministic on one domain. *)

(** Test-only seams into the committee internals. Each drives one
    committee member through a sequence of round inboxes, given as
    [(src, msg)] pairs fabricated without engine checks. [ids] is the
    participant set (the member's slot universe), and the member renames
    into [\[1, |ids|\]] as in a strong-renaming run; [pv] seeds the
    member's escalation counter. The member's retained state persists
    across the listed rounds, exactly as in a live run, and a round that
    breaks the input contract raises {!Invalid_committee_inbox}. *)
module For_tests : sig
  val committee_verdicts :
    pv:int ->
    ids:int array ->
    (int * Msg.t) list list ->
    (int * Msg.t * int) list list
  (** Each round's verdicts as [(dst, msg, billed_bits)] triples.
      Test-only: the committee oracle's verdicts are compared against
      these. *)

  val state_pv : pv:int -> ids:int array -> (int * Msg.t) list list -> int
  (** The member's escalation counter after absorbing the rounds.
      Test-only: the oracle's escalation counter is compared against
      it. *)

  type committee
  (** A member's committee record. *)

  val footprint :
    ids:int array ->
    (int * Msg.t) list list ->
    (int * Msg.t) list ->
    float * committee
  (** [footprint ~ids rounds last] absorbs [rounds] on a fresh member,
      then [last]: the minor words that last absorb allocated, and the
      member's committee record (for [Obj.reachable_words]).
      Test-only: the footprint pins in [test/test_committee_paths.ml]
      read it. *)
end
