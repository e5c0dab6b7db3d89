(** The Byzantine-resilient strong, order-preserving renaming algorithm
    (paper Section 3, Theorem 1.3; pseudocode Appendix C).

    Three stages:

    + {e Committee election}: shared randomness fixes a candidate pool
      over the original namespace [\[N\]]; candidates that are actual nodes
      announce themselves (ELECT). Authentication stops identity spoofing,
      so a correct node's committee view contains every correct candidate
      plus at most the Byzantine ones.
    + {e Consensus on the identity list}: every node reports its identity
      to the committee; each member forms an [N]-bit vector [L]. Members
      then agree on [L] by divide-and-conquer fingerprinting: for a
      segment, agree (via the weak {!Repro_consensus.Validator} and
      {!Repro_consensus.Phase_king} consensus) on its hash and
      one-count; on failure split the segment and recurse; a member whose
      own segment contradicts the agreed hash marks it {e dirty} and
      patches it to contain exactly the agreed count of ones, which keeps
      its global ranks consistent. Segments only split along paths to
      positions where Byzantine behaviour created divergence, so the
      iteration count — and hence time — scales with the {e actual}
      number of Byzantine nodes (Lemma 3.10).
    + {e Distribution}: members send each node the rank of its identity in
      [L] ([null] for dirty segments); nodes take the plurality over a
      majority of their committee view.

    The new identity of a node is the rank of its original identity among
    all participating identities — hence strong {e and} order-preserving.

    {2 Model notes (see DESIGN.md)}

    Committee views must coincide across correct nodes for the committee
    sub-protocols' [n > 3t] thresholds; we therefore treat membership
    announcements as transferable (a Byzantine candidate announces to all
    or to none — strategies in {!Byz_strategies} obey this), while full
    equivocation remains allowed inside every sub-protocol round and in
    all other stages. *)

module Msg : sig
  (** One block per message: phase-king ([Pk_*]) and validator ([Vld_*],
      a segment's fingerprint and one-count) messages are flat, read by
      the sub-protocols through {!pk_msgs} and {!vld_msgs}. *)
  type t =
    | Elect
    | Announce  (** the sender's identity rides on the authenticated src *)
    | Pk_vote of bool
    | Pk_propose of bool
    | Pk_king of bool
    | Vld_input of Repro_crypto.Fingerprint.t * int
    | Vld_lock of Repro_crypto.Fingerprint.t * int
    | Vld_lock_none
    | Vld_raw_input of string * int
    | Vld_raw_lock of string * int
    | Vld_raw_lock_none
        (** ship-segments ablation: the raw packed segment and its count *)
    | Diff of bool
    | New of int option

  val bits : t -> int
  (** Exact encoded size: tested equal to [snd (encode m)]. *)

  val write : Repro_sim.Wire.Writer.t -> t -> unit
  val read : Repro_sim.Wire.Reader.t -> t
  (** @raise Invalid_argument on a malformed field or too few bits. *)

  val encode : t -> string * int
  (** [write]'s bytes (zero-padded) and exact bit length. *)

  val decode : string -> t option
  val pp : Format.formatter -> t -> unit
end

module Net : module type of Repro_sim.Engine.Make (Msg)

type committee_mode =
  | Shared_pool  (** the paper's algorithm *)
  | Everyone
      (** ablation/baseline: every node is a committee member, i.e. the
          classical all-to-all structure with the same consensus core *)
  | Local_coin of float
      (** ablation: self-election by an unverifiable local coin with the
          given probability — works without shared randomness when all
          Byzantine nodes together stay below a third of the {e committee}
          (i.e. f = O(log n)), and collapses when they mass-join; this is
          the gap §3.2 says removing shared randomness must close *)

type reconcile_mode =
  | Fingerprint_dnc
      (** the paper's fingerprint + divide-and-conquer (O(log N)-bit
          messages, dirty-interval patching) *)
  | Ship_segments
      (** ablation: validate raw segments instead of hashes — agreement
          is its own preimage so the diff/dirty machinery disappears,
          but messages carry Ω(|segment|) bits (the pre-paper cost) *)

type consensus_mode =
  | Phase_king_consensus
      (** deterministic, [3·(t+1)] rounds per instance — linear in
          committee size *)
  | Common_coin_consensus of int
      (** shared-coin consensus with the given phase horizon: exactly
          [2·horizon] rounds per instance regardless of committee size,
          agreement failing with probability [2^-horizon] (the committee
          has shared randomness anyway — see bench E10 for the
          crossover) *)

type params = {
  namespace : int;  (** [N]; all identities must lie in [\[1, N\]] *)
  shared_seed : int;  (** the shared random bits *)
  epsilon0 : float;  (** the paper's [ε0]; default 0.1 *)
  pool_probability : [ `Paper | `Fixed of float ];
      (** candidate probability [p0]; [`Paper] uses
          [8 log n / ((1-3ε0) ε0² n)] clamped to 1 *)
  committee : committee_mode;
  reconcile : reconcile_mode;
  consensus : consensus_mode;
}

val default_params : namespace:int -> shared_seed:int -> params
(** ε0 = 0.1, [`Paper] pool probability, [Shared_pool] committee. *)

val pool_of_params : params -> n:int -> Repro_crypto.Committee_pool.t
(** The shared candidate pool these parameters induce (for experiments
    and adversary construction). Meaningless under [Everyone]. *)

val pk_msgs : Msg.t Repro_consensus.Phase_king.msgs
(** Phase-king's and coin consensus' accessors over {!Msg.t}.
    Test-only: the phase allocation tests run over them. *)

val vld_msgs : Msg.t Repro_consensus.Validator.msgs
(** The validator's accessors over {!Msg.t}'s [Vld_*] messages.
    Test-only: the tally allocation test runs over them. *)

val plurality_rank : int list -> int option
(** Deterministic plurality over a rank multiset given in {e ascending}
    order ([List.sort Int.compare]): the rank with the highest count,
    equal counts breaking towards the smallest rank. This is the
    distribution-stage tie-break (stage 3); it used to follow hashtable
    iteration order, which [OCAMLRUNPARAM=R] perturbs. [None] on the
    empty list.
    Test-only: the tie-break regression test pins the tie case on it,
    which no fixed-seed run is known to reach. *)

type telemetry = {
  on_view : id:int -> view:int list -> unit;
      (** the committee view a node computed from the ELECT round *)
  on_reconciled :
    id:int ->
    l:Repro_util.Bitvec.t ->
    partition:Repro_util.Interval.t list ->
    dirty:Repro_util.Interval.t list ->
    unit;
      (** a committee member's reconciled identity list, the segment
          partition the divide-and-conquer settled on (the final Ĵ, in
          completion order), and the member's dirty intervals — invoked
          right before identity distribution. Drives the Lemma 3.8/3.11
          test suite. *)
}

val program : ?telemetry:telemetry -> params -> Net.ctx -> int
(** Per-node program; returns the node's new identity in [\[1, n\]]. *)

(** The same node program over an arbitrary network backend
    ({!Repro_net.Network_intf.S}); the top-level {!program} is the
    instantiation at the simulator's engine, and
    [Repro_net.Socket_net.Host (Msg)] runs the identical node code
    across OS processes. *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) : sig
  val program : ?telemetry:telemetry -> params -> Net.ctx -> int
end

val run :
  ?telemetry:telemetry ->
  params:params ->
  ?byz:int list * Net.byz_strategy ->
  ?trace:Repro_obs.Trace.t ->
  ?max_rounds:int ->
  ?seed:int ->
  ?shards:int ->
  ids:int array ->
  unit ->
  int Repro_sim.Engine.run_result
(** Validates every identity against [params.namespace], then runs
    through {!Net.run}. A given [trace] records the run: it is wired
    into [Engine.run]'s tap and hooks, and {!Repro_obs.Trace.finish} is
    called on the run's metrics before this returns. [shards] passes
    through (bit-identical results, traces included, for every count),
    except that a [telemetry] run always executes sequentially: the
    telemetry hooks may aggregate across nodes from inside the fibers,
    which is only deterministic on one domain. *)
