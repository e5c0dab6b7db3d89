(** Cost accounting for a simulated execution.

    The engine counts every message at the moment it is handed to the
    network, which is the quantity the paper's message-complexity theorems
    bound ("messages sent"). A node crashed mid-send has only the
    delivered prefix of its final outbox counted, matching the model in
    which a crash may interrupt a send. Messages emitted by Byzantine
    nodes are tracked separately: they are the adversary's expenditure,
    not the algorithm's.

    Accounting is kept {e per round} as well as in totals, for both
    honest and Byzantine traffic, messages and bits: the paper's
    subquadratic-bits claims (and the related King–Saia line of work)
    argue in per-round budgets, and the run-trace layer
    ([Repro_obs.Trace]) reports exactly these rows. The invariant — the
    per-round rows sum to the totals, field by field — is checked by
    {!reconcile} and enforced by the oracles in [lib/check]. *)

type round_row = {
  hmsgs : int;  (** honest messages sent in the round *)
  hbits : int;  (** honest bits sent in the round *)
  bmsgs : int;
      (** Byzantine messages emitted in the round (misaddressed ones
          included: the adversary spent them even though the network
          dropped them) *)
  bbits : int;  (** Byzantine bits emitted in the round *)
}

type t = {
  mutable honest_messages : int;
  mutable honest_bits : int;
  mutable byz_messages : int;
  mutable byz_bits : int;
  mutable byz_misaddressed : int;
      (** Byzantine sends addressed outside the participant set; the
          network drops them, this counter is their only trace. (Honest
          nodes raise instead — see [Engine.exchange].) *)
  mutable rounds : int;  (** rounds actually executed *)
  mutable crashes : int;  (** crash-adversary expenditure *)
  mutable pr_hmsgs : int array;
      (** growable per-round buffers (honest/byz × messages/bits); only
          the first [rounds] entries are meaningful — read through
          {!messages_by_round}, {!round_row} and {!per_round} *)
  mutable pr_hbits : int array;
  mutable pr_bmsgs : int array;
  mutable pr_bbits : int array;
  mutable cur_hmsgs : int;
      (** counters of the round currently executing (closed by
          {!end_round}) *)
  mutable cur_hbits : int;
  mutable cur_bmsgs : int;
  mutable cur_bbits : int;
}

val create : unit -> t

val add_honest_bulk : t -> msgs:int -> bits:int -> unit
(** Fold a pre-summed batch of honest messages into the current round —
    the engine's billing merge, where each shard accumulated its own
    [(msgs, bits)] partial sums. Addition commutes, so folding the
    shards in any fixed order gives the same totals for every shard
    count. *)

val add_byz : t -> bits:int -> unit
val record_byz_misaddressed : t -> unit

val end_round : t -> unit
(** Close the current round's per-round counters and bump [rounds]. *)

val record_crash : t -> unit

val messages_by_round : t -> int array
(** Chronological per-round {e total} message counts, honest plus
    Byzantine: summed, they give [honest_messages + byz_messages].
    {!per_round} has each round's honest and Byzantine columns. *)

val round_row : t -> int -> round_row
(** The completed round's full accounting row.
    @raise Invalid_argument outside [\[0, rounds)]. *)

val per_round : t -> round_row array
(** All completed rounds, chronological. *)

val reconcile : t -> (string * int * int) list
(** [(field, per_round_sum, total)] for every total field whose summed
    per-round buffer disagrees with it; empty exactly when the per-round
    accounting reconciles. On a completed run this must be empty — the
    oracle layer treats any entry as an accounting bug. *)

val pp : Format.formatter -> t -> unit
