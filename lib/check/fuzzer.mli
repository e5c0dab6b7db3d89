(** Seeded adversary-schedule fuzzer.

    Generates randomized crash schedules (which process, which round,
    how much of the mid-broadcast outbox survives) and Byzantine
    behaviour scripts against the two renaming algorithms, runs each
    schedule through the simulator with a wire tap attached, and judges
    the execution with {!Oracle.check}. Campaigns fan trials across
    domains via [Parallel.map_list], so verdicts are bit-identical for
    every domain count. *)

type config = {
  algo : Schedule.algo;
  n : int;
  namespace : int;
  trials : int;
  seed : int;
  fault_budget : int;  (** inclusive per-trial cap on scripted faults *)
}

val default_config :
  ?algo:Schedule.algo ->
  ?n:int ->
  ?namespace:int ->
  ?trials:int ->
  ?seed:int ->
  ?fault_budget:int ->
  unit ->
  config
(** Defaults: crash algorithm, [n = 32], [namespace = 64·n],
    [trials = 100], [seed = 1], fault budget [n/4] (crash) or [n/8]
    (Byzantine). *)

val crash_round_bound : n:int -> int
(** The crash theorem's round bound, [9·⌈log n⌉] with the experiment
    parameters ([3] rounds per phase, [3·⌈log m⌉] phases). *)

val byz_round_bound : int
(** Deadlock guard for Byzantine runs (attacks legitimately inflate
    rounds, so there is no tight theorem constant to enforce). *)

val crash_bit_budget : n:int -> namespace:int -> f:int -> int
val byz_bit_budget : n:int -> namespace:int -> f:int -> int
(** Theorem-shaped total-bit budgets with deliberately generous
    constants (see the calibration note in the implementation). Also
    consumed by [bin/net_node_cli] so the socket backend is judged by
    exactly the budgets the fuzzer enforces on the engine. *)

val crash_max_msg_bits : n:int -> namespace:int -> int
val byz_max_msg_bits : namespace:int -> int
(** Per-message bit caps: the widest honest codeword each protocol's
    wire format can emit. *)

val generate : config -> int -> Schedule.t
(** [generate config i] is trial [i]'s schedule — deterministic in
    [(config, i)], with per-trial seed
    [Experiment.trial_seed ~seed:config.seed i] (so any trial can be
    reproduced in isolation from its recorded schedule alone). *)

val run :
  ?trace:Buffer.t ->
  ?jsonl:Repro_obs.Trace.t ->
  ?shards:int ->
  Schedule.t ->
  Oracle.verdict
(** Execute one schedule and judge it. The oracle's wire statistics sum
    each tapped honest message's own [Msg.bits], checked against its
    [encode]/[decode] round trip and against the size the engine billed
    for that copy. When [trace] is given, every message the tap observes
    is appended to it as one line ([r<round> <src> -> <dst> <msg>]) in
    deterministic order. When
    [jsonl] is given, the run is recorded into that structured trace
    (per-round accounting rows, size histogram, crash/decide events) and
    [Trace.finish] is called before the oracle verdict — unless the run
    aborted (round-bound exceeded or an exception), in which case the
    recorder is left unfinished. [shards] splits the engine's per-round
    work across domains ([Engine.run]'s parameter); verdicts, traces and
    recorded runs are bit-identical for every count. *)

type report = {
  index : int;
  schedule : Schedule.t;
  verdict : Oracle.verdict;
}

val campaign : ?domains:int -> config -> report list
(** Run [config.trials] generated schedules, fanned over [domains]
    OCaml domains ([Parallel.map]'s default when omitted). The report
    list is ordered by trial index and bit-identical for every domain
    count. Each trial's run takes its shards from
    [Repro_util.Domain_pool.available]: one inside a multi-domain
    fan-out. *)

val first_failure : report list -> report option

val replay :
  ?jsonl:Repro_obs.Trace.t ->
  ?shards:int ->
  Schedule.t ->
  string * Oracle.verdict
(** Full deterministic replay: returns the schedule text, the complete
    envelope trace, the assessment summary and the verdict as one
    printable document. Replaying the same schedule twice yields
    byte-identical output — for every [shards] count, too. [jsonl]
    additionally records the structured run trace, exactly as in
    {!run}. *)
