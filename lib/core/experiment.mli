(** Shared machinery for the evaluation harness (bench/) and the examples:
    workload generation, one-call protocol execution keyed by variant, and
    plain-text table rendering for the regenerated tables and figures. *)

val random_ids : seed:int -> namespace:int -> n:int -> int array
(** [n] distinct identities drawn uniformly from [\[1, namespace\]] —
    the sparse-namespace workload every experiment uses. *)

(** Which algorithm to run on a crash-failure workload. *)
type crash_protocol =
  | This_work_crash  (** Section 2 committee algorithm *)
  | Halving_baseline  (** all-to-all interval halving (Table 1 baselines) *)
  | Flooding_baseline  (** full-information flooding (Table 1 baselines) *)

(** Which algorithm to run on a Byzantine workload. *)
type byz_protocol =
  | This_work_byz  (** Section 3 committee algorithm *)
  | Everyone_byz  (** same consensus core, committee = all nodes *)

type crash_adversary =
  | No_crash
  | Random_crashes of int  (** f random victims, mid-send allowed *)
  | Committee_killer of int  (** adaptive: kill announcers, budget f *)
  | Committee_killer_partial of int  (** same, with mid-send splits *)
  | Patient_killer of int
      (** message-maximising: kill each committee after one served phase *)
  | Scripted_crashes of (int * int * [ `All | `Nothing | `Subset of int ]) list
      (** fully explicit [(round, victim, delivery)] schedule, replayed
          through [Engine.Crash.scripted] — the deterministic injection
          point for corpus schedules ([Repro_check.Schedule]) outside the
          fuzzer harness *)

type byz_adversary =
  | No_byz
  | Silent_byz of int
  | Noise_byz of int
  | Split_world_byz of int

val crash_protocol_name : crash_protocol -> string
val byz_protocol_name : byz_protocol -> string
val crash_adversary_f : crash_adversary -> int

val crash_horizon : n:int -> f:int -> int
(** The rounds [Random_crashes f] draws its crash rounds from at size
    [n]: past the end of the longest crash-model protocol.
    Test-only: [test/crash_harness.ml] builds [Random_crashes] through
    it, so its runs are the ones {!run_crash} makes. *)

val run_crash :
  ?trace:Repro_obs.Trace.t ->
  ?shards:int ->
  protocol:crash_protocol ->
  n:int ->
  namespace:int ->
  adversary:crash_adversary ->
  seed:int ->
  unit ->
  Runner.assessment
(** One execution. The flooding baseline is given the adversary's true
    [f] (it runs [f+1] rounds) — the most favourable configuration for
    the baseline. For [Scripted_crashes] the reported [f] is the
    schedule length.

    When [trace] is given, the protocol wrapper records the run into it
    and finishes it, so the recorder holds a complete run record when
    this returns.

    [shards] splits the engine's per-round work across domains
    ([Engine.run]'s parameter, bit-identical results — and identical
    trace records — for every count). *)

val run_byz :
  ?trace:Repro_obs.Trace.t ->
  ?shards:int ->
  protocol:byz_protocol ->
  n:int ->
  namespace:int ->
  adversary:byz_adversary ->
  ?pool_probability:float ->
  ?reconcile:Byzantine_renaming.reconcile_mode ->
  ?consensus:Byzantine_renaming.consensus_mode ->
  seed:int ->
  unit ->
  Runner.assessment
(** One execution; [pool_probability] defaults to [min 1 (4·log₂ n / n)],
    giving Θ(log n) expected committee members among the nodes;
    [reconcile] defaults to the paper's fingerprint divide-and-conquer.
    [trace] records the run exactly as in {!run_crash}, and [shards]
    behaves as there. *)

val committee_pool_probability : n:int -> float

(** {1 Reporting} *)

val print_table :
  title:string -> header:string list -> rows:string list list -> unit
(** Render an aligned plain-text table on stdout. When
    [RENAMING_CSV_DIR] is set and non-empty, also write it there as
    [<slug>.csv], creating the directory recursively, via a temp file
    renamed into place (readers never observe a truncated table) with
    the channel closed on all paths. The slug is the title up to the
    first colon or the first non-ASCII byte (em-dashes and other
    typographic glyphs are multi-byte UTF-8, so it cuts before any of
    them), lowercased, with separator runs collapsed to single
    underscores and no leading or trailing underscore. Display
    grouping ([1_234]) is stripped from numeric cells in the CSV. *)

val trial_seed : seed:int -> int -> int
(** [seed + i * 7919]: the seed of trial [i] of a series started at
    [seed], for the paper tables, [renaming_cli]'s sweeps and the
    fuzzer's campaigns alike, so any trial reproduces in isolation. *)

val averaged :
  Runner.assessment list -> Runner.assessment * float * float * float
(** The last of the given trials plus their mean rounds, messages and
    bits, folded in list order (bit-identical however the caller fanned
    the trials out). Raises if any trial is incorrect, if any trial's
    per-round accounting fails {!Runner.reconciles}, or if the list is
    empty. *)
