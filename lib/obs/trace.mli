(** Structured per-round run traces (JSONL).

    A [Trace.t] plugs into the simulator's observability surface —
    [Engine.run]'s [?tap] wire hook plus the [?on_crash], [?on_decide]
    and [?on_round_end] hooks; the protocol wrappers' [?trace] wires all
    four and calls {!finish} — and records one JSON line per completed
    round: the round's full {!Repro_sim.Metrics} accounting row (honest
    and Byzantine messages {e and} bits), the identities that crashed or
    decided during the round, and a histogram of on-wire message sizes.
    A final summary line repeats the run totals, so a consumer can
    reconcile the per-round rows against them line by line (the
    [trace_cli summary] subcommand does exactly that).

    {2 Determinism}

    With [timings = false] (the default) the produced bytes are a pure
    function of the run: same seed, same schedule — byte-identical file,
    whatever the domain count or wall clock. The writer emits fields in
    a fixed order and canonicalizes all lists (crash/decide identities
    and histogram entries are sorted), which is what makes
    [trace_cli diff] a line-level divergence finder rather than a fuzzy
    comparison. With [timings = true] each round record additionally
    carries [wall_ns] and [alloc_words] deltas — inherently
    non-deterministic, hence opt-in; [Trace_tools.diff] strips
    exactly these fields, so timed traces remain diffable.

    {2 Schema (run-trace/v1)}

    One JSON object per line:
    - [{"type":"meta","schema":"run-trace/v1",...,"timings":bool}] —
      first line; caller-supplied metadata (algorithm, n, seed, ...).
    - [{"type":"round","round":r,"honest_msgs":..,"honest_bits":..,
       "byz_msgs":..,"byz_bits":..,"crashes":[ids],"decides":[ids],
       "sizes":[[bits,count],...]}] — one per completed round;
      [byz_msgs]/[byz_bits] include misaddressed Byzantine sends (billed
      to the adversary even though dropped), while [sizes] histograms
      only what actually reached the wire.
    - [{"type":"summary","rounds":..,...,"max_msg_bits":..}] — totals,
      written by {!finish}. *)

type t

type meta_value = [ `Int of int | `Str of string ]

val create : ?timings:bool -> ?meta:(string * meta_value) list -> unit -> t
(** A fresh recorder; writes the meta line immediately. [meta] fields
    are emitted in the given order. [timings] (default [false]) adds
    per-round wall-clock and GC-allocation deltas — see the determinism
    note above before enabling it anywhere a byte-identity check runs. *)

val tap : t -> round:int -> src:int -> dst:int -> bits:int -> 'msg -> unit
(** Plug as [Engine.run]'s [?tap]: one on-wire message of [bits] bits
    (the size the engine billed). Adds it to the open round's size
    histogram, an int array indexed by size; allocates nothing unless a
    size is larger than any the array has held. *)

val on_crash : t -> round:int -> id:int -> unit
(** Plug as [Engine.run]'s [?on_crash]. *)

val on_decide : t -> round:int -> id:int -> unit
(** Plug as [Engine.run]'s [?on_decide]. *)

val on_round_end : t -> round:int -> Repro_sim.Metrics.t -> unit
(** Plug as [Engine.run]'s [?on_round_end]: closes the round record,
    reading the completed round's row from the metrics. *)

val finish : t -> Repro_sim.Metrics.t -> unit
(** Write the summary line from the run's final metrics. Call once,
    after the run returns. @raise Invalid_argument if called twice. *)

val contents : t -> string
(** The JSONL produced so far. *)

val write_file : t -> string -> unit
(** Write {!contents} to a file via temp-file + rename, so a crashed
    writer never leaves a truncated trace under the final name. *)
