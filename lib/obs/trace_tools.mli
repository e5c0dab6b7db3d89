(** Consumers of the [run-trace/v1] JSONL format written by {!Trace}:
    line-level diff (the inspectable form of the byte-identical-replay
    guarantee) and a reconciling summary. The scanner is specific to the
    writer's canonical shape (fixed field order, sorted lists) — it is
    not a general JSON parser. *)

(** {2 Round records}

    Test-only: the trace tests read what individual round records hold
    (the decide identities, the last round with a crash) through these;
    {!diff} and {!summarize} are built on them. *)

val round_lines : string -> string list
(** The trace's round records, in order.
    Test-only: see above. *)

val int_field : string -> string -> int option
(** [int_field line key] extracts the integer value of ["key"] from one
    trace line, [None] if absent or malformed.
    Test-only: see above. *)

val int_list_field : string -> string -> int list option
(** [int_list_field line key] extracts the integer list of ["key"].
    Test-only: see above. *)

type divergence = {
  d_round : int;
  d_left : string option;  (** [None]: the left trace ended early *)
  d_right : string option;
}

type diff_result =
  | Identical of int  (** number of round records compared *)
  | Diverged of divergence
  | Summary_mismatch of { s_left : string; s_right : string }
      (** all round records equal but the summary lines differ — a
          malformed or hand-edited trace *)

val diff : left:string -> right:string -> diff_result
(** Compare two traces round record by round record (the [wall_ns] and
    [alloc_words] fields stripped: they are the only non-deterministic
    fields a timed trace carries, so traces recorded with
    [timings:true] still diff structurally; meta lines ignored — labels
    may legitimately differ);
    reports the first diverging round, which is where two runs of the
    "same" execution actually parted ways. *)

type summary_report = {
  text : string;  (** human-readable multi-line report *)
  reconciled : bool;
      (** per-round sums equal the summary line's totals; [trace_cli
          summary] exits non-zero when this is false *)
}

val summarize : string -> (summary_report, string) result
(** [Error] on a line missing a required field. *)
