(** Byzantine node behaviours for attacking {!Byzantine_renaming}.

    All strategies respect the transferable-membership model (an ELECT
    announcement goes to everyone or to no one, see DESIGN.md) but
    otherwise lie and equivocate freely: inconsistent identity
    announcements, split votes in every consensus round, forged
    fingerprints and counts in the validator, contradictory diff reports,
    premature and false NEW identities. *)

val silent : Byzantine_renaming.Net.byz_strategy
(** Sends nothing ever — Byzantine nodes simulating crash failure. *)

val random_noise :
  Byzantine_renaming.params ->
  rng:Repro_util.Rng.t ->
  ids:int array ->
  Byzantine_renaming.Net.byz_strategy
(** Joins the committee when eligible, then sprays randomly shaped
    protocol messages (votes, proposals, forged fingerprints, diff bits,
    fake NEW ranks) at random participants every round. *)

val committee_hijack :
  Byzantine_renaming.params ->
  ids:int array ->
  Byzantine_renaming.Net.byz_strategy
(** The attack an {e adaptive} adversary mounts (paper §3.2): corrupt
    committee members after the pool is known, then have them all push
    the same bogus NEW identity at every node. When the corrupted members
    form a majority of the committee view — impossible for the static
    adversary w.h.p., trivial for an adaptive one — every honest node
    crosses its decision threshold on fabricated values and uniqueness
    collapses.
    Test-only: the negative-result test documenting why the committee
    approach needs the non-adaptive assumption mounts it, and the docs
    describe it as part of the adversary catalogue. *)

(** {1 Scripted behaviours}

    The schedule fuzzer ([lib/check]) attacks with named, serializable
    behaviours rather than opaque closures: a schedule file assigns one
    behaviour per Byzantine identity and {!scripted} builds the strategy
    that executes it. *)

type behavior =
  | Silence  (** crash-simulating: never sends *)
  | Equivocate  (** the {!split_world} playbook *)
  | Misaddress
      (** every send targets a non-participant identity — exercises the
          engine's drop-and-count path ([Metrics.byz_misaddressed]) *)
  | Replay
      (** re-emits last round's received payloads at random participants:
          stale protocol messages arriving out of phase *)
  | Noise  (** the {!random_noise} playbook *)

val behavior_name : behavior -> string
val behavior_of_name : string -> behavior option
val all_behaviors : behavior list

val scripted :
  Byzantine_renaming.params ->
  rng:Repro_util.Rng.t ->
  ids:int array ->
  behaviors:(int * behavior) list ->
  Byzantine_renaming.Net.byz_strategy
(** [scripted params ~rng ~ids ~behaviors] runs, for each Byzantine
    identity, the behaviour [behaviors] assigns it (unlisted identities
    stay silent). Deterministic given ([rng] seed, [ids], [behaviors]):
    the engine fixes the per-round invocation order, so the shared [rng]
    stream is consumed identically on every run of the same schedule. *)

val split_world :
  Byzantine_renaming.params ->
  rng:Repro_util.Rng.t ->
  ids:int array ->
  Byzantine_renaming.Net.byz_strategy
(** The crafted attack the divide-and-conquer machinery exists for:
    announce the node's identity to only {e half} of the committee — so
    correct members' identity lists genuinely differ at its position and
    fingerprint agreement must recurse down to it — and equivocate
    two-facedly (true to even-indexed members, false to odd-indexed) in
    every vote, proposal, king declaration, validator and diff round,
    while pushing fake NEW identities at non-members to bait premature
    decisions. *)
