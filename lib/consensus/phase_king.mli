(** Binary Byzantine consensus by the phase-king algorithm
    (Berman–Garay–Perry), instantiating the paper's Lemma 3.4.

    Tolerates [t = floor((n-1)/3)] Byzantine members among [n] committee
    members with symmetric views. Runs [t + 1] phases of 3 rounds each —
    [O(committee size)] rounds and [O(committee^2)] messages per round,
    matching the lemma's [O(ĉ_g)] rounds / [O(ĉ_g^3)] messages budget.

    Guarantees for all correct members (proofs in the classical
    literature; property-tested in [test/test_phase_king.ml]):
    - {e agreement}: all outputs equal;
    - {e validity}: the output is some correct member's input (in the
      binary case: if all correct inputs agree, that value is output);
    - {e lock-step}: every correct member consumes exactly [3 · (t + 1)]
      network rounds. *)

type msg = Vote of bool | Propose of bool | King of bool


type 'm instance = {
  vote_true : 'm;
  vote_false : 'm;
  propose_true : 'm;
  propose_false : 'm;
  voted_true : 'm -> bool;
  voted_false : 'm -> bool;
  proposed_true : 'm -> bool;
  proposed_false : 'm -> bool;
}
(** One consensus instance's vocabulary, shared with {!Coin_consensus}:
    the embedded [Vote]/[Propose] messages and the predicates "projects
    to exactly this message" that count them. Built once per instance,
    so a phase allocates no constructor and no closure. *)

val instance : embed:(msg -> 'm) -> project:('m -> msg option) -> 'm instance

val vote : 'm instance -> bool -> 'm
(** The embedded [Vote b]. *)

val propose : 'm instance -> bool -> 'm
(** The embedded [Propose b]. *)

val votes : 'm Committee_net.t -> 'm instance -> bool -> int
(** Kept messages of the last round that project to [Vote b]. *)

val proposals : 'm Committee_net.t -> 'm instance -> bool -> int
(** Kept messages of the last round that project to [Propose b]. *)

val run :
  net:'m Committee_net.t ->
  embed:(msg -> 'm) ->
  project:('m -> msg option) ->
  kings:int list ->
  input:bool ->
  bool
(** [run ~net ~embed ~project ~kings ~input] executes one consensus
    instance. [kings] must contain at least [t + 1] identities agreed by
    all correct members (the shared-randomness king order of the pool);
    extra entries are ignored. [embed]/[project] splice the consensus
    messages into the outer protocol's message type; foreign messages
    arriving mid-instance are ignored via [project].

    Allocation is per instance, not per phase: the vocabulary, the two
    embedded [King] messages and the king fold are built once, and
    [kings] is walked in place. *)
