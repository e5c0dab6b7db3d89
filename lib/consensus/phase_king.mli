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


val projects_to : ('m -> msg option) -> msg -> 'm -> bool
(** [projects_to project want m]: [m] projects to exactly [want]. The
    vote-counting predicate for {!Committee_net.count}, shared with
    {!Coin_consensus}. *)

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
    arriving mid-instance are ignored via [project]. *)
