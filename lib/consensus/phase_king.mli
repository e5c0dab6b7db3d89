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

type kind = Vote | Propose | King | Other

type 'm msgs = {
  vote : bool -> 'm;
  propose : bool -> 'm;
  king : bool -> 'm;
  kind : 'm -> kind;
  bit : 'm -> bool;
}
(** How an instance builds and reads the outer protocol's messages,
    shared with {!Coin_consensus}: [kind m] is [Other] for any foreign
    message, and [bit m] is the bit a consensus message carries. A phase
    calls them per kept message and vote, so none should allocate. *)

type 'm counter
(** The vote and proposal counting predicates over one [msgs], built
    once per instance so that a phase allocates no closure. *)

val counter : 'm msgs -> 'm counter

val votes : 'm Committee_net.t -> 'm counter -> bool -> int
(** Kept messages of the last round that are a [Vote] for [b]. *)

val proposals : 'm Committee_net.t -> 'm counter -> bool -> int
(** Kept messages of the last round that are a [Propose] for [b]. *)

val run :
  net:'m Committee_net.t -> msgs:'m msgs -> kings:int list -> input:bool -> bool
(** [run ~net ~msgs ~kings ~input] executes one consensus instance.
    [kings] must contain at least [t + 1] identities agreed by all
    correct members (the shared-randomness king order of the pool);
    extra entries are ignored, as are [Other] messages.

    Allocation is per instance, not per phase: the counter and the king
    fold are built once, and [kings] is walked in place. *)
