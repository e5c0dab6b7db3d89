(** Binary consensus from a {e shared coin} (Rabin-style), an alternative
    to {!Phase_king} inside the committee.

    The Byzantine-resilient renaming algorithm already assumes shared
    random bits; a shared coin is then free, and consensus can run in a
    fixed number of rounds independent of the fault bound: each phase is
    two rounds (votes, then proposals), and a phase with no decision ends
    by adopting the shared coin, which matches the unique proposable value
    with probability 1/2. After [horizon] phases all correct members
    agree with probability [1 - 2^-horizon].

    Trade-off vs {!Phase_king}: phase-king is deterministic and costs
    [3·(t+1)] rounds — cheap for small committees, linear in committee
    size; the coin protocol costs exactly [2·horizon] rounds regardless
    of committee size but fails with (tunable, exponentially small)
    probability. The crossover is measured in bench E10.

    Guarantees for all correct members, assuming symmetric views and
    [|B| <= t = floor((n-1)/3)]:
    - {e validity}: if all correct inputs agree, that value is decided
      (deterministically);
    - {e agreement}: all outputs equal, with probability
      [>= 1 - 2^-horizon];
    - {e lock-step}: every correct member consumes exactly
      [2 · horizon] network rounds.

    Messages are built and read through {!Phase_king.msgs} ([Vote] and
    [Propose]; no [King] message is ever sent). *)

val run :
  net:'m Committee_net.t ->
  msgs:'m Phase_king.msgs ->
  coin:(int -> bool) ->
  horizon:int ->
  input:bool ->
  bool
(** [coin phase] must be derived from shared randomness (and an
    instance-unique nonce) so all correct members see the same flips. *)
