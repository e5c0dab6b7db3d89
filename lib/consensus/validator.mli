(** The 2-round weak validator of the paper's Lemma 3.3 (after Lenzen &
    Sheikholeslami), used to agree on multi-bit values — fingerprints and
    one-counts — where running binary consensus per bit would be both too
    slow and semantically wrong.

    For each correct member [v] it outputs [(same_v, out_v)] with:
    - {e validity}: [out_v] equals some correct member's input, and if all
      correct inputs are equal to [x] then [same_v = true] and
      [out_v = x];
    - {e weak agreement}: if [same_v = true] then [out_u = out_v] for
      every correct member [u].

    Two rounds, [O(committee^2)] messages of [O(logN)] bits — the
    [O(ĉ_g^2)] budget of the lemma. *)

type kind = Input | Lock | Other

type 'm msgs = {
  kind : 'm -> kind;
  same_value : 'm -> 'm -> bool;
  lock : 'm -> 'm;
  lock_none : 'm;
}
(** How a run reads and builds the outer protocol's messages. [kind m]
    is [Lock] only for a lock that carries a value: an empty lock is
    [Other], as is every foreign message. [same_value] compares the
    values two [Input]/[Lock] messages carry, of either kind. [lock m]
    is the lock carrying input [m]'s value. [kind] and [same_value] run
    on every kept message, so they should not allocate. *)

type 'm result = { same : bool; value : 'm }

val run : net:'m Committee_net.t -> msgs:'m msgs -> input:'m -> 'm result
(** [input] is this member's input message, and [value] the [Input] or
    [Lock] message that carries the output. A round tallies the kept
    messages themselves in committee-sized arrays allocated once per
    run: the largest group wins, on equal counts the one seen first. *)
