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

type 'v msg = Input of 'v | Lock of 'v option

type 'v result = { same : bool; value : 'v }

val run :
  net:'m Committee_net.t ->
  embed:('v msg -> 'm) ->
  project:('m -> 'v msg option) ->
  equal:('v -> 'v -> bool) ->
  input:'v ->
  'v result
