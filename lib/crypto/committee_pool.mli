(** The shared committee-candidate pool of the Byzantine-resilient
    algorithm (Section 3.1, "Committee election").

    Using shared randomness, every identity in the original namespace
    [\[N\]] becomes a committee {e candidate} independently with
    probability [p0]. Because the random bits are shared, all correct
    nodes compute exactly the same pool; the actual committee seen by a
    node is then the subset of candidates that announced themselves
    (ELECT), which Byzantine candidates may do inconsistently.

    The module also fixes the shared king order used by the phase-king
    consensus inside the committee — another artifact of shared
    randomness that all correct nodes agree on. *)

type t

val create : seed:int -> namespace:int -> p0:float -> t
(** [create ~seed ~namespace ~p0] derives the pool over [\[1, namespace\]].
    Deterministic in all three arguments. *)

val namespace : t -> int
val p0 : t -> float
val members : t -> int list
(** Candidate identities, ascending. *)

val size : t -> int
val mem : t -> int -> bool
(** Candidacy of an identity; [false] outside [\[1, namespace\]]. *)

val king_order : t -> int list
(** A shared pseudo-random permutation of the candidates; phase-king
    consensus takes its kings from the front. *)

val kings_among : t -> int list -> int list
(** [kings_among t view] is [view]'s candidates in king order: the
    king order filtered to [view], in one scan of it. [view] must be
    ascending (a committee view, deduplicated and sorted). *)

val fault_threshold : t -> int
(** [t = floor((|pool| - 1) / 3)], the number of Byzantine candidates the
    committee sub-protocols tolerate. *)

val paper_p0 : n:int -> epsilon0:float -> float
(** The paper's [p0 = 8 log n / ((1 - 3 eps0) eps0^2 n)], clamped to
    [\[0, 1\]]. Asymptotically meaningful; for small [n] it saturates at 1
    (every identity a candidate). *)
