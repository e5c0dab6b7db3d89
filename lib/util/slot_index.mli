(** Identity -> slot lookup for a run's participants.

    Both the simulator ([Engine.run]) and the socket hosts keep every
    per-node state in arrays indexed by {e slot}, a participant's
    position in the run's identity array, and resolve each message's
    destination identity to its slot. For the usual compact namespaces
    (every identity in [\[0, 2^23)]) the lookup is one array read; other
    identities fall back to a hash table. Neither [find] allocates. *)

type t

val create : duplicate:(int -> exn) -> int array -> t
(** [create ~duplicate ids] maps [ids.(s)] to [s].
    @raise duplicate [id] for the first identity [id] met twice. *)

val find : t -> int -> int
(** [find t id] is [id]'s slot, or [-1] if [id] is not a participant. *)
