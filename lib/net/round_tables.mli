(** The socket backend's per-round tables, shared by the coordinator and
    the hosts ({!Socket_net}).

    A round frame names payloads and destination lists by their index
    in the frame's payload and list tables, which are content-interned
    in first-seen order: each distinct payload and each distinct list
    is stored once per round. Both tables live in buffers kept across
    rounds and reset by [clear], and interning looks entries up in an
    open-addressing index of ints, so once the buffers have grown a
    round allocates nothing for its tables. *)

(** A growable int buffer, kept across rounds. Entries [\[0, len)] of
    [a] are the contents. *)
module Ibuf : sig
  type t = { mutable a : int array; mutable len : int }

  val create : unit -> t
  val clear : t -> unit
  val push : t -> int -> unit
end

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a len fill] is [a] if it holds [len] entries, else a copy of
    [a] at least twice as long, new cells set to [fill]. *)

(** A round's payload table. Entry [g] is a payload of [bits t g] bits,
    kept as its bits zero-padded to whole bytes in one retained arena. A
    payload is hashed and compared where it lies, at any bit offset of
    any buffer (a frame being parsed, an encoding a host remembers), and
    its bytes are copied into the arena only when no entry holds them.
    Two payloads are the same entry when their bit lengths and padded
    bytes are equal. *)
module Payloads : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val length : t -> int
  val bits : t -> int -> int

  val intern : t -> Bytes.t -> pos:int -> bits:int -> int
  (** [intern t data ~pos ~bits] is the entry of the [bits]-bit payload
      whose padded bytes start at bit [pos] of [data], appended as entry
      [length t] when it is new.
      @raise Invalid_argument if those bytes are not inside [data]. *)

  val add_entry : Repro_sim.Wire.Writer.t -> t -> int -> unit
  (** Entry [g] as a frame carries it: its bit length (Elias gamma),
      then its padded bytes. *)

  val read_entry : Repro_sim.Wire.Reader.t -> t -> int
  (** [add_entry]'s inverse: read a payload at the reader's position and
      intern it in place, with no copy unless it is new.
      @raise Invalid_argument if the payload runs past the frame. *)
end

(** A round's destination-list table: int sequences stored back to
    back, list [l] being entries [0 .. length_of t l - 1]. *)
module Lists : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val length : t -> int

  val start : t -> int -> int
  (** Offset of list [l]'s first entry among all the table's entries
      (so [start t (length t)] is their total). *)

  val length_of : t -> int -> int
  val entry : t -> int -> int -> int

  val intern : t -> int array -> int -> int
  (** [intern t a len] is the index of the list [a.(0 .. len - 1)],
      appended as list [length t] when it is new. *)
end
