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

(** A table of int sequences stored back to back, sequence [l] being
    entries [0 .. length_of t l - 1]: a round's destination lists, its
    batches' payload vectors (entry [j] the payload index for
    destination [j] of the batch's list), or the coordinator's
    (list, vector) pairs. *)
module Lists : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val length : t -> int

  val length_of : t -> int -> int
  val entry : t -> int -> int -> int

  val intern : t -> int array -> int -> int
  (** [intern t a len] is the index of the list [a.(0 .. len - 1)],
      appended as list [length t] when it is new. *)
end

(** A slot's codec memo: by position, a message and its encoding. The
    encodings are kept as their bits zero-padded to whole bytes, in
    fixed-size cells of one arena that lives across rounds: the arena is
    replaced only when the positions outgrow it or an encoding outgrows
    a cell, so remembering a message allocates nothing once the memo has
    grown. Positions are independent: one can be stored without those
    before it. *)
module Memo : sig
  type 'a t

  val create : unit -> 'a t

  val msg : 'a t -> int -> 'a
  (** The message stored at a position; only for a stored one. *)

  val reserve : 'a t -> int -> unit
  (** [reserve t c] makes room for positions [\[0, c)], so storing a
      record of [c] messages grows the memo at most once. *)

  val mem : 'a t -> int -> 'a -> bool
  (** [mem t j m]: position [j] is stored, with [m] itself (physical
      equality). *)

  val holds : 'a t -> int -> Bytes.t -> pos:int -> bits:int -> bool
  (** [holds t j data ~pos ~bits]: position [j] is stored, with an
      encoding of [bits] bits whose padded bytes are those at bit [pos]
      of [data].
      @raise Invalid_argument if those bytes are not inside [data]. *)

  val store : 'a t -> int -> 'a -> Bytes.t -> pos:int -> bits:int -> unit
  (** [store t j m data ~pos ~bits] stores [m] at position [j], with the
      encoding of [bits] bits whose padded bytes start at bit [pos] of
      [data], copied into a cell no other position names.
      @raise Invalid_argument if those bytes are not inside [data], or
      if [j < 0]. *)

  val intern :
    'a t -> Payloads.t -> Repro_sim.Wire.Writer.t ->
    (Repro_sim.Wire.Writer.t -> 'a -> unit) -> prev:int -> int -> 'a -> int
  (** [intern t tbl w write ~prev j m]: [tbl]'s entry for message [m]
      at outbox position [j], whose predecessor is entry [prev]. A
      message physically equal to position [j - 1]'s is [prev], and
      position [j] shares [j - 1]'s encoding, uncopied; one position
      [j] holds, from whatever round, takes its encoding from the memo;
      any other is written into the scratch writer [w] and stored. *)

  val stores : 'a t -> int
  (** Encodings copied into the memo so far.
      Test-only: the send memo's tests count the copies [intern] makes. *)
end
