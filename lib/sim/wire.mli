(** Bit-level message serialisation.

    The model's messages carry [Θ(log N)] bits; rather than asserting
    sizes by arithmetic alone, every protocol message has an actual codec
    built on this module, and the per-message [bits] accounting used by
    {!Metrics} is tested to equal the encoded length exactly.

    Unbounded non-negative integers use Elias-gamma coding (value [v]
    encoded as [γ(v+1)]), which is self-delimiting and costs
    [2·⌊log₂(v+1)⌋ + 1] bits — the "O(log N) bits per field" regime of
    the paper. Fixed-width fields write exactly [width] bits.

    Every operation but the single-bit ones moves whole bytes: a field
    is written into, or read from, the bytes it spans (a partial first
    byte, whole middle bytes, a partial last byte) in one pass, for
    every width and bit offset alike. The bytes produced are exactly
    those of writing each bit in turn, msb first; the test suite keeps
    that bit-at-a-time codec as an oracle and compares the two on
    random streams, truncated and corrupted inputs included. *)

module Writer : sig
  type t

  val create : unit -> t
  val bit_length : t -> int
  val add_bit : t -> bool -> unit

  val add_fixed : t -> int -> width:int -> unit
  (** Write [width] bits of a non-negative value, most significant first,
      into the at most 9 bytes they span.
      @raise Invalid_argument if the value does not fit or width is not
      in [\[0, 62\]]. *)

  val add_gamma : t -> int -> unit
  (** Elias-gamma encode a value [>= 0] (internally shifted by one). The
      [⌊log₂(v+1)⌋] leading zeros are appended in O(1): the buffer is
      zero-filled past the write position by construction, so emitting
      zeros only advances the length. *)

  val add_string : t -> string -> unit
  (** Append the bytes of a string, [8 · length] bits, each byte msb
      first — the same bits as one [add_fixed ~width:8] per byte. A blit
      when the stream is byte-aligned, one shifted store per byte
      otherwise. *)

  val add_subbytes : t -> Bytes.t -> int -> int -> unit
  (** [add_subbytes t b off len] appends bytes [off .. off + len - 1] of
      [b], as {!add_string} appends a string's.
      @raise Invalid_argument if the range is not inside [b]. *)

  val contents : t -> string
  (** The encoded bits, zero-padded to whole bytes. *)

  val byte_length : t -> int
  (** [String.length (contents t)], without the copy. *)

  val reset : t -> unit
  (** Empty the writer for reuse, keeping its buffer. Only the
      [byte_length] bytes written since the last reset are re-zeroed:
      no write sets a bit past the end, so that restores the all-zero
      tail every write relies on. A reset writer produces exactly the
      bytes and [bit_length] of a fresh one. *)

  val unsafe_bytes : t -> Bytes.t
  (** The writer's buffer itself, not a copy: its first [byte_length]
      bytes are [contents t]. Valid until the next write or [reset].
      A caller may overwrite bytes inside that prefix (the socket
      transport patches a frame's length header there, see
      [Frame.write_framed]) but never past it. *)
end

module Reader : sig
  type t

  val of_string : string -> t

  val of_bytes : Bytes.t -> len:int -> t
  (** A reader over the first [len] bytes of a buffer, without copying:
      reads past byte [len] are out of bits exactly as at the end of a
      string, whatever the buffer holds beyond it. The reader reads the
      buffer in place, so a write to it while the reader is in use
      changes what later reads return. Byte strings read from it
      ({!read_string}) are copies.
      @raise Invalid_argument if [len] is outside [\[0, Bytes.length\]]. *)

  val bits_remaining : t -> int

  val position : t -> int
  (** Bits read so far, counted from the start of the input. *)

  val skip : t -> int -> unit
  (** [skip r k] advances past [k] bits without reading them.
      @raise Invalid_argument if fewer than [k] bits remain or [k < 0]. *)

  val unsafe_bytes : t -> Bytes.t
  (** The buffer the reader reads, not a copy: the bit at {!position}
      is bit [position land 7] (msb first) of byte [position lsr 3].
      Only the bits before the reader's bound belong to the input; the
      caller must not write to it. *)

  val within : t -> bits:int -> (t -> 'a) -> 'a
  (** [within r ~bits f] runs [f r] with [r] bounded to its next [bits]
      bits, so a read past them is out of bits, and requires [f] to have
      read exactly those bits. The bound is restored whether [f] returns
      or raises.
      @raise Invalid_argument if fewer than [bits] bits remain, if [f]
      raises it, or ["Wire.Reader.within: short read"] if [f] stops
      short. *)

  val read_bit : t -> bool
  val read_fixed : t -> width:int -> int
  val read_gamma : t -> int
  (** Each read raises [Invalid_argument "Wire.Reader: out of bits"] when
      the input is exhausted, and [read_gamma] raises
      [Invalid_argument "Wire.Reader: gamma"] on a prefix of 62 or more
      zeros (no writer emits one). After a raise the reader's position
      is unspecified. *)

  val read_string : t -> int -> string
  (** [read_string r len] reads [len] whole bytes, the inverse of
      {!Writer.add_string}. The length is checked against
      {!bits_remaining} before anything is allocated.
      @raise Invalid_argument if [len] is negative, or out of bits as
      above. *)
end

(** {2 Message codecs}

    A protocol message type has one codec: a streaming [write]/[read]
    pair over {!Writer}/{!Reader}. The string form every [Msg] module
    also exports is derived from it by these two. *)

val encode_with : (Writer.t -> 'a -> unit) -> 'a -> string * int
(** [encode_with write m]: [m] written into a fresh writer, as its
    zero-padded bytes and exact bit length. *)

val decode_with : (Reader.t -> 'a) -> string -> 'a option
(** [decode_with read s]: [read] over [s], [None] if it raises
    [Invalid_argument]. Bits after the message (the zero padding) are
    ignored. *)

val gamma_bits : int -> int
(** [gamma_bits v] is the exact cost in bits of [Writer.add_gamma _ v]:
    [2·bit_width (v+1) - 1]. *)
