(** Length-prefixed framing for the socket transport.

    A frame is a 4-byte big-endian payload length followed by the
    payload bytes. Reads and writes run through an injectable {!io}
    record so the robustness tests can drive the exact partial-read /
    short-write paths a kernel socket produces, without depending on
    kernel buffer behaviour. *)

exception Protocol_error of string
(** Malformed traffic on an established connection: EOF inside a frame,
    a length prefix above {!max_frame}, or garbage where a frame header
    was expected. Deliberately distinct from [Unix.Unix_error] (the
    transport failing) — both are mapped to a crash of the peer by the
    coordinator. *)

type io = {
  read : Bytes.t -> int -> int -> int;
      (** [read buf pos len] returns the number of bytes read, [0] on
          EOF — [Unix.read] semantics; may return short. *)
  write : Bytes.t -> int -> int -> int;
      (** [write buf pos len] returns the number of bytes written —
          [Unix.single_write] semantics; may write short. *)
}

val io_of_fd : Unix.file_descr -> io
(** Blocking reads/writes on [fd], retrying [EINTR]. *)

val max_frame : int
(** Upper bound on a payload length this implementation accepts or
    emits (16 MiB — far above any round batch at the scales we run,
    far below an allocation that could take the process down). *)

val write_frame : io -> string -> unit
(** @raise Invalid_argument if the payload exceeds {!max_frame}. *)

val read_frame : io -> string
(** @raise Protocol_error on EOF (even at a frame boundary), an
    oversized length prefix, or truncation inside the payload. *)

(** {2 Frames in retained buffers}

    The round loop's form of the two calls above: a frame is built in,
    and sent straight from, a writer kept across rounds, and read into a
    buffer kept across rounds. The bytes on the wire are those of
    {!write_frame}/{!read_frame}. *)

val begin_framed : Repro_sim.Wire.Writer.t -> unit
(** Reset the writer and reserve the 4-byte length header; the frame's
    payload is then written into it with the usual [Wire] calls. *)

val write_framed : io -> Repro_sim.Wire.Writer.t -> unit
(** Write the length into the header reserved by {!begin_framed}, in
    place, and send header and payload from the writer's own buffer:
    the bytes of [write_frame io p], where [p] is what was written after
    [begin_framed].
    @raise Invalid_argument if no header was reserved or the payload
    exceeds {!max_frame}. *)

type inbuf
(** A read buffer kept across frames, grown to the largest frame seen. *)

val inbuf : unit -> inbuf

val read_framed : io -> inbuf -> Repro_sim.Wire.Reader.t
(** Read one frame into the buffer and return a reader bounded to that
    frame's length, not to the buffer's capacity, so bytes left over
    from a longer earlier frame are out of bits. The reader is valid
    until the next [read_framed] on the same buffer.
    @raise Protocol_error as {!read_frame}. *)
