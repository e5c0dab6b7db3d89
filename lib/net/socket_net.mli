(** Multi-process socket backend for {!Network_intf.S}.

    Topology is a star: one {e coordinator} process owns the round
    barrier, message routing and all bit accounting; [n_hosts] {e host}
    processes each run a contiguous slice of the node fibers (the same
    [Repro_util.Shard.range] partition the simulator's shards use) and
    talk to the coordinator over length-prefixed {!Frame}s carrying the
    protocols' existing [Wire] codecs.

    Each round: every host sends one frame batching its slice's
    outboxes (and freshly decided results); the coordinator bills every
    message into the same {!Repro_sim.Metrics} rows the simulator fills
    (per-link accounting is the caller's, through [serve]'s
    [?on_message]), routes deliveries in ascending source identity
    order, and answers each host with its slice's inboxes. A host
    connection failing mid-round maps to [Crashed round] for every node
    still running on it; everyone else keeps going.

    Memory: each link's round frames are built in one writer and read
    into one buffer kept for the whole run, and a host's inbox rows live
    in arrays kept across rounds (see {!Host}).

    Determinism: per-node rngs are [Rng.split] off the seed in slot
    order exactly as the simulator derives them, and delivery order is
    ascending source identity — so a fault-free socket run computes the
    same assignments, message count and bit count as the simulator.
    Wall-clock never feeds back into protocol behaviour. *)

val magic : int
(** Frame-format version and endpoint check: the first field of both
    handshake frames. It changes whenever the frame layout does, so
    mismatched peers fail the handshake instead of misparsing rounds. *)

type config = {
  ids : int array;  (** all participants' identities, slot-indexed *)
  seed : int;  (** run seed; must be non-negative (it crosses the wire) *)
  n_hosts : int;
  extra : string;
      (** opaque application blob shipped to every host at handshake —
          the CLI uses it to carry protocol parameters, so only the
          coordinator command line chooses them *)
}

type result = {
  run : int Repro_sim.Engine.run_result;
      (** outcomes (slot order) + metrics, the shape [Runner.assess]
          and the [lib/check] oracles consume *)
}

val serve :
  listen:Unix.file_descr ->
  config:config ->
  ?max_rounds:int ->
  ?on_message:(src:int -> dst:int -> bits:int -> unit) ->
  unit ->
  result
(** Accept [config.n_hosts] host connections on [listen] (already bound
    and listening), handshake, then run rounds until every node decided
    or crashed. Every copy is billed once per link, as the simulator
    bills it: a broadcast costs its bits on all [n] links.

    [on_message] is the per-link hook: it fires once per billed message
    with the (src, dst) slot indices and the bits, in billing order. The
    coordinator keeps no per-link counters of its own; the CLI wires
    this hook to the [lib/check] oracles, and builds its [--bits-out]
    per-link matrix from it.

    Nodes still running at [max_rounds] (default 100_000) are reported
    [Unfinished]. *)

(** Host-process side: the node programs' network, plus the loop that
    drives them. The node side is the engine's own runtime,
    [Repro_sim.Node.Make (M)], included, so the module satisfies
    {!Network_intf.S} and a protocol's [Make_node] functor applies to it
    directly.

    A slot's inbox view is kept for the whole run: each reply refills
    it in place, the slot's dedicated rows into its dedicated stream and
    the round's broadcast rows, kept once for every slot, as its shared
    stream. A view returned by an exchange-class call is therefore
    valid only until the node's next one ({!Network_intf.S.inbox}'s
    contract). Hosts skip [M.encode] for a message physically equal to
    the previous entry of the same outbox, or to the message at the same
    position of the slot's previous outbox; the memo keeps its own
    copies, so callers may refill their [exchange_sized] arrays in
    place. *)
module Host (M : Network_intf.WIRE_MSG) : sig
  include Network_intf.S with type msg = M.t

  val run :
    fd:Unix.file_descr ->
    host_index:int ->
    program:(extra:string -> ctx -> int) ->
    unit
  (** Handshake on the connected [fd], then run this host's slice of
      fibers to completion. [program] receives the coordinator's
      [config.extra] blob (protocol parameters) before any fiber
      starts. Raises {!Frame.Protocol_error} / [Unix.Unix_error] if the
      coordinator goes away — callers (one process per host) just let
      that kill the process, which the coordinator maps to crashes. *)
end

(** A payload's encoding as it crosses the wire: the protocols'
    [Msg.encode] result and [String.hash bytes]. *)
type enc = { bytes : string; bits : int; hash : int }

val enc_of : string * int -> enc
(** [enc_of (bytes, bits)] adds the hash to an encoding. *)

(** Wire-stream helpers shared by both sides; exposed for the frame
    robustness tests. *)
module Codec : sig
  val add_bytes : Repro_sim.Wire.Writer.t -> string -> unit
  val read_bytes : Repro_sim.Wire.Reader.t -> string

  val add_msg : Repro_sim.Wire.Writer.t -> enc -> unit
  (** [bits], then [bytes].
      @raise Invalid_argument if [bytes] is not [bits] rounded up to
      whole bytes. *)

  val read_msg : Repro_sim.Wire.Reader.t -> enc
  (** [add_msg]'s inverse.
      @raise Frame.Protocol_error if [bits] exceeds the frame's remaining
      bits. *)
end
