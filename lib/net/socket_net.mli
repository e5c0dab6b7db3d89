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

    Frame layout: each round frame carries a payload table, a
    payload-vector table and a destination-list table, all
    content-interned, so each distinct payload, vector and destination
    list crosses a link once per round. A host names each outbox by
    table indices: a broadcast by its payload, a fan (one message to
    every destination of a list) by its list and payload, a batch by its
    list and a vector of one payload per destination. The coordinator
    merges the hosts' tables into round tables and answers each host
    with the payloads, vectors and lists its reply names, restricted to
    the host's slots, the round's broadcasts once, and one record per
    fan or batch sender: a fan to the committee crosses each link once,
    not once per copy, and so does a verdict vector every member sends.

    Memory: each link's round frames are built in one writer and read
    into one buffer kept for the whole run, both sides keep their
    tables in buffers kept across rounds ({!Round_tables}), and a
    host's inbox rows live in arrays kept across rounds (see {!Host}).
    No payload becomes a string on the way: the coordinator interns
    each where it lies in the frame and copies its bytes only into its
    table's arena, and hosts write and read messages in place with the
    protocols' [write]/[read].

    Determinism: per-node rngs are [Rng.split] off the seed in slot
    order exactly as the simulator derives them, and delivery order is
    ascending source identity — so a fault-free socket run computes the
    same assignments, message count and bit count as the simulator.
    Wall-clock never feeds back into protocol behaviour. *)

val magic : int
(** Frame-format version and endpoint check: the first field of both
    handshake frames. It changes whenever the frame layout does, so
    mismatched peers fail the handshake instead of misparsing rounds.
    Test-only: the transport tests' fake peers write it into the
    handshake frames they forge. *)

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
  bytes_read : int;
      (** bytes read from the hosts, handshakes and frame headers included *)
  bytes_written : int;  (** bytes written to the hosts, likewise *)
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
    with the (src, dst) slot indices and the bits, in ascending source
    identity, then emission order (a broadcast on links [0 .. n-1]).
    Without it the coordinator bills each outbox in bulk and never
    walks its copies. It keeps no per-link counters of its own; the CLI
    wires this hook to the [lib/check] oracles, and builds its
    [--bits-out] per-link matrix from it.

    Nodes still running at [max_rounds] (default 100_000) are reported
    [Unfinished]. *)

(** Host-process side: the node programs' network, plus the loop that
    drives them. The node side is the engine's own runtime,
    [Repro_sim.Node.Make (M)], included, so the module satisfies
    {!Network_intf.S} and a protocol's [Make_node] functor applies to it
    directly.

    A slot's inbox view is kept for the whole run: each reply refills
    it in place, each record's copies into the dedicated streams of its
    list's running slots and the round's broadcast rows, kept once for
    every slot, as its shared stream. A view returned by an
    exchange-class call is therefore valid only until the node's next
    one ({!Network_intf.S.inbox}'s contract).

    Payloads cross in place, through a codec memo per slot for each
    direction that keeps messages with their encodings in byte arenas
    kept across rounds. A host writes each message it must encode with
    [M.write] into one scratch writer kept for the run, and copies the
    bytes into the slot's send memo. It skips [M.write] for a message
    physically equal to the previous entry of the same outbox, or to
    the message at the same position of the slot's previous outbox
    (whatever round stored it); the memo keeps its own copies, so
    callers may refill their [exchange_sized] arrays in place. A reply
    payload is resolved at its first use by a row or record: if the
    sender's receive memo holds the same bit length and bits at that
    position, the message read from them then is delivered again,
    physically; otherwise it is read with [M.read] straight from the
    frame, bounded to its declared bits, and remembered. A payload no
    row or record names is read all the same, so a malformed reply
    fails as it would if every payload were read. *)
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
