(** The protocol-facing network interface.

    The renaming protocols are direct-style per-node programs; this
    module type pins the node-side operations they may use — the round
    barrier ({!S.exchange} and friends block until every live node has
    committed its round), the inbox view, and identity/randomness
    accessors — without naming a transport. Each protocol wrapper in
    [lib/core] exposes a [Make_node] functor over {!S}; backends:

    - [Repro_sim.Engine.Make (M)] — the deterministic in-process
      simulator. Satisfies {!S} structurally (it carries a [type msg]
      alias for this purpose) and remains the reference: adversaries,
      taps, sharding and byte-identical traces all live there.
    - [Socket_net.Host (M)] — the multi-process Unix-socket transport: a
      coordinator process enforces the same lock-step barrier over
      length-prefixed frames and bills per-link bits into the same
      {!Repro_sim.Metrics} rows.

    {2 What the interface pins (and what it doesn't)}

    {e Barrier semantics}: one [exchange]-class call per round; a
    message sent in round [r] is delivered at the end of round [r];
    the inbox is sorted by ascending source identity, with per-source
    emission order preserved. A node that returns stops participating;
    messages addressed to it afterwards are billed but dropped.

    {e Billing equivalence}: every backend bills [M.bits m] (the exact
    encoded size) per delivered-or-dropped message into
    {!Repro_sim.Metrics}, so a fault-free run produces the same
    message/bit totals on every backend.

    {e Determinism scope}: per-node randomness is derived from the run
    seed by [Rng.split] in slot order on every backend, so a fault-free
    run computes identical assignments everywhere. Full trace-level
    byte-identity (envelope order, crash adversaries, sharding) is a
    property of the simulator backend only; the socket backend instead
    pins outcome- and billing-level equality. *)

(** What the engine requires of a message type (size accounting and
    pretty-printing); same shape as [Repro_sim.Engine.MSG]. *)
module type MSG = sig
  type t

  val bits : t -> int
  val pp : Format.formatter -> t -> unit
end

(** What a wire backend additionally requires: the exact codec. All four
    protocol [Msg] modules satisfy this — [bits m = snd (encode m)] is
    part of their tested contract. *)
module type WIRE_MSG = sig
  include MSG

  val encode : t -> string * int
  (** Wire bytes (zero-padded) and the exact bit length. *)

  val decode : string -> t option
end

(** The node-side network interface. A subset of
    [Repro_sim.Engine.Make]'s node-side API (engine.mli's contracts
    apply verbatim); backends with extra members satisfy it
    structurally. *)
module type S = sig
  type msg
  type ctx

  type inbox
  (** A round's delivery view: valid only until the node's next
      [exchange]-class call; iteration is ascending source identity. *)

  module Inbox : sig
    type t = inbox

    val length : t -> int
    val iter : t -> f:(src:int -> msg -> unit) -> unit
    val fold : t -> init:'a -> f:('a -> src:int -> msg -> 'a) -> 'a
    val pairs : t -> (int * msg) list

    val of_pairs_unchecked : dst:int -> (int * msg) list -> t
    (** Fixture seam: fabricate a free-standing view, bypassing the
        backend's delivery invariants. Not for use inside programs. *)
  end

  val my_id : ctx -> int
  val n : ctx -> int

  val all_ids : ctx -> int array
  (** The identities behind the node's [n] links (includes [my_id]). *)

  val round : ctx -> int
  (** Number of the round about to be exchanged (0-based). *)

  val rng : ctx -> Repro_util.Rng.t
  (** The node's private randomness, derived from the run seed. *)

  val exchange : ctx -> (int * msg) list -> inbox
  val multisend : ctx -> dsts:int list -> msg -> inbox
  val broadcast : ctx -> msg -> inbox
  val skip_round : ctx -> inbox

  val exchange_sized :
    ctx -> dsts:int array -> msgs:msg array -> sizes:int array -> len:int ->
    inbox
  (** Caller-supplied sizes; contract as in engine.mli:
      [sizes.(k) = bits msgs.(k)]. *)
end
