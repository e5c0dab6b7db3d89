(** Baseline: full-information flooding renaming.

    The classical structure every prior message-passing renaming shares
    (cf. Chaudhuri–Herlihy–Tuttle [15] in Table 1): every node repeatedly
    broadcasts the set of identities it knows; after enough rounds all
    survivors hold the same set and take the rank of their own identity in
    it — strong {e and} order-preserving.

    Under an adaptive crash adversary, survivors' sets are guaranteed
    identical once some round is crash-free, so [f + 1] rounds tolerate
    [f] crashes (each extra divergence step costs Eve one crash). This is
    the {e cost} profile Table 1's baseline rows embody: Θ(n²) messages
    per round, each carrying up to [n] identities — Ω(n·log N) bits — i.e.
    Õ(n²) messages and Õ(n³) bits against the paper's Õ((f+1)·n) / each
    message O(log N). *)

module Msg : sig
  type t = Known of int list
      (** the sender's current identity set, sorted ascending *)

  val bits : t -> int
  (** Exact encoded size (delta-gamma coding): tested equal to
      [snd (encode m)]. *)

  val write : Repro_sim.Wire.Writer.t -> t -> unit
  val read : Repro_sim.Wire.Reader.t -> t
  (** @raise Invalid_argument on too few bits. *)

  val encode : t -> string * int
  (** [write]'s bytes (zero-padded) and exact bit length. *)

  val decode : string -> t option
  val pp : Format.formatter -> t -> unit
end

module Net : module type of Repro_sim.Engine.Make (Msg)

type params = {
  rounds : [ `Tolerate of int | `Fixed of int ];
      (** [`Tolerate f] runs [f + 1] rounds — correct for up to [f]
          crashes; [`Fixed r] runs exactly [r] rounds. *)
}

val default_params : params
(** [`Tolerate (n - 1)] semantics: resolved against [n] at run time —
    always correct, maximal round cost. *)

val program : params -> Net.ctx -> int

(** The same flooding program over an arbitrary network backend
    ({!Repro_net.Network_intf.S}); the top-level {!program} is the
    instantiation at the simulator's engine. *)
module Make_node (Net : Repro_net.Network_intf.S with type msg = Msg.t) : sig
  val program : params -> Net.ctx -> int
end

val run :
  ?params:params ->
  ?crash:Net.crash_adversary ->
  ?trace:Repro_obs.Trace.t ->
  ?seed:int ->
  ?shards:int ->
  ids:int array ->
  unit ->
  int Repro_sim.Engine.run_result
(** Convenience wrapper around {!Net.run}; a given [trace] records the
    run and is finished before this returns, as in
    {!Crash_renaming.run}, and [shards] passes through to [Engine.run]. *)
