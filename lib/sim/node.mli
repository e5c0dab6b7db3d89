(** The node runtime every backend shares: how a node program stages its
    outbox, blocks at the round barrier and reads its inbox.

    A node program is a direct-style function over a {!Make.ctx}. Each
    exchange-class call ({!Make.exchange} and friends) writes the round's
    outbox into the node's slot ({!Make.out}) and then performs a
    payload-free effect that suspends the fiber. The backend reads every
    suspended slot, delivers, refills each node's inbox view and resumes
    the fiber with it ({!Make.resume}). The simulator
    ([Repro_sim.Engine.Make]) and the socket host
    ([Repro_net.Socket_net.Host]) both include {!Make}; they differ only
    in how a round's slots travel and how the views get filled.

    The types are concrete so that a backend can fill views and read
    slots; protocols see them through [Repro_net.Network_intf.S], where
    [ctx] and [inbox] are abstract. *)

module type MSG = sig
  type t

  val bits : t -> int
  (** Size accounting for {!Metrics}; the paper's algorithms only use
      [O(log N)]-bit messages and the sizes here make that concrete. *)

  val pp : Format.formatter -> t -> unit
end

module Make (M : MSG) : sig
  type msg = M.t

  (** {1 Inbox views} *)

  type inbox = {
    ib_dst : int;  (** the node this view belongs to *)
    mutable d_src : int array;
    mutable d_msg : M.t array;
    mutable d_len : int;
        (** the {e dedicated} stream: messages delivered to this node
            alone, in entries [\[0, d_len)], ascending source; the
            arrays belong to the view *)
    mutable s_src : int array;
    mutable s_msg : M.t array;
    mutable s_len : int;
        (** the {e shared} stream: the round's broadcasts, one entry per
            broadcasting sender, ascending source; the arrays are the
            round's broadcast table, aliased by every view *)
  }
  (** One node's delivery view. A sender's whole outbox lands in one
      stream, so merging the two yields ascending source order. Valid
      until the node's next exchange-class call: the backend rewinds
      and refills it every round. *)

  val empty_view : int -> inbox
  (** [empty_view dst]: no entries, no arrays. *)

  val push : inbox -> int -> M.t -> unit
  (** [push v src m] appends to [v]'s dedicated stream, growing its
      arrays on demand (they are kept across rounds). *)

  module Inbox : sig
    type t = inbox

    val length : t -> int

    val iter : t -> f:(src:int -> M.t -> unit) -> unit
    (** Ascending source identity. *)

    val fold : t -> init:'a -> f:('a -> src:int -> M.t -> 'a) -> 'a

    val fold_rev : t -> init:'a -> f:('a -> src:int -> M.t -> 'a) -> 'a
    (** [fold] in descending source order: consing in [f] yields a list
        in inbox order. *)

    val pairs : t -> (int * M.t) list
    (** Materialize as [(src, msg)] pairs (ascending [src]); allocates. *)

    val of_pairs_unchecked : dst:int -> (int * M.t) list -> t
    (** Fabricate a free-standing view from explicit [(src, msg)] pairs,
        bypassing every backend. "Unchecked": the ascending-[src]
        delivery invariant is {e not} enforced, which is the point —
        fixture tests use this to feed inbox consumers malformed traffic
        no honest run produces. Not for use inside node programs. *)
  end

  (** {1 Outbox slots} *)

  type out = {
    mutable dst : int array;
    mutable msg : M.t array;
    mutable size : int array;
    mutable len : int;
    mutable fan : bool;
    mutable bcast : bool;
    mutable own_dst : int array;
    mutable own_msg : M.t array;
    mutable own_size : int array;
    mutable memo : M.t array;
    mutable memo_bits : int;
    mutable waiting : bool;
  }
  (** A node's outbox for the round, staged by its exchange-class call
      before it yields. Entries [\[0, len)] of [dst], in emission order,
      each carry [msg.(j)] of [size.(j)] bits; with [fan] set all carry
      [msg.(0)] of [size.(0)] bits. A broadcast is a [fan] over the
      node's [ids] with [bcast] set. An empty outbox has [len = 0] and
      [fan]/[bcast] clear; [waiting] set marks the empty outbox of a
      node suspended in {!wait_for_mail}.

      [dst]/[msg]/[size] point at the slot's [own_*] buffers, which it
      keeps while it runs, except that an {!exchange_sized} batch
      aliases the caller's arrays and a broadcast aliases [ids]: a
      suspended node cannot touch them. [memo]/[memo_bits] remember the
      size of the last fanned message, by physical equality. *)

  val empty_outs : int -> out array
  (** [empty_outs n]: [n] clean slots with no buffers. *)

  val bits_of : out -> M.t -> int
  (** [M.bits], through the slot's one-message memo. *)

  val use_own : out -> int -> int -> M.t -> unit
  (** [use_own o cap cap_msg m] points [o] at its own buffers, grown to
      at least [cap] destinations and [cap_msg] messages ([m] fills
      fresh message cells). Growth drops the old contents. *)

  val release : out -> unit
  (** Give a slot that will never send again its buffers back. *)

  val rewind : out -> unit
  (** Make the slot clean: [len = 0], [fan], [bcast] and [waiting]
      clear. *)

  (** {1 Node programs} *)

  type ctx = {
    id : int;
    ids : int array;
    node_rng : Repro_util.Rng.t;
    current_round : int ref;  (** shared by every node of the run *)
    out : out;  (** the node's slot *)
  }

  val my_id : ctx -> int
  val n : ctx -> int
  val all_ids : ctx -> int array
  val round : ctx -> int
  val rng : ctx -> Repro_util.Rng.t

  (** The exchange-class calls: each stages the outbox in [ctx.out]
      (clean on entry) and suspends until the backend resumes the node
      with its inbox. Contracts as in [Repro_sim.Engine.Make]. *)

  val exchange : ctx -> (int * M.t) list -> inbox
  val multisend : ctx -> dsts:int array -> M.t -> inbox
  (** The slot aliases [dsts] until the node is resumed: the caller
      must not mutate the array while it is suspended. *)

  val broadcast : ctx -> M.t -> inbox
  val skip_round : ctx -> inbox

  val wait_for_mail : ctx -> inbox
  (** Join rounds without sending until one brings the node a message,
      and return that round's inbox, which is never empty: exactly
      [let rec go () = let i = skip_round ctx in if Inbox.length i = 0
      then go () else i], in one suspension. It marks the slot
      [waiting], and a backend must not resume a waiting node while
      {!sleeps} holds; each idle round still stages an empty outbox. *)

  val sleeps : out -> inbox -> bool
  (** [sleeps o v]: the slot [o] is [waiting] and its view [v] (shared
      stream included) is empty, so the backend leaves the node
      suspended this round. *)

  val exchange_sized :
    ctx ->
    dsts:int array ->
    msgs:M.t array ->
    sizes:int array ->
    len:int ->
    inbox
  (** @raise Invalid_argument unless [0 <= len] and [len] is within all
      three arrays. *)

  (** {1 Fibers} *)

  type 'r node_state =
    | Running of {
        mutable k : (inbox, 'r node_state) Effect.Deep.continuation;
      }
        (** suspended at a round barrier, its outbox staged; the record
            is the fiber's one suspension box, allocated at its first
            yield and re-pointed at [k] by every later one *)
    | Finished of 'r  (** returned [r] *)
    | Dead of int  (** out of the run since the given round *)
    | Byz_node  (** runs no program *)

  val start_fiber : (ctx -> 'r) -> ctx -> 'r node_state
  (** Runs the program up to its first barrier (or its return). *)

  val resume :
    out -> (inbox, 'r node_state) Effect.Deep.continuation -> inbox ->
    'r node_state
  (** [resume o k view] rewinds the node's slot [o] and continues it
      with [view] up to its next barrier; a node that returns releases
      [o]. *)
end
