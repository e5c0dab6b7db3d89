(** Synchronous message-passing simulator.

    This implements exactly the model of the paper: a fully connected
    network of [n] nodes, each knowing its own unique identity from the
    original namespace [\[N\]] and the value of [n]; all nodes start
    simultaneously and proceed in lock-step rounds; a message sent in
    round [r] is received at the end of round [r].

    {2 Programming model}

    Honest nodes are written in direct style as ordinary OCaml functions
    over a context: calling {!Make.exchange} hands the node's outbox for
    the current round to the network, blocks (via an effect) until the
    round barrier, and returns the node's inbox. This keeps multi-phase
    protocols — including ones that call sub-protocols such as consensus —
    free of hand-written state machines.

    {2 Failure model}

    - {e Crash} failures are injected by an adaptive adversary ("Eve")
      that observes each round's complete outbox map before delivery — the
      same power as using "execution history up to any specific time
      point" — and may kill a node mid-send, choosing which of its
      current-round messages still get through.
    - {e Byzantine} failures are a static set fixed before execution
      ("Carlo"). Byzantine nodes do not run the honest program; a strategy
      callback emits arbitrary messages for them each round. The engine
      stamps every envelope with its true sender, which is the
      message-authentication assumption (no identity spoofing).

    {2 Addressing}

    In the paper nodes communicate over anonymous links; replies go "back
    through link [i]". We identify link and endpoint identity: envelopes
    carry the (authenticated) source identity and nodes address
    destinations by identity. For the algorithms simulated here the two
    views are interchangeable — a reply by source identity is a reply by
    link, and broadcasts enumerate all links. *)

type 'r node_outcome =
  | Decided of 'r
  | Crashed of int  (** round at which the crash happened *)
  | Byzantine
  | Unfinished  (** engine stopped (max rounds) before the node returned *)

type 'r run_result = {
  outcomes : (int * 'r node_outcome) list;  (** one per identity *)
  metrics : Metrics.t;
}

exception Max_rounds_exceeded of int

type alloc_probe = {
  mutable ap_deliver : float;
      (** the engine's transmit phase: byzantine traffic, crash orders,
          metrics billing, inbox pushes *)
  mutable ap_resume : float;
      (** the node resumes — everything the fibers allocate, protocol
          emission included (a node stages its outbox in place inside
          its exchange-class call) *)
  mutable ap_book : float;
      (** engine round bookkeeping: view install/rewind, hooks *)
}
(** Per-phase minor-word attribution for one run, accumulated across
    rounds. The engine fills every field exactly when the run has one
    shard; runs with more shards leave the probe untouched (domains
    allocate from private minor heaps, a single counter would
    under-report). *)

val alloc_probe : unit -> alloc_probe
(** A fresh all-zero probe. *)

module type MSG = Node.MSG
(** Size accounting and printing; see {!Node.MSG}. *)

module Make (M : MSG) : sig
  type msg = M.t
  (** Alias naming the message type, so the module satisfies
      [Repro_net.Network_intf.S] structurally — protocol wrappers are
      functors over that interface and this engine is their
      deterministic reference backend. *)

  type envelope = { src : int; dst : int; msg : M.t }

  (** {1 Node-side API}

      Everything in this section is {!Node.Make}[ (M)], included: the
      socket host ([Repro_net.Socket_net.Host]) includes the same
      runtime, so both backends stage outboxes, suspend fibers and read
      inboxes with this code. Here [ctx] and [inbox] are abstract; only
      a backend sees their fields. *)

  type ctx

  type inbox
  (** What a round's exchange returns: an allocation-free view over the
      messages delivered to this node, sorted by source identity.

      The view aliases buffers the backend rewinds and refills every
      round — it is only valid until the node's next exchange-class
      call ({!exchange}, {!multisend}, {!broadcast}, {!skip_round},
      {!wait_for_mail}, {!exchange_sized}). Consume it (or copy it out
      with {!Inbox.pairs}/{!Inbox.to_list}) before exchanging again;
      never stash a view across rounds.

      Broadcasts are stored once per {e sender} in a
      round-global table every recipient's view shares, so a broadcast
      round costs O(n) allocations engine-wide instead of O(n²)
      envelope records. *)

  (** Read-only access to an {!inbox}. Iteration order is ascending
      source identity — the same order the former [envelope list] inbox
      carried. [to_list] is the engine's own addition. *)
  module Inbox : sig
    type t = inbox

    val length : t -> int

    val iter : t -> f:(src:int -> M.t -> unit) -> unit

    val fold : t -> init:'a -> f:('a -> src:int -> M.t -> 'a) -> 'a

    val pairs : t -> (int * M.t) list
    (** Materialize as [(src, msg)] pairs (ascending [src]); allocates. *)

    val to_list : t -> envelope list
    (** Materialize as envelopes addressed to this node (ascending
        [src]); allocates. The compatibility escape hatch for consumers
        that need the old representation. *)

    val of_pairs_unchecked : dst:int -> (int * M.t) list -> t
    (** Fabricate a free-standing inbox view from explicit [(src, msg)]
        pairs, bypassing the engine. "Unchecked": the engine's
        ascending-[src] delivery invariant is {e not} enforced, which is
        the point — fixture tests use this to feed inbox consumers
        malformed traffic no honest run produces. Not for use inside
        node programs. *)
  end

  val my_id : ctx -> int
  val n : ctx -> int
  val all_ids : ctx -> int array
  (** The identities behind the node's [n] links (includes [my_id]). *)

  val round : ctx -> int
  (** Number of the round about to be exchanged (0-based). *)

  val rng : ctx -> Repro_util.Rng.t
  (** The node's private randomness, derived from the run seed. *)

  val exchange : ctx -> (int * M.t) list -> inbox
  (** [exchange ctx outbox] sends each [(dst, msg)] in this round and
      returns a view of the messages addressed to this node in the same
      round, sorted by source identity. Must only be called from inside
      a node program run by {!run}.

      Sending to a [dst] outside the participant set is a programming
      error and makes the run raise [Invalid_argument] (misaddressed
      {e Byzantine} traffic, by contrast, is silently dropped and
      counted in [Metrics.byz_misaddressed]). *)

  val multisend : ctx -> dsts:int array -> M.t -> inbox
  (** [multisend ctx ~dsts m] behaves like [exchange] of [m] to each
      destination in [dsts] (in order), but the engine fans the single
      message value out itself: its size is computed once for the whole
      batch, and the node's slot aliases [dsts] rather than copying it,
      as a broadcast aliases the participant array and {!exchange_sized}
      its arrays. The caller must not mutate [dsts] while it is
      suspended in the call; a caller that sends to the same set round
      after round can pass the same array every time. The status-report
      rounds of the renaming protocols are this shape. *)

  val broadcast : ctx -> M.t -> inbox
  (** [broadcast ctx m] = [exchange] of [m] to every link (including the
      node's own). Broadcasts take a fast path through the engine: the
      outbox is a single value, delivered as one shared per-round entry
      every recipient's view reads — O(1) for the sender, O(1) delivered
      structure per round (not per recipient). *)

  val skip_round : ctx -> inbox
  (** Send nothing this round, still observing the round barrier. *)

  val wait_for_mail : ctx -> inbox
  (** Send nothing and observe round barriers until a round delivers
      this node at least one message; return that round's inbox, never
      empty. Exactly [let rec go () = let i = skip_round ctx in if
      Inbox.length i = 0 then go () else i]: the same rounds, outboxes,
      taps, metrics and rng draws. The difference is cost: the node
      stays suspended through the idle rounds, and the engine does not
      resume it until its view is non-empty. *)

  val exchange_sized :
    ctx ->
    dsts:int array ->
    msgs:M.t array ->
    sizes:int array ->
    len:int ->
    inbox
  (** [exchange_sized ctx ~dsts ~msgs ~sizes ~len] behaves like
      {!exchange} of the first [len] [(dsts.(k), msgs.(k))] pairs, but
      the sender supplies each message's wire size up front: the engine
      bills [sizes.(k)] bits without re-encoding.

      {b Contract:} [sizes.(k)] must equal [M.bits msgs.(k)] — the
      engine bills [sizes] on every path (a mid-send victim's surviving
      subset included) and hands them to the tap, while the socket
      backend and the fuzzer's oracle measure [M.bits], so their totals
      agree only under that equality. The arrays belong to the caller and are read
      before the call returns, so a node may reuse them across rounds.
      The verdict rounds of the renaming committees are this shape:
      sizes come from precomputed per-slot tables, making billing O(1)
      per verdict.
      @raise Invalid_argument if [len] is negative or exceeds the
      length of any of the three arrays. *)

  (** {1 Adversaries} *)

  type observation = {
    obs_round : int;
    obs_alive : int list;  (** honest nodes not yet crashed or decided *)
    obs_outboxes : (int * envelope list) list;
        (** this round's honest traffic, before delivery *)
    obs_crashed : int list;
  }

  type crash_order = {
    victim : int;
    delivered : envelope -> bool;
        (** which of the victim's current-round messages still go out;
            the mid-send crash of the model *)
  }

  (** What the adversary does in the round it observed. *)
  type crash_step =
    | Orders of crash_order list
        (** apply these orders; observe the adversary again next round *)
    | Final of crash_order list
        (** apply these orders; never call the adversary again *)

  type crash_adversary = observation -> crash_step
  (** Called once per round before delivery, from round [0] on, until it
      returns [Final]; never after. Stateful strategies close over their
      own state. For each victim the first order wins; orders against
      already-dead or unknown nodes are ignored. A [Final] step's orders
      are applied exactly like an [Orders] step's, so an adversary that
      retires once nothing it could still do is left runs
      byte-identically to one that keeps being observed, and costs
      nothing from then on: the observation, with its envelope list per
      running sender, is only built for an adversary still attached.

      Without [?crash] there is no adversary and no observation is ever
      built. {!Crash.none} is an adversary that observes round [0] once
      and retires with no orders. *)

  (** A Byzantine strategy's sends for one call: entries [\[0, len)] of
      [dst] and [msg], in emission order. Only the strategy writes it. *)
  module Sends : sig
    type t = private {
      mutable dst : int array;
      mutable msg : M.t array;
      mutable len : int;
    }

    val create : unit -> t
    (** An empty buffer. Its arrays grow on demand in {!add} and are
        kept, so a buffer refilled every call stops allocating once it
        has held its largest call. *)

    val clear : t -> unit
    (** Empty the buffer, keeping its arrays. *)

    val add : t -> int -> M.t -> unit
    (** [add b dst msg] appends one send. *)
  end

  type byz_strategy = byz_id:int -> round:int -> inbox:envelope list -> Sends.t
  (** Per-round behaviour of one Byzantine node; the inbox is what the
      network delivered to it last round.

      The strategy owns the buffer it returns and may return the same
      one on every call, for every node it drives: it clears and refills
      it. The buffer's contents are valid until the strategy's next
      call. The engine reads the whole buffer before calling any
      strategy again, copying the deliverable entries into the node's
      slot. Emission order is billing and delivery order: each entry is
      billed as Byzantine traffic, misaddressed ones included, and
      misaddressed entries are then dropped and counted in
      [Metrics.byz_misaddressed]. *)

  (** {1 Running} *)

  val run :
    ids:int array ->
    ?byz:int list * byz_strategy ->
    ?crash:crash_adversary ->
    ?tap:(round:int -> src:int -> dst:int -> bits:int -> M.t -> unit) ->
    ?alloc_probe:alloc_probe ->
    ?on_crash:(round:int -> id:int -> unit) ->
    ?on_decide:(round:int -> id:int -> unit) ->
    ?on_round_end:(round:int -> Metrics.t -> unit) ->
    ?max_rounds:int ->
    ?seed:int ->
    ?shards:int ->
    program:(ctx -> 'r) ->
    unit ->
    'r run_result
  (** Runs one synchronous execution. [ids] are the distinct original
      identities; every identity in [byz] must occur in [ids]. The run is
      deterministic given ([ids], adversaries, [seed]).

      [shards] splits each round's transmit and resume phases across
      OCaml domains: recipient slots are partitioned into contiguous
      ranges ([Repro_util.Shard]) and a reusable pool
      ([Repro_util.Domain_pool]) runs one barrier per phase. Sharding is
      pure mechanism — results are {e bit-identical} for every shard
      count: assignments, metrics (including per-round rows), crash
      billing and the run-trace/tap event streams all match the 1-shard
      execution exactly ([test/test_shard.ml] pins this across
      algorithms, fault schedules and shard counts). There is one round
      loop: with [1] shard (and whenever [n <= 1]) it runs through a
      1-shard pool, which executes each phase inline on the caller — no
      domains, no locking. Defaults to
      [Repro_util.Domain_pool.available ~unset:1]: [1] inside a
      multi-domain trial fan-out, else the [RENAMING_DOMAINS] budget,
      else [1].
      @raise Invalid_argument if [shards < 1].

      [tap ~round ~src ~dst ~bits msg] observes every message handed to
      the network (after the crash adversary's mid-send filter),
      including messages addressed to already-finished or crashed
      recipients: for honest senders these are exactly the messages
      {!Metrics} counts, and [bits] is the size the engine billed for
      that copy, so a tap can cross-check the accounting bit for bit
      without re-measuring. Byzantine messages reach the tap only when
      addressed inside the participant set (misaddressed ones are
      dropped and only counted). The tap call order is part of the
      deterministic contract: ascending sender identity, emission order
      within a sender (a broadcast's emission order is the [ids] array
      order). No record is built per call. Used by [Repro_obs.Trace]
      and by the replay/fuzzing tooling in [lib/check] to produce
      byte-identical execution traces.

      Envelope records are materialized at two points only, where this
      API demands them: for the observation of a crash adversary that
      has not yet returned [Final], and for Byzantine strategy inboxes.
      Delivery never reads them: every exchange-class call stages its
      outbox in the engine's per-sender buffers before the node yields,
      and a mid-send victim's filter is applied once, in ascending
      sender order, by compacting the victim's buffers. A run with a crash
      adversary attached is therefore delivered by the same code as one
      without, and an adversary that observes every round but never
      orders is byte-identical to none in metrics and run-trace output
      (asserted by [test/test_delivery_equiv.ml]).

      The remaining hooks complete the run-trace observability surface
      ([Repro_obs.Trace] plugs into them and the tap; the protocol
      wrappers' [?trace] wires all four); their call order is part of
      the same deterministic contract:
      - [on_crash ~round ~id]: the adversary's order against [id] was
        applied in [round], before that round's delivery.
      - [on_decide ~round ~id]: node [id] returned from its program.
        [round] is the round whose inbox enabled the decision (a node
        that decides without ever exchanging reports round [0]). Fired in
        ascending slot order at the barrier.
      - [on_round_end ~round metrics]: the last event of each round,
        after delivery, resumes and decide notifications; the {!Metrics}
        per-round row for [round] is complete when it fires.

      @raise Max_rounds_exceeded if honest nodes are still running after
      [max_rounds] (default 100_000) rounds — a deadlock guard.
      @raise Invalid_argument on duplicate identities. *)

  (** Canned crash adversaries. All are stateful: build a fresh one per
      run. Each returns [Final] as soon as its remaining behaviour is
      empty: after the last round of its schedule ([scripted],
      [random]) or once its budget is spent (the killers). *)
  module Crash : sig
    val none : crash_adversary
    (** Returns [Final \[\]] at once. Omitting [?crash] is the same run
        without the one round-[0] observation. *)

    val scripted :
      (int * int * [ `All | `Nothing | `Subset of int ]) list ->
      crash_adversary
    (** [scripted \[(round, victim, delivery); ...\]] replays a fully
        explicit crash schedule: at [round], [victim] crashes and its
        final-round outbox is delivered according to [delivery] —
        everything, nothing, or a mid-send subset chosen by a pure hash
        of [(salt, dst)] so the same schedule always drops the same
        envelopes. This is the injection point of the schedule fuzzer
        ([lib/check]): any generated or shrunk schedule replays
        byte-identically through it. *)

    val random :
      rng:Repro_util.Rng.t ->
      f:int ->
      ?horizon:int ->
      ?mid_send_prob:float ->
      unit ->
      crash_adversary
    (** [f] crashes at uniform rounds within [horizon]; victims chosen
        among nodes still alive; with probability [mid_send_prob] a crash
        is mid-send (random subset of the final outbox delivered). *)

    val patient_killer : budget:int -> unit -> crash_adversary
    (** The message-{e maximising} adaptive strategy: tolerate each
        committee generation for one full phase, then crash every member
        at its next announcement (delivering nothing). Every crash Eve
        spends buys the algorithm a full phase of an escalated committee —
        the worst case the O((f+log n)·n·log n) bound prices in. *)

    val committee_killer :
      rng:Repro_util.Rng.t ->
      budget:int ->
      ?partial:bool ->
      unit ->
      crash_adversary
    (** The adaptive strategy the paper's Lemmas 2.4–2.7 reason about:
        crash every node observed broadcasting to all alive nodes (i.e.
        announcing committee membership), until the budget is spent.
        [partial] makes the kills mid-send so different survivors see
        different announcement subsets. *)
  end
end

