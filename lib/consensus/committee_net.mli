(** Transport for the committee-internal sub-protocols.

    {!Phase_king}, {!Coin_consensus} and {!Validator} run {e inside} a
    node program of the renaming protocol: each of their logical rounds
    is one round of the outer synchronous network. Rather than depending
    on a concrete engine instantiation, they speak through this value,
    which the caller builds once per committee from its network context
    with two closures — a multisend and a silent round that stream the
    round's inbox into a receiver — so any
    {!Repro_net.Network_intf.S} backend runs the same code.

    [members] is the node's committee view. The sub-protocols tolerate
    [t = floor((|members| - 1) / 3)] Byzantine members and require all
    correct members to share the same view — which the renaming protocol
    guarantees by treating membership announcements as transferable
    (see DESIGN.md): a Byzantine candidate is either in everyone's view or
    in no correct node's view. Byzantine members may still equivocate
    arbitrarily {e within} every sub-protocol round.

    {2 A round}

    {!broadcast} or {!silent_round} runs one network round and keeps
    its inbox filtered and deduplicated: messages from senders outside
    the view are dropped, only the first message of each member (in
    inbox order) is kept, so an equivocating or spamming member
    contributes at most one vote, and the kept messages stay in inbox
    order. {!count} and {!fold} read the kept messages until the next
    round. The buffers behind them are allocated once per net, so a
    round allocates nothing in proportion to the committee size. *)

type 'm t

type 'm receiver = src:int -> 'm -> unit
(** Called once per inbox message, in inbox order. *)

val create :
  me:int ->
  members:int list ->
  multisend:(dsts:int array -> 'm -> f:'m receiver -> unit) ->
  skip_round:(f:'m receiver -> unit) ->
  'm t
(** [create ~me ~members ~multisend ~skip_round]: [multisend ~dsts m ~f]
    sends [m] to every identity in [dsts] in one synchronous round and
    feeds the round's inbox to [f]; [skip_round ~f] takes part in the
    round barrier without sending and feeds the inbox to [f]. Over a
    {!Repro_net.Network_intf.S} backend these are
    [Net.Inbox.iter (Net.multisend ctx ~dsts m) ~f] and
    [Net.Inbox.iter (Net.skip_round ctx) ~f]. [members] (which includes
    [me]) is sorted and deduplicated into an array the net keeps for its
    lifetime; every {!broadcast} passes that same array as [dsts], so a
    [multisend] may alias it (as the backends' does) but must not
    mutate it. *)

val me : 'm t -> int

val size : 'm t -> int

val fault_threshold : 'm t -> int
(** [floor((|members| - 1) / 3)]. *)

val quorum : 'm t -> int
(** [|members| - fault_threshold]: the "heard from all correct members"
    threshold. *)

val broadcast : 'm t -> 'm -> unit
(** Send [m] to every member (including self) in one multisend and keep
    the round's filtered, deduplicated inbox. *)

val silent_round : 'm t -> unit
(** Participate in the round barrier without sending (e.g. a non-king in
    the king round) and keep the filtered, deduplicated inbox. *)

val count : 'm t -> ('m -> bool) -> int
(** Number of kept messages of the last round satisfying the
    predicate: the vote counter of every sub-protocol. *)

val fold : 'm t -> init:'a -> f:('a -> src:int -> 'm -> 'a) -> 'a
(** Fold over the kept messages of the last round, in inbox order. *)
