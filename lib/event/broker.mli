(** Topic-based publish/subscribe event middleware.

    OASIS "is closely integrated with an active, event-based middleware
    infrastructure ... one service can be notified of a change of state at
    another without any requirement for periodic polling" (Sect. 1, 4;
    ref [2] is the Cambridge Event Architecture). This broker supplies the
    two primitives OASIS needs: asynchronous change notification on named
    event channels, and (via {!Heartbeat}) liveness beats.

    Notifications are delivered after a configurable latency through the
    simulation engine, and counted, so experiments can report event-channel
    traffic separately from RPC traffic. *)

type 'a t
(** A broker carrying payloads of type ['a]. *)

type topic = string
(** Event channels are named; OASIS uses one channel per credential record
    (e.g. ["cr:rmc#17"]). *)

type subscription

val create :
  Oasis_sim.Engine.t ->
  Oasis_util.Rng.t ->
  notify_latency:float ->
  ?jitter:float ->
  ?obs:Oasis_obs.Obs.t ->
  unit ->
  'a t
(** [obs] is the registry publish/notify counters and trace events report
    into — normally the world's shared instance; defaults to a private one
    so standalone brokers behave as before. *)

val obs : 'a t -> Oasis_obs.Obs.t
(** The registry this broker reports into. *)

val subscribe :
  ?replay_retained:bool ->
  'a t ->
  topic ->
  owner:Oasis_util.Ident.t ->
  (topic -> 'a -> unit) ->
  subscription
(** The callback fires once per matching publish, after the notification
    latency. [owner] identifies the subscribing service for statistics and
    debugging. With [replay_retained] (default off) the topic's retained
    event, if any, is also delivered to this subscriber as though it had
    just been published — same latency, same partition filtering. Offline
    credential verification relies on this: a service that installs a
    dependency watch without first asking the issuer must still learn that
    the certificate's channel already carries a revocation tombstone. *)

val unsubscribe : 'a t -> subscription -> unit
(** Idempotent, O(1) amortised: the entry is flagged and swept out of the
    topic bucket once flagged entries outnumber live ones. Publishes in
    flight at unsubscribe time are suppressed at delivery and counted under
    [broker.suppressed{cause=unsubscribed}], so every scheduled
    notification is accounted for: for each publish,
    subscribers-at-publish-time = notified + suppressed. *)

val publish : ?src:Oasis_util.Ident.t -> ?retain:bool -> 'a t -> topic -> 'a -> unit
(** Callable from any context. Delivery order to distinct subscribers of one
    publish follows subscription order; distinct publishes to one subscriber
    arrive in publish order (FIFO per link latency). [src] names the
    publishing node; when given, deliveries are subject to the partition
    filter ({!set_filter}) — publishes without a source are never
    filtered. With [retain] (default off) the event also becomes the
    topic's retained event, replacing any previous one, for subscribers who
    ask for replay; retain it only for events that stay true forever, such
    as a credential record's [Invalidated] notice.

    A publish allocates O(1): the audience is snapshotted by (array, length)
    rather than a list copy, and on jitter-free brokers the whole fan-out
    rides a single engine event instead of one per subscriber. *)

val set_filter : 'a t -> (publisher:Oasis_util.Ident.t -> owner:Oasis_util.Ident.t -> bool) option -> unit
(** Installs a delivery filter, consulted at delivery time for publishes
    that carry a [src]: [true] means the channel from publisher to
    subscriber owner is severed and the notification is suppressed (counted
    under [broker.suppressed{cause=partitioned}]). The world wires this to
    [Fault.is_cut] so partitions cut event channels alongside the
    network. *)

val retained : 'a t -> topic -> reader:Oasis_util.Ident.t -> 'a option
(** The topic's retained event as visible to [reader] right now: [None] if
    nothing was retained or if the partition filter currently severs the
    channel from the retaining publisher to [reader] — a partitioned
    verifier misses the tombstone exactly as it misses the live
    notification. Offline credential verification reads this at
    presentation time, treating the certificate's event channel as a
    push-based revocation list. *)

val subscriber_count : 'a t -> topic -> int
