(** Remote validation caching (Sect. 4).

    "An OASIS-aware service will validate a certificate presented as an
    argument via callback to the issuer. The service may cache the
    certificate and the result of validation in order to reduce the
    communication overhead of repeated callback. This requires an event
    channel so that the issuer can notify the service should the certificate
    be invalidated for any reason."

    Two kinds of verdict are cached:
    - {b positive}: a callback answered "valid"; the caller must hold an
      invalidation watch on the issuer's event channel so the entry can be
      retired when the certificate dies.
    - {b negative}: the issuer announced invalidation over that very watch.
      Revocation is permanent in OASIS (re-activation mints a fresh
      certificate id), so the negative verdict is final and later
      presentations of the dead certificate are refused without any further
      callback.

    A plain [false] callback answer is {e not} cached: RMC validation
    depends on the presenter's session key (a stolen certificate presented
    by a thief fails, while the owner's presentation would succeed), so a
    negative wire verdict is not a property of the certificate id alone.
    Experiment E3 measures the round trips this cache saves. *)

type t

type verdict = Valid | Invalid

val create : ?obs:Oasis_obs.Obs.t -> ?labels:Oasis_obs.Obs.label list -> unit -> t
(** Hit/miss/invalidation counters register into [obs] (default: a private
    registry) under [vcache.*] with the given [labels] — callers owning
    several caches distinguish them with e.g. [("service", name)]. *)

val cache_valid : t -> Oasis_util.Ident.t -> unit
(** Records a positive callback verdict for a certificate id. *)

val lookup : t -> Oasis_util.Ident.t -> verdict option
(** [Some Valid] / [Some Invalid] if a verdict is cached (counts a hit /
    negative hit); [None] means the caller must perform the callback
    (counts a miss). *)

val invalidate : t -> Oasis_util.Ident.t -> unit
(** Called on an invalidation event from the issuer's channel. Converts the
    entry (present or not) into a cached negative verdict. Idempotent. *)

val drop : t -> Oasis_util.Ident.t -> unit
(** Retires a positive entry without recording a negative verdict: the
    verdict became {e unknown} (issuer unreachable, heartbeat silence), not
    {e false}. The next presentation performs the callback again. Cached
    negatives are left in place — revocation stays permanent. *)

val clear : t -> unit

val occupancy : t -> int * int
(** [(positive, negative)]: certificates currently cached as valid, and
    invalidated certificates remembered. Counted by a walk of the table on
    each call; the hit/miss/invalidation totals live in the registry. *)
