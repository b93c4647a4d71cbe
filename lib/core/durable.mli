(** Simulated durable storage (DESIGN.md §16).

    A crash drops a node's in-memory state; what it wrote here survives.
    One store per world, keyed by opaque strings (services prefix their
    own identifier). A service's decision-log chain lives here and nowhere
    else: {!Oasis_trust.Decision_log} appends straight into the {!bucket}
    under ["dlog:<sid>"], and on restart
    {!Oasis_trust.Decision_log.resume} re-verifies that same buffer. *)

type t

val create : unit -> t

val bucket : t -> string -> Buffer.t
(** The live buffer under a key, created empty if absent. Writers append
    to it in place — the write cost is the appended bytes, never the blob
    size — and whatever it holds is what survives a crash. *)

val get : t -> string -> string option

val size : t -> string -> int
(** Blob length in bytes; 0 when absent. *)

val corrupt : t -> string -> byte:int -> bool
(** {!Oasis_trust.Decision_log.tamper} applied to the stored blob, in
    place — the adversary flipping one bit on "disk" while the node is
    down. Returns [false] when there is nothing to corrupt. *)
