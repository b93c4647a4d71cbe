(** Hash-chained, append-only log of access-control decisions.

    Sect. 6 motivates "a distributed record of the histories of services
    and principals". The per-service decision log is the service-side half
    of that record: every grant, deny, revoke, suspect and reconcile
    decision is appended with full provenance — the rule that fired, the
    credentials and environmental facts it rested on, and the obs trace
    sequence number it correlates with — and chained with SHA-256 so that
    any later mutation of any byte of any record is detectable.

    Chaining: record [i] stores [prev], the hash of record [i-1] (record 0
    stores a genesis digest derived from the owning service's identifier),
    and [hash = SHA256(prev_raw || payload_i)] where [payload_i] is the
    canonical {!Oasis_cert.Wire} encoding of the record's fields.

    Storage: the log keeps no record values. It lives in one buffer as its
    own textual export — a header line naming the service, then one line
    per record holding the hex payload and the hex chain hash — and every
    reader ({!records}, {!find}, {!verify}) decodes those lines back with
    {!Oasis_cert.Codec.fields_of_string}, which inverts the encoding
    exactly. A service passes in its durable blob, so the chain it resumes
    after a crash is the same bytes it was appending to, and the typed
    history survives the crash with it. {!verify_string} re-verifies an
    export offline — flipping a single byte anywhere in it makes
    verification fail ([oasisctl audit verify --tamper] demonstrates
    this). *)

type decision = Grant | Deny | Revoke | Suspect | Reconcile

val decision_label : decision -> string
(** ["grant"], ["deny"], ["revoke"], ["suspect"], ["reconcile"]. *)

val decision_of_label : string -> decision option

(** One decision with its provenance. *)
type record = {
  seq : int;  (** position in the chain, from 0 *)
  at : float;  (** simulated time of the decision *)
  decision : decision;
  principal : Oasis_util.Ident.t;  (** the party the decision is about *)
  action : string;  (** e.g. ["activate:doctor"], ["invoke:read_record"] *)
  args : Oasis_util.Value.t list;  (** role / privilege parameters *)
  rule : string;  (** canonical text of the rule that fired, or the reason *)
  creds : Oasis_util.Ident.t list;  (** credential ids supporting the decision *)
  env_facts : string list;  (** environmental constraints consulted *)
  trace_seq : int;  (** obs event seq this correlates with; 0 = tracing off *)
  prev : Oasis_crypto.Sha256.digest;
  hash : Oasis_crypto.Sha256.digest;
}

type t

val create : service:Oasis_util.Ident.t -> Buffer.t -> t
(** A fresh, empty chain stored in the given buffer: clears it and writes
    the header line. *)

val append :
  t ->
  at:float ->
  decision:decision ->
  principal:Oasis_util.Ident.t ->
  action:string ->
  ?args:Oasis_util.Value.t list ->
  ?rule:string ->
  ?creds:Oasis_util.Ident.t list ->
  ?env_facts:string list ->
  ?trace_seq:int ->
  unit ->
  record
(** Appends the record's export line to the buffer and returns the record
    as {!records} will decode it. *)

val length : t -> int

val head : t -> Oasis_crypto.Sha256.digest
(** Hash of the most recent record (the genesis digest when empty). *)

val records : t -> record list
(** Every record, oldest first, decoded from the buffer — including those
    appended before a crash and {!resume}. Decoding stops at the first line
    that fails verification, which only a chain resumed without
    verification (the [fail_open_chain] ablation) can hold. *)

val find : t -> seq:int -> record option

val verify : t -> (int, int * string) result
(** Recomputes the whole chain in the buffer from genesis. [Ok n] means
    all [n] records are intact and the chain ends at {!head};
    [Error (seq, why)] names the first record that fails. *)

val export : t -> string
(** The buffer's contents: the textual chain, suitable for writing to a
    file and re-verifying offline. *)

val resume : service:Oasis_util.Ident.t -> Buffer.t -> (t, int * string) result
(** Rebuild a chain from its buffer after a crash: verifies every line
    against the genesis digest for [service] (a chain exported by a
    different service is rejected outright) and returns a log on the same
    buffer whose length and head continue exactly where it stopped.
    [Error (seq, why)] is the fail-closed signal: the durable record was
    tampered with or truncated mid-line, and the service must refuse to
    build on it. *)

val verify_string : string -> (int, int * string) result
(** Verifies an {!export}ed chain without access to the original log.
    [Ok n] = [n] records intact. Any single-byte change to the exported
    string — payload, hash, header or structure — yields [Error]. *)

val tamper : string -> byte:int -> string
(** [tamper s ~byte] flips the low bit of byte [byte mod length] of [s] —
    the adversary move that {!verify_string} must detect, whether the byte
    lands in a payload, a hash, the header or a line separator. *)
