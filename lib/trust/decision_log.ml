module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Hex = Oasis_util.Hex
module Wire = Oasis_cert.Wire
module Codec = Oasis_cert.Codec
module Sha256 = Oasis_crypto.Sha256

type decision = Grant | Deny | Revoke | Suspect | Reconcile

let labels =
  [
    (Grant, "grant");
    (Deny, "deny");
    (Revoke, "revoke");
    (Suspect, "suspect");
    (Reconcile, "reconcile");
  ]

let decision_label d = List.assq d labels
let decision_of_label l = List.find_map (fun (d, l') -> if l = l' then Some d else None) labels

type record = {
  seq : int;
  at : float;
  decision : decision;
  principal : Ident.t;
  action : string;
  args : Value.t list;
  rule : string;
  creds : Ident.t list;
  env_facts : string list;
  trace_seq : int;
  prev : Sha256.digest;
  hash : Sha256.digest;
}

(* The log is its own textual export, held in [buf]: a header line naming
   the owner, then one "<hex payload> <hex chain hash>" line per record.
   Services hand in their durable blob, so the chain is stored exactly
   once; [length] and [head] are the running state [append] chains on.
   Every reader decodes the lines back — hex so the blob survives editors
   and diffs, and so a one-byte tamper is always visible (bad hex parses
   are failures too). *)
type t = { owner : Ident.t; buf : Buffer.t; mutable length : int; mutable head : Sha256.digest }

(* Binding the genesis digest to the service identifier means a chain
   exported by one service can never verify as another's. *)
let genesis owner = Sha256.digest_string ("oasis-decision-log:" ^ Ident.to_string owner)

let header_magic = "oasis-decision-log v1 "

let create ~service buf =
  Buffer.clear buf;
  Buffer.add_string buf header_magic;
  Buffer.add_string buf (Ident.to_string service);
  Buffer.add_char buf '\n';
  { owner = service; buf; length = 0; head = genesis service }

let payload r =
  Wire.encode "decision"
    [
      Wire.Fint r.seq;
      Wire.Ffloat r.at;
      Wire.Fstring (decision_label r.decision);
      Wire.Fident r.principal;
      Wire.Fstring r.action;
      Wire.Fvalues r.args;
      Wire.Fstring r.rule;
      Wire.Fvalues (List.map (fun id -> Value.Id id) r.creds);
      Wire.Fvalues (List.map (fun f -> Value.Str f) r.env_facts);
      Wire.Fint r.trace_seq;
    ]

(* Inverse of [payload]; [None] only for a payload no [append] wrote. *)
let decode ~seq ~prev ~hash body =
  let id = function Value.Id i -> i | _ -> raise Exit in
  let str = function Value.Str s -> s | _ -> raise Exit in
  match Codec.fields_of_string "decision" body with
  | Ok
      Wire.
        [
          Fint seq';
          Ffloat at;
          Fstring label;
          Fident principal;
          Fstring action;
          Fvalues args;
          Fstring rule;
          Fvalues creds;
          Fvalues env_facts;
          Fint trace_seq;
        ]
    when seq' = seq -> (
      match (decision_of_label label, List.map id creds, List.map str env_facts) with
      | Some decision, creds, env_facts ->
          Some
            {
              seq;
              at;
              decision;
              principal;
              action;
              args;
              rule;
              creds;
              env_facts;
              trace_seq;
              prev;
              hash;
            }
      | None, _, _ -> None
      | exception Exit -> None)
  | _ -> None

let chain_hash ~prev body = Sha256.digest_string (Sha256.to_raw_string prev ^ body)

let append t ~at ~decision ~principal ~action ?(args = []) ?(rule = "") ?(creds = [])
    ?(env_facts = []) ?(trace_seq = 0) () =
  let r =
    {
      seq = t.length;
      at;
      decision;
      principal;
      action;
      args;
      rule;
      creds;
      env_facts;
      trace_seq;
      prev = t.head;
      hash = t.head;
    }
  in
  let body = payload r in
  let hash = chain_hash ~prev:t.head body in
  Buffer.add_string t.buf (Hex.encode body);
  Buffer.add_char t.buf ' ';
  Buffer.add_string t.buf (Sha256.to_hex hash);
  Buffer.add_char t.buf '\n';
  t.length <- t.length + 1;
  t.head <- hash;
  { r with hash }

let length t = t.length
let head t = t.head
let export t = Buffer.contents t.buf

(* First index in [i, stop) holding [c], else [stop]. Walks read the
   buffer in place: copying a long chain out of it would double it in
   memory for every read. *)
let rec scan src c i stop = if i < stop && Buffer.nth src i <> c then scan src c (i + 1) stop else i

(* [start, stop) of the next non-blank line at or after [pos]. *)
let rec next_line src pos =
  if pos >= Buffer.length src then None
  else
    let stop = scan src '\n' pos (Buffer.length src) in
    if stop = pos then next_line src (pos + 1) else Some (pos, stop)

(* The one pass over an exported chain that every reader shares: parse the
   header, then check each record line's hash against the chain from the
   owner's genesis and fold [f] over the intact records. [Ok (owner,
   length, head, acc)], or [Error (seq, why, acc)] at the first failing
   line with [acc] folded over the records before it. *)
let walk src ~init f =
  match next_line src 0 with
  | None -> Error (0, "empty chain file", init)
  | Some (start, stop) -> (
      let header = Buffer.sub src start (stop - start) and magic = String.length header_magic in
      if not (String.starts_with ~prefix:header_magic header) then Error (0, "bad header", init)
      else
        match Ident.of_string (String.sub header magic (String.length header - magic)) with
        | None -> Error (0, "unparseable service identifier in header", init)
        | Some owner ->
            let rec go seq prev acc pos =
              match next_line src pos with
              | None -> Ok (owner, seq, prev, acc)
              | Some (start, stop) -> (
                  let sp = scan src ' ' start stop in
                  if sp = stop then Error (seq, "malformed record line", acc)
                  else
                    match Hex.decode (Buffer.sub src start (sp - start)) with
                    | None -> Error (seq, "payload is not valid hex", acc)
                    | Some body ->
                        let hash = chain_hash ~prev body in
                        let stored = Buffer.sub src (sp + 1) (stop - sp - 1) in
                        if not (String.equal (Sha256.to_hex hash) stored) then
                          Error (seq, "chain hash mismatch", acc)
                        else go (seq + 1) hash (f acc ~seq ~prev ~hash body) (stop + 1))
            in
            go 0 (genesis owner) init stop)

let skip () ~seq:_ ~prev:_ ~hash:_ _ = ()

let verify_string s =
  let src = Buffer.create (String.length s) in
  Buffer.add_string src s;
  match walk src ~init:() skip with
  | Ok (_, n, _, ()) -> Ok n
  | Error (seq, why, ()) -> Error (seq, why)

let resume ~service buf =
  match walk buf ~init:() skip with
  | Error (seq, why, ()) -> Error (seq, why)
  | Ok (owner, _, _, ()) when not (Ident.equal owner service) ->
      Error (0, "chain belongs to a different service")
  | Ok (owner, length, head, ()) -> Ok { owner; buf; length; head }

let verify t =
  match resume ~service:t.owner t.buf with
  | Error e -> Error e
  | Ok r when r.length <> t.length || not (Sha256.equal r.head t.head) ->
      Error (r.length, "chain does not end at the log head")
  | Ok r -> Ok r.length

let records t =
  let keep acc ~seq ~prev ~hash body =
    match decode ~seq ~prev ~hash body with Some r -> r :: acc | None -> acc
  in
  match walk t.buf ~init:[] keep with Ok (_, _, _, acc) | Error (_, _, acc) -> List.rev acc

let find t ~seq = List.find_opt (fun r -> r.seq = seq) (records t)

let tamper s ~byte =
  let n = String.length s in
  if n = 0 then s
  else
    let i = ((byte mod n) + n) mod n in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
