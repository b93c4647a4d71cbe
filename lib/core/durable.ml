(* Simulated durable storage: string-keyed blobs that survive a node crash
   (crash/restart hooks drop only in-memory state; nothing ever clears
   this store except its owner). A service's decision log appends its
   chain straight into its bucket — the only copy — and resumes from the
   same buffer on restart. [corrupt] is the adversary move for the
   fail-closed resume tests: flip one byte of what is on "disk" while the
   node is down. *)

type t = { blobs : (string, Buffer.t) Hashtbl.t }

let create () = { blobs = Hashtbl.create 16 }

let bucket t key =
  match Hashtbl.find_opt t.blobs key with
  | Some b -> b
  | None ->
      let b = Buffer.create 256 in
      Hashtbl.replace t.blobs key b;
      b

let get t key =
  match Hashtbl.find_opt t.blobs key with
  | Some b -> Some (Buffer.contents b)
  | None -> None

let size t key =
  match Hashtbl.find_opt t.blobs key with Some b -> Buffer.length b | None -> 0

let corrupt t key ~byte =
  match Hashtbl.find_opt t.blobs key with
  | Some b when Buffer.length b > 0 ->
      let data = Oasis_trust.Decision_log.tamper (Buffer.contents b) ~byte in
      Buffer.clear b;
      Buffer.add_string b data;
      true
  | _ -> false
