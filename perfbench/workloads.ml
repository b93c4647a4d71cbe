(* The three workloads. Each builds a full OASIS world through the public
   API, then exposes one timed operation type. Every operation carries its
   own oracle: a wrong grant raises [Safety_violation] (the run aborts), an
   unexpected denial, a wrong result or an exception counts as failed.

   The seed drives only the operation sequence (which principal acts, which
   badge is revoked); the world itself is built from a fixed seed, so two
   seeds run the same world on different sequences. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Civ = Oasis_domain.Civ
module Engine = Oasis_sim.Engine
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Dlog = Oasis_trust.Decision_log
module Spans = Measure.Spans

exception Safety_violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Safety_violation s)) fmt

type size = Full | Tiny

type instance = {
  world : World.t;
  services : Service.t list;  (** every OASIS service in the world *)
  live_sessions : int;  (** the live set [live_bytes_per_session] divides by *)
  op : int -> bool;  (** timed operation [i]; [false] = failed *)
  restore : int -> bool;  (** untimed follow-up of operation [i]; [false] = failed *)
  probe : int -> unit;  (** traced run only: one call into every layer for a fresh principal *)
  finish : unit -> unit;  (** drives outstanding cascades to completion before the checks *)
  invalidations : (float * (Service.t * Ident.t) list) list ref;
      (** every invalidation issued (virtual time, dependent roles) *)
  collapse_bound_ms : float;  (** the monitoring discipline's propagation bound *)
  samples : (Rmc.t * string) list ref;  (** RMCs and their session keys, for unit-cost replay *)
  badges : Appointment.t list ref;
}

type spec = {
  name : string;
  warmup : int;  (** untimed operations before the timed phase *)
  ops_per_second : int;
      (** timed operations per requested second: sized so a run lasts about
          that long on a 2-core x86-64 host, fixed so counts repeat *)
  population : size -> int;  (** principals with a badge at the end of set-up *)
  inputs : Random.State.t -> population:int -> count:int -> int array;
      (** the whole operation sequence, drawn from the seed before set-up *)
  setup : population:int -> int array -> instance;
}

let uniform rng ~population ~count = Array.init count (fun _ -> Random.State.int rng population)

(* ------------------------------------------------------------------ *)
(* Shared world shape                                                 *)
(* ------------------------------------------------------------------ *)

let world_seed = 12
let notify_latency = 0.001
let gate_policy = "initial member(u) <- *appt:badge(u)@civ ;"
let app_policy = "worker(u) <- *member(u)@gate ;\npriv use(u, k) <- worker(u) ;"

let make_world ~monitoring ~apps =
  let world = World.create ~seed:world_seed ~notify_latency ~monitoring () in
  let civ = Civ.create world ~name:"civ" () in
  let gate = Service.create world ~name:"gate" ~policy:gate_policy () in
  let app name =
    let svc = Service.create world ~name ~policy:app_policy () in
    Service.register_operation svc "use" (fun ~principal:_ args ->
        match args with [ _; Value.Int k ] -> Some (Value.Int k) | _ -> None);
    svc
  in
  let apps =
    if apps = 1 then [ app "app" ] else List.init apps (fun j -> app (Printf.sprintf "app%d" (j + 1)))
  in
  (world, civ, gate, apps)

let keep_sample inst (rmcs, key) =
  if List.length !(inst.samples) < 256 then
    List.iter (fun r -> inst.samples := (r, key) :: !(inst.samples)) rmcs

let issue_badge civ p =
  let badge =
    Spans.span "domain.civ_issue" (fun () ->
        Civ.issue civ ~kind:"badge"
          ~args:[ Value.Id (Principal.id p) ]
          ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ())
  in
  Principal.grant_appointment p badge;
  badge

let enrol world civ name =
  let p = Principal.create world ~name in
  (p, issue_badge civ p)

let activate p s svc role =
  match Spans.span "core.activate" (fun () -> Principal.activate p s svc ~role ()) with
  | Ok rmc -> Some rmc
  | Error _ -> None

(* Inside a process: a fresh session holding member@gate and worker at
   every app, or [None] if any activation was refused. *)
let open_session p ~gate ~apps =
  let s = Principal.start_session p in
  match activate p s gate "member" with
  | None -> (s, None)
  | Some member ->
      let workers = List.filter_map (fun app -> activate p s app "worker") apps in
      if List.length workers = List.length apps then (s, Some (member, workers)) else (s, None)

type invoke_result = Granted | Denied | Wrong_output

let invoke p s app k =
  match
    Spans.span "core.invoke" (fun () ->
        Principal.invoke p s app ~privilege:"use" ~args:[ Value.Id (Principal.id p); Value.Int k ])
  with
  | Ok (Some (Value.Int k')) when k' = k -> Granted
  | Ok _ -> Wrong_output
  | Error _ -> Denied

let logout p s = Spans.span "core.logout" (fun () -> Principal.logout p s)

let dependents ~gate ~apps (member, workers) =
  (gate, member.Rmc.id) :: List.map2 (fun app (w : Rmc.t) -> (app, w.Rmc.id)) apps workers

let all_invalid deps =
  List.for_all (fun (svc, id) -> not (Service.is_valid_certificate svc id)) deps

(* The closing probe of a traced run: a fresh principal goes through every
   layer once — issue, activate, invoke, log out, revoke — then the engine
   advances by [quantum]. *)
let probe_with world civ ~gate ~apps ~quantum inst j =
  let p, badge = enrol world civ (Printf.sprintf "probe%d" j) in
  inst.badges := badge :: !(inst.badges);
  World.run_proc world (fun () ->
      let s, roles = open_session p ~gate ~apps in
      match roles with
      | None -> violation "probe %d: activation refused" j
      | Some (member, workers) ->
          keep_sample inst (member :: workers, Principal.session_key s);
          if invoke p s (List.hd apps) j <> Granted then violation "probe %d: invoke refused" j;
          logout p s);
  if not (Spans.span "domain.civ_revoke" (fun () -> Civ.revoke civ badge.Appointment.id ~reason:"probe"))
  then violation "probe %d: badge revocation refused" j;
  Spans.span "sim.drive" (fun () -> World.run_until world (World.now world +. quantum))

let base_instance world services ~live_sessions ~collapse_bound_ms =
  {
    world;
    services;
    live_sessions;
    op = (fun _ -> true);
    restore = (fun _ -> true);
    probe = (fun _ -> ());
    finish = (fun () -> ());
    invalidations = ref [];
    collapse_bound_ms;
    samples = ref [];
    badges = ref [];
  }

(* ------------------------------------------------------------------ *)
(* session_churn: the write path                                      *)
(* ------------------------------------------------------------------ *)

(* Heartbeat monitoring: a dependent role collapses when its prerequisite's
   beats stop for [deadline]. One operation is a whole session, then a
   fixed think time during which emitters beat and monitors expire. *)
let heartbeat = { World.period = 30.0; deadline = 90.0 }
let think = 0.1

let session_churn =
  let setup ~population:pool order =
    let world, civ, gate, apps = make_world ~monitoring:(World.Heartbeats heartbeat) ~apps:1 in
    let app = List.hd apps in
    let principals = Array.init pool (fun i -> enrol world civ (Printf.sprintf "p%d" i)) in
    let inst =
      base_instance world (gate :: apps) ~live_sessions:pool
        ~collapse_bound_ms:((heartbeat.deadline +. (2.0 *. notify_latency)) *. 1e3)
    in
    let op i =
      let p, _ = principals.(order.(i)) in
      let ok =
        World.run_proc world (fun () ->
            let s, roles = open_session p ~gate ~apps in
            let ok =
              match roles with
              | None -> false
              | Some ((member, workers) as roles) ->
                  let granted = invoke p s app i = Granted in
                  (* Logout revokes member@gate on the spot; worker@app
                     collapses when member's beats stop. *)
                  let workers_at_app = List.tl (dependents ~gate ~apps roles) in
                  inst.invalidations := (World.now world, workers_at_app) :: !(inst.invalidations);
                  if i land 255 = 0 then keep_sample inst (member :: workers, Principal.session_key s);
                  granted
            in
            logout p s;
            ok)
      in
      Spans.span "sim.drive" (fun () -> World.run_until world (World.now world +. think));
      ok
    in
    let finish () =
      (* The last logouts' workers collapse one deadline later. *)
      World.run_until world (World.now world +. heartbeat.deadline +. heartbeat.period)
    in
    inst.badges := Array.to_list (Array.map snd (Array.sub principals 0 (min pool 256)));
    {
      inst with
      op;
      finish;
      probe = (fun j -> probe_with world civ ~gate ~apps ~quantum:think inst j);
    }
  in
  (* Warm-up covers one monitoring deadline, so the timed phase starts with
     the steady population of logged-out workers awaiting collapse. *)
  {
    name = "session_churn";
    warmup = 1_000;
    ops_per_second = 1_200;
    population = (function Full -> 2_000 | Tiny -> 40);
    inputs = uniform;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* invoke_zipf: the read path                                         *)
(* ------------------------------------------------------------------ *)

(* Zipf(s) ranks 1..n, drawn by inverse CDF: rank r is principal r-1. *)
let zipf_draws ~s rng ~population:n ~count =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (Float.of_int (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  Array.init count (fun _ ->
      let u = Random.State.float rng total in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      !lo)

(* A fixed 1% of principals, spread across the Zipf ranks. *)
let revoked_in_setup i = i mod 100 = 50

let change_events_bound_ms = 2.0 *. notify_latency *. 1e3

let open_all world civ ~gate ~apps inst n =
  Array.init n (fun i ->
      let p, badge = enrol world civ (Printf.sprintf "p%d" i) in
      let s, roles = World.run_proc world (fun () -> open_session p ~gate ~apps) in
      match roles with
      | None -> violation "set-up: activation refused for p%d" i
      | Some ((member, workers) as roles) ->
          if i land 63 = 0 then keep_sample inst (member :: workers, Principal.session_key s);
          if List.length !(inst.badges) < 256 then inst.badges := badge :: !(inst.badges);
          (p, s, badge, dependents ~gate ~apps roles))

let invoke_zipf =
  let setup ~population:n draws =
    let world, civ, gate, apps = make_world ~monitoring:World.Change_events ~apps:1 in
    let app = List.hd apps in
    let inst =
      base_instance world (gate :: apps) ~live_sessions:n ~collapse_bound_ms:change_events_bound_ms
    in
    let sessions = open_all world civ ~gate ~apps inst n in
    Array.iteri
      (fun i (_, _, (badge : Appointment.t), deps) ->
        if revoked_in_setup i then begin
          inst.invalidations := (World.now world, deps) :: !(inst.invalidations);
          if not (Civ.revoke civ badge.id ~reason:"set-up") then violation "set-up: revoke refused"
        end)
      sessions;
    World.settle world;
    let op i =
      let k = draws.(i) in
      let p, s, _, _ = sessions.(k) in
      match World.run_proc world (fun () -> invoke p s app i) with
      | Granted when revoked_in_setup k -> violation "invoke granted to revoked p%d" k
      | Wrong_output when revoked_in_setup k -> violation "invoke answered for revoked p%d" k
      | Granted -> true
      | Denied -> revoked_in_setup k
      | Wrong_output -> false
    in
    {
      inst with
      op;
      probe = (fun j -> probe_with world civ ~gate ~apps ~quantum:notify_latency inst j);
    }
  in
  {
    name = "invoke_zipf";
    warmup = 1_000;
    ops_per_second = 4_800;
    population = (function Full -> 10_000 | Tiny -> 200);
    inputs = zipf_draws ~s:1.1;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* revocation_storm: the invalidation path                            *)
(* ------------------------------------------------------------------ *)

(* Steps the engine one event at a time until every dependent role is
   invalid; the roles must not outlive [limit] virtual seconds. *)
let drive_until_collapsed world deps ~limit =
  let engine = World.engine world in
  let t0 = World.now world in
  while not (all_invalid deps) do
    if World.now world -. t0 > limit || not (Engine.step engine) then
      violation "cascade incomplete after %.3f virtual s" (World.now world -. t0)
  done

let revocation_storm =
  let setup ~population:n victims =
    let world, civ, gate, apps = make_world ~monitoring:World.Change_events ~apps:4 in
    let inst =
      base_instance world (gate :: apps) ~live_sessions:n ~collapse_bound_ms:change_events_bound_ms
    in
    let sessions = open_all world civ ~gate ~apps inst n in
    let op i =
      let _, _, (badge : Appointment.t), deps = sessions.(victims.(i)) in
      inst.invalidations := (World.now world, deps) :: !(inst.invalidations);
      if not (Spans.span "domain.civ_revoke" (fun () -> Civ.revoke civ badge.id ~reason:"storm"))
      then false
      else begin
        Spans.span "sim.drive" (fun () -> drive_until_collapsed world deps ~limit:1.0);
        true
      end
    in
    (* Re-issue the badge and re-open the session, so the next revocation of
       this principal finds the same fan-out. *)
    let restore i =
      let v = victims.(i) in
      let p, s, (old : Appointment.t), _ = sessions.(v) in
      Principal.drop_appointment p old.id;
      let badge = issue_badge civ p in
      World.run_proc world (fun () ->
          logout p s;
          match open_session p ~gate ~apps with
          | s, Some roles ->
              sessions.(v) <- (p, s, badge, dependents ~gate ~apps roles);
              true
          | _, None -> false)
    in
    {
      inst with
      op;
      restore;
      probe = (fun j -> probe_with world civ ~gate ~apps ~quantum:notify_latency inst j);
    }
  in
  {
    name = "revocation_storm";
    warmup = 200;
    ops_per_second = 520;
    population = (function Full -> 5_000 | Tiny -> 50);
    inputs = uniform;
    setup;
  }

let all = [ session_churn; invoke_zipf; revocation_storm ]
