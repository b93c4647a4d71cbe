(* World, Principal and protocol-surface coverage. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Durable = Oasis_core.Durable
module Civ = Oasis_domain.Civ
module Audit = Oasis_trust.Audit
module History = Oasis_trust.History
module Dlog = Oasis_trust.Decision_log
module Fault = Oasis_sim.Fault
module Obs = Oasis_obs.Obs
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident

let test_registry () =
  let world = World.create () in
  let svc = Service.create world ~name:"alpha" ~policy:"initial r <- env:eq(1, 1);" () in
  Alcotest.(check bool) "resolve" true (World.resolve world "alpha" = Some (Service.id svc));
  Alcotest.(check (option string)) "reverse" (Some "alpha")
    (World.service_name world (Service.id svc));
  Alcotest.(check bool) "unknown" true (World.resolve world "beta" = None);
  Alcotest.(check bool) "rebinding raises" true
    (match World.register_service world ~name:"alpha" (Ident.make "x" 0) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_run_proc_detects_deadlock () =
  let world = World.create () in
  Alcotest.(check bool) "deadlock reported" true
    (match
       World.run_proc world (fun () ->
           (* Block on an ivar nobody will ever fill. *)
           Oasis_sim.Proc.read (Oasis_sim.Proc.ivar () : int Oasis_sim.Proc.ivar))
     with
    | _ -> false
    | exception Failure _ -> true)

let test_settle_leaves_future_timers () =
  let world = World.create () in
  let fired = ref false in
  ignore
    (Oasis_sim.Engine.schedule (World.engine world) ~after:100.0 (fun () -> fired := true));
  World.settle world;
  Alcotest.(check bool) "far timer untouched" false !fired;
  Alcotest.(check bool) "clock advanced ~1s" true (World.now world < 2.0);
  World.run world;
  Alcotest.(check bool) "run drains it" true !fired

let test_fresh_ids_distinct () =
  let world = World.create () in
  let a = World.fresh_cert_id world and b = World.fresh_cert_id world in
  Alcotest.(check bool) "distinct" false (Ident.equal a b);
  let p = World.fresh_principal_id world and q = World.fresh_anon_id world in
  Alcotest.(check bool) "namespaces differ" false (String.equal (Ident.tag p) (Ident.tag q))

let test_multiple_sessions_per_principal () =
  let world = World.create () in
  let svc = Service.create world ~name:"svc" ~policy:"initial r <- env:eq(1, 1);" () in
  let p = Principal.create world ~name:"p" in
  let s1 = Principal.start_session p and s2 = Principal.start_session p in
  Alcotest.(check bool) "distinct session keys" false
    (String.equal (Principal.session_key s1) (Principal.session_key s2));
  World.run_proc world (fun () ->
      (match Principal.activate p s1 svc ~role:"r" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "s1: %s" (Protocol.denial_to_string d));
      match Principal.activate p s2 svc ~role:"r" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "s2: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "one RMC per session" 1 (List.length (Principal.session_rmcs s1));
  (* RMCs are session-bound: s1's RMC does not verify under s2's key (the
     issuer would refuse it — see test_security for the end-to-end case). *)
  Alcotest.(check int) "two active roles for same principal" 2
    (List.length (Service.active_roles svc))

let test_policy_errors_contained () =
  (* A rule with an unbound head parameter, or an unknown predicate, is a
     configuration bug: the service must refuse with Bad_request and stay
     alive — never crash the node. The strict-install lint gate would
     refuse this policy outright, so it is turned off here to exercise the
     runtime containment path. *)
  let world = World.create () in
  let svc =
    Service.create world ~name:"svc"
      ~config:{ Service.default_config with strict_install = false }
      ~policy:
        {|
          initial broken_head(u) <- env:eq(1, 1);
          initial broken_env <- env:no_such_predicate(1);
          initial fine <- env:eq(1, 1);
          priv broken_priv(u) <- fine, env:also_missing(u);
        |}
      ()
  in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      (match Principal.activate p s svc ~role:"broken_head" () with
      | Error (Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "unbound head not contained");
      (match Principal.activate p s svc ~role:"broken_env" () with
      | Error (Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "unknown predicate not contained");
      (* The service is still healthy. *)
      (match Principal.activate p s svc ~role:"fine" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "healthy role broken: %s" (Protocol.denial_to_string d));
      match Principal.invoke p s svc ~privilege:"broken_priv" ~args:[ Value.Int 1 ] with
      | Error (Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "privilege policy error not contained")

let test_principal_wallet_management () =
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let p = Principal.create world ~name:"p" in
  let appt =
    Civ.issue civ ~kind:"card" ~args:[] ~holder:(Principal.id p)
      ~holder_key:(Principal.longterm_public p) ()
  in
  Principal.grant_appointment p appt;
  Alcotest.(check int) "wallet" 1 (List.length (Principal.appointments p));
  Principal.drop_appointment p appt.Oasis_cert.Appointment.id;
  Alcotest.(check int) "dropped" 0 (List.length (Principal.appointments p))

let test_principal_node_rejects_non_challenge () =
  let world = World.create () in
  let p = Principal.create world ~name:"p" and q = Principal.create world ~name:"q" in
  let reply =
    World.run_proc world (fun () ->
        Oasis_sim.Network.rpc (World.network world) ~src:(Principal.id p) ~dst:(Principal.id q)
          Protocol.Deactivate_ok)
  in
  match reply with
  | Protocol.Denied (Protocol.Bad_request _) -> ()
  | _ -> Alcotest.fail "principals must refuse non-challenge requests"

let test_civ_audit_extension () =
  (* Sect. 6: the domain's CIV issues and validates audit certificates. *)
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let client = Ident.make "client" 1 and server = Ident.make "server" 1 in
  let cert =
    Civ.record_interaction civ ~client ~server ~client_outcome:Audit.Fulfilled
      ~server_outcome:Audit.Breached
  in
  Alcotest.(check bool) "validates" true (Civ.validate_audit civ cert);
  Alcotest.(check bool) "records virtual time" true (cert.Audit.at = World.now world);
  let laundered = Audit.with_server_outcome cert Audit.Fulfilled in
  Alcotest.(check bool) "tamper rejected" false (Civ.validate_audit civ laundered);
  (* Honest registrar: no fabrication. *)
  Alcotest.(check bool) "fabricate refused" true
    (match Oasis_trust.Registrar.fabricate (Civ.registrar civ) ~client ~server ~at:0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Writes follow the primary. *)
  Civ.set_replica_down civ 0 true;
  Alcotest.(check bool) "primary down blocks audit" true
    (match
       Civ.record_interaction civ ~client ~server ~client_outcome:Audit.Fulfilled
         ~server_outcome:Audit.Fulfilled
     with
    | _ -> false
    | exception Civ.Primary_unavailable -> true)

let test_remote_predicate () =
  (* Sect. 2: a constraint answered by database lookup at another service. *)
  let world = World.create () in
  let registry =
    Service.create world ~name:"registry" ~policy:"initial noop <- env:eq(1, 1);" ()
  in
  Env.declare_fact (Service.env registry) "member";
  let club =
    Service.create world ~name:"club"
      ~policy:"initial insider(u) <- env:member_remote(u);" ()
  in
  Service.register_remote_predicate club ~local_name:"member_remote" ~at:(Service.id registry)
    ~remote_name:"member";
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match
        Principal.activate p s club ~role:"insider" ~args:[ Some (Value.Id (Principal.id p)) ] ()
      with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "non-member admitted");
  Env.assert_fact (Service.env registry) "member" [ Value.Id (Principal.id p) ];
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match
        Principal.activate p s club ~role:"insider" ~args:[ Some (Value.Id (Principal.id p)) ] ()
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "member denied: %s" (Protocol.denial_to_string d));
  (* The lookup really crossed the network. *)
  Alcotest.(check bool) "registry consulted" true
    (Obs.read (World.obs world) "net.rpcs" >= 3);
  (* A dead registry counts as "does not hold", not a crash. *)
  Oasis_sim.Network.set_down (World.network world) (Service.id registry) true;
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match
        Principal.activate p s club ~role:"insider" ~args:[ Some (Value.Id (Principal.id p)) ] ()
      with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "dead registry should deny")

let test_hour_window_role_expires () =
  (* A role gated on hour_between collapses when the window closes — purely
     time-driven deactivation (no fact changes, no revocation). Start at
     16:00; window 9-17. *)
  let world = World.create () in
  World.run_until world (16.0 *. 3600.0);
  let svc =
    Service.create world ~name:"svc"
      ~policy:"initial day_shift <- *env:hour_between(9, 17);" ()
  in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      match Principal.activate p (Principal.start_session p) svc ~role:"day_shift" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "active at 16:00" 1 (List.length (Service.active_roles svc));
  World.run_until world (16.9 *. 3600.0);
  Alcotest.(check int) "active at 16:54" 1 (List.length (Service.active_roles svc));
  World.run_until world (17.1 *. 3600.0);
  World.settle world;
  Alcotest.(check int) "deactivated at 17:06" 0 (List.length (Service.active_roles svc))

(* ---------------- trust robustness (DESIGN.md §16) ---------------- *)

let trust_gate_world ?(band = 0.15) () =
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let policy =
    Printf.sprintf
      "initial customer(u) <- *appt:account(u)@civ ;\n\
       trusted(u) <- *customer(u), *env:trust_score(u) >= 0.6%s ;"
      (if band > 0.0 then Printf.sprintf " ~ %g" band else "")
  in
  let gate = Service.create world ~name:"gate" ~policy () in
  let p = Principal.create world ~name:"subject" in
  let peer = Principal.create world ~name:"peer" in
  let appt =
    Civ.issue civ ~kind:"account"
      ~args:[ Value.Id (Principal.id p) ]
      ~holder:(Principal.id p)
      ~holder_key:(Principal.longterm_public p) ()
  in
  Principal.grant_appointment p appt;
  let s =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        (match Principal.activate p s gate ~role:"customer" () with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "customer denied: %s" (Protocol.denial_to_string d));
        s)
  in
  World.settle world;
  (world, civ, gate, p, s, Principal.id peer)

let interact world civ ~client ~server outcome =
  ignore
    (Civ.record_interaction civ ~client ~server ~client_outcome:outcome
       ~server_outcome:Audit.Fulfilled
      : Audit.t);
  World.settle world

let test_hysteresis_band () =
  let world, civ, gate, p, s, peer = trust_gate_world () in
  let me = Principal.id p in
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  (* (2+1)/(2+2) = 0.75 >= 0.6: the gate grants. *)
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "trusted denied at 0.75: %s" (Protocol.denial_to_string d));
  (* Two breaches drop the score to (2+1)/(4+2) = 0.5 — below the 0.6
     grant gate but inside the 0.15 hold band: the role survives, the
     absorbed flap is counted. *)
  interact world civ ~client:me ~server:peer Audit.Breached;
  interact world civ ~client:me ~server:peer Audit.Breached;
  Alcotest.(check int) "role survives inside the band" 2 (List.length (Service.active_roles gate));
  Alcotest.(check bool) "flaps suppressed counted" true
    (Fixtures.svc_count gate "trust.flaps_suppressed" > 0);
  (* Fresh activations still need the full grant threshold. *)
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> Alcotest.fail "activation must use the grant threshold, not the hold band"
      | Error _ -> ());
  (* Two more breaches: (2+1)/(6+2) = 0.375 < 0.45 — out of the band. *)
  interact world civ ~client:me ~server:peer Audit.Breached;
  interact world civ ~client:me ~server:peer Audit.Breached;
  Alcotest.(check int) "revoked below the band" 1 (List.length (Service.active_roles gate))

(* The δ=0 gate revokes at 0.5 where the banded gate above held on. *)
let test_no_band_flaps () =
  let world, civ, gate, p, s, peer = trust_gate_world ~band:0.0 () in
  let me = Principal.id p in
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "trusted denied at 0.75: %s" (Protocol.denial_to_string d));
  interact world civ ~client:me ~server:peer Audit.Breached;
  interact world civ ~client:me ~server:peer Audit.Breached;
  Alcotest.(check int) "no band: revoked at 0.5" 1 (List.length (Service.active_roles gate));
  Alcotest.(check int) "nothing suppressed" 0 (Fixtures.svc_count gate "trust.flaps_suppressed")

(* Anti-entropy re-delivery of an already-filed certificate must not
   cascade: the score did not move, so nobody is poked and no env-watch
   recheck runs. *)
let test_noop_redelivery_suppressed () =
  let world, civ, gate, p, s, peer = trust_gate_world () in
  let me = Principal.id p in
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "trusted denied: %s" (Protocol.denial_to_string d));
  let cert =
    Civ.record_interaction civ ~client:me ~server:peer ~client_outcome:Audit.Fulfilled
      ~server_outcome:Audit.Fulfilled
  in
  World.settle world;
  let before = Fixtures.svc_count gate "service.env_rechecks" in
  Alcotest.(check bool) "genuine certs recheck the watch" true (before > 0);
  Alcotest.(check bool) "duplicate not filed" false
    (World.file_audit_certificate world cert ~party:me);
  World.settle world;
  Alcotest.(check int) "wallet unchanged" 3 (History.size (World.wallet world me));
  Alcotest.(check int) "no recheck cascade on a no-op poke" before
    (Fixtures.svc_count gate "service.env_rechecks");
  match Obs.value (World.obs world) "trust.notify_suppressed" with
  | Some v -> Alcotest.(check bool) "suppression counted" true (v >= 1.0)
  | None -> Alcotest.fail "trust.notify_suppressed not registered"

(* Registrar crash between the two wallet filings: exactly one wallet
   updated, repaired idempotently by restart anti-entropy. *)
let test_mid_issuance_crash_heals () =
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let a = Ident.make "alice" 1 and b = Ident.make "bob" 1 in
  let cert =
    Civ.record_interaction_crashing civ ~client:a ~server:b ~client_outcome:Audit.Fulfilled
      ~server_outcome:Audit.Fulfilled
  in
  World.settle world;
  Alcotest.(check int) "client wallet filed" 1 (History.size (World.wallet world a));
  Alcotest.(check int) "server wallet missed" 0 (History.size (World.wallet world b));
  Alcotest.(check int) "one pending filing" 1 (Civ.pending_filings civ);
  Alcotest.(check bool) "registrar is down" true
    (match
       Civ.record_interaction civ ~client:a ~server:b ~client_outcome:Audit.Fulfilled
         ~server_outcome:Audit.Fulfilled
     with
    | _ -> false
    | exception Civ.Primary_unavailable -> true);
  Fault.restart (World.fault world) (Civ.id civ);
  World.settle world;
  Alcotest.(check int) "server wallet healed" 1 (History.size (World.wallet world b));
  Alcotest.(check int) "client wallet not double-counted" 1 (History.size (World.wallet world a));
  Alcotest.(check int) "nothing pending" 0 (Civ.pending_filings civ);
  Alcotest.(check bool) "certificate still validates" true (Civ.validate_audit civ cert)

(* Tampering with the durable decision-log export between crash and
   restart: the fail-closed default refuses resume with a distinct error
   and stays down; the fail-open ablation admits the forged chain. *)
let test_chain_tamper_fail_closed () =
  let run_one ~fail_open =
    let world = World.create () in
    let svc =
      Service.create world ~name:"svc"
        ~config:{ Service.default_config with fail_open_chain = fail_open }
        ~policy:"initial r <- env:eq(1, 1);" ()
    in
    let p = Principal.create world ~name:"p" in
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        match Principal.activate p s svc ~role:"r" () with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "activate: %s" (Protocol.denial_to_string d));
    Alcotest.(check bool) "chain nonempty" true (Dlog.length (Service.decision_log svc) > 0);
    Service.crash svc;
    let key = "dlog:" ^ Ident.to_string (Service.id svc) in
    Alcotest.(check bool) "durable blob corrupted" true
      (Durable.corrupt (World.durable world) key ~byte:60);
    svc
  in
  let svc = run_one ~fail_open:false in
  (match Service.restart svc with
  | () -> Alcotest.fail "tampered chain must refuse resume"
  | exception Service.Chain_tampered { service; _ } ->
      Alcotest.(check string) "refusal names the service" "svc" service);
  Alcotest.(check bool) "stays crashed (rolled back)" true (Service.is_crashed svc);
  let ablation = run_one ~fail_open:true in
  (match Service.restart ablation with
  | () -> ()
  | exception Service.Chain_tampered _ -> Alcotest.fail "fail-open ablation must admit");
  Alcotest.(check bool) "ablation resumed" false (Service.is_crashed ablation)

(* The decision chain has one store: the log's export is the durable blob
   byte for byte at every point, and the typed history — decisions taken
   before any number of crash/restart cycles included — decodes back from
   it. *)
let test_chain_history_survives_restarts () =
  let world = World.create () in
  let svc = Service.create world ~name:"svc" ~policy:"initial r <- env:eq(1, 1);" () in
  let p = Principal.create world ~name:"p" in
  let key = "dlog:" ^ Ident.to_string (Service.id svc) in
  let blob_is_export what =
    Alcotest.(check (option string))
      ("export = durable blob " ^ what)
      (Some (Dlog.export (Service.decision_log svc)))
      (Durable.get (World.durable world) key)
  in
  let activate () =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        match Principal.activate p s svc ~role:"r" () with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "activate: %s" (Protocol.denial_to_string d));
    blob_is_export "after a decision"
  in
  blob_is_export "at creation";
  activate ();
  let first = Dlog.records (Service.decision_log svc) in
  Alcotest.(check bool) "a decision before any crash" true (first <> []);
  for _ = 1 to 3 do
    Service.crash svc;
    blob_is_export "after crash";
    Service.restart svc;
    blob_is_export "after restart";
    activate ()
  done;
  let log = Service.decision_log svc in
  let all = Dlog.records log in
  Alcotest.(check int) "every decision decodes" (Dlog.length log) (List.length all);
  Alcotest.(check bool) "pre-crash decisions come back" true
    (List.filteri (fun i _ -> i < List.length first) all = first);
  Alcotest.(check bool) "find ~seq:0 is the first decision" true
    (Dlog.find log ~seq:0 = Some (List.hd first));
  Alcotest.(check bool) "chain verifies" true (Dlog.verify log = Ok (Dlog.length log))

let suite =
  ( "world",
    [
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "run_proc deadlock" `Quick test_run_proc_detects_deadlock;
      Alcotest.test_case "settle semantics" `Quick test_settle_leaves_future_timers;
      Alcotest.test_case "fresh ids" `Quick test_fresh_ids_distinct;
      Alcotest.test_case "multiple sessions" `Quick test_multiple_sessions_per_principal;
      Alcotest.test_case "policy errors contained" `Quick test_policy_errors_contained;
      Alcotest.test_case "wallet" `Quick test_principal_wallet_management;
      Alcotest.test_case "node refuses non-challenge" `Quick
        test_principal_node_rejects_non_challenge;
      Alcotest.test_case "civ audit extension" `Quick test_civ_audit_extension;
      Alcotest.test_case "chain history survives restarts" `Quick
        test_chain_history_survives_restarts;
      Alcotest.test_case "remote predicate" `Quick test_remote_predicate;
      Alcotest.test_case "hour-window deactivation" `Quick test_hour_window_role_expires;
      Alcotest.test_case "hysteresis band holds" `Quick test_hysteresis_band;
      Alcotest.test_case "no band flaps" `Quick test_no_band_flaps;
      Alcotest.test_case "no-op re-delivery suppressed" `Quick test_noop_redelivery_suppressed;
      Alcotest.test_case "mid-issuance crash heals" `Quick test_mid_issuance_crash_heals;
      Alcotest.test_case "chain tamper fail-closed" `Quick test_chain_tamper_fail_closed;
    ] )
