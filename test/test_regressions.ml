(* Regression tests for the active-security fixes:
   - non-ground negation is a refused request, not a silent "proved"
   - cancelled heartbeat watches release their engine timer
   - decommission releases cache-invalidation subscriptions and the cache
   - rule installation keeps insertion order (first-installed rule wins)
   - fact-change cost follows the reverse index, not the RMC population
   and for the observability-era network/broker fixes:
   - a raising RPC handler fails the round trip instead of stranding it
   - remove_node purges the node's link overrides in both directions
   - drops are attributed to exactly one cause; broker suppression of
     in-flight deliveries after unsubscribe is visible in the registry *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Env = Oasis_policy.Env
module Engine = Oasis_sim.Engine
module Broker = Oasis_event.Broker
module Heartbeat = Oasis_event.Heartbeat
module Cr = Oasis_cert.Credential_record
module Network = Oasis_sim.Network
module Proc = Oasis_sim.Proc
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Value = Oasis_util.Value
module Obs = Oasis_obs.Obs
open Fixtures

(* A negated constraint over an unbound variable must be refused as a bad
   request (negation as failure is only sound on ground instances), while
   the same role pinned to a concrete argument activates normally. The
   lint gate rejects this policy at install (L003), so strict_install is
   off: this test proves the runtime path behind the gate stays sound. *)
let test_nonground_negation_denied () =
  let world = World.create ~seed:11 () in
  let svc =
    Service.create world ~name:"risky"
      ~config:{ Service.default_config with strict_install = false }
      ~policy:"initial risky(u) <- env:!banned(u);" ()
  in
  Env.declare_fact (Service.env svc) "banned";
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      (match Principal.activate p s svc ~role:"risky" () with
      | Error (Protocol.Bad_request _) -> ()
      | Ok _ -> Alcotest.fail "non-ground negation granted"
      | Error d ->
          Alcotest.failf "expected Bad_request, got %s" (Protocol.denial_to_string d));
      ignore
        (ok (Principal.activate p s svc ~role:"risky" ~args:[ Some (Value.Int 1) ] ())));
  Alcotest.(check int) "refusal recorded" 1 (Fixtures.svc_count svc "service.activations_denied")

(* A cancelled watch must cancel its pending engine timer; previously the
   cancel handle was dropped and dead monitors kept a timer in the heap. *)
let test_heartbeat_cancel_releases_timer () =
  let engine = Engine.create () in
  let broker = Broker.create engine (Rng.create 1) ~notify_latency:0.01 () in
  let missed = ref false in
  let monitor =
    Heartbeat.watch broker engine ~topic:"hb" ~deadline:2.5 ~on_miss:(fun () -> missed := true)
  in
  Alcotest.(check bool) "timer armed" true (Engine.pending engine > 0);
  Heartbeat.cancel_watch monitor;
  Engine.run engine;
  Alcotest.(check int) "no timer executed after cancel" 0 (Engine.events_executed engine);
  Alcotest.(check bool) "no miss after cancel" false !missed;
  Alcotest.(check bool) "monitor not missed" false (Heartbeat.missed monitor)

(* Decommissioning a service must drop its validation cache and unsubscribe
   its cache-invalidation watches on other issuers' event channels. *)
let test_decommission_releases_cache_watches () =
  let world = World.create ~seed:13 () in
  let civ = Civ.create world ~name:"authority" () in
  (* The regression is about releasing cache-invalidation watches, which
     only the legacy callback path installs (offline verification does not
     populate the positive cache). *)
  let config = { Service.default_config with offline_verify = false } in
  let svc =
    Service.create world ~name:"club" ~config
      ~policy:"initial member(u) <- *appt:badge(u)@authority;" ()
  in
  let p = Principal.create world ~name:"p" in
  let badge =
    Civ.issue civ ~kind:"badge"
      ~args:[ Value.Id (Principal.id p) ]
      ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
  in
  Principal.grant_appointment p badge;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s svc ~role:"member" ())));
  let topic = Cr.topic_of ~issuer:(Civ.id civ) ~cert_id:badge.Oasis_cert.Appointment.id in
  let broker = World.broker world in
  Alcotest.(check bool) "badge topic watched while active" true
    (Broker.subscriber_count broker topic > 0);
  Alcotest.(check bool) "verdict cached" true
    (fst (Service.cache_occupancy svc) > 0);
  ignore (Service.decommission svc ~reason:"retired");
  World.settle world;
  Alcotest.(check int) "badge topic released" 0 (Broker.subscriber_count broker topic);
  let entries, negative_entries = Service.cache_occupancy svc in
  Alcotest.(check int) "cache emptied" 0 entries;
  Alcotest.(check int) "no cached negatives" 0 negative_entries

(* Rules for the same role must be tried in installation order: the first
   rule binds the unpinned parameter even when a later rule also proves. *)
let test_rule_order_preserved () =
  let world = World.create ~seed:17 () in
  let svc =
    Service.create world ~name:"ordered"
      ~policy:{|
        initial pick(x) <- env:src1(x);
        initial pick(x) <- env:src2(x);
      |}
      ()
  in
  let env = Service.env svc in
  Env.declare_fact env "src1";
  Env.declare_fact env "src2";
  Env.assert_fact env "src1" [ Value.Int 1 ];
  Env.assert_fact env "src2" [ Value.Int 2 ];
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s svc ~role:"pick" ()));
      (* The later rule is still reachable when explicitly pinned. *)
      ignore (ok (Principal.activate p s svc ~role:"pick" ~args:[ Some (Value.Int 2) ] ())));
  let args_granted =
    List.map (fun (_, args, _) -> args) (Service.active_roles_named svc "pick")
  in
  Alcotest.(check bool) "first-installed rule bound the parameter" true
    (List.mem [ Value.Int 1 ] args_granted);
  Alcotest.(check int) "both activations granted" 2 (List.length args_granted)

(* One fact change must re-examine only the RMCs watching that predicate.
   The hospital world holds 5 active RMCs but only treating_doctor watches
   env:assigned; changes to an unwatched predicate must cost nothing. *)
let test_fact_change_cost_indexed () =
  let t = make () in
  let _session = alice_treating t ~patient:7 in
  let env = Service.env t.hospital in
  Env.declare_fact env "unrelated";
  Alcotest.(check int) "one watcher of assigned" 1
    (Service.env_watcher_count t.hospital "assigned");
  Alcotest.(check int) "excluded is unmarked, unwatched" 0
    (Service.env_watcher_count t.hospital "excluded");
  let obs = World.obs t.world in
  let before = Obs.snapshot obs in
  Env.assert_fact env "unrelated" [ Value.Int 1 ];
  let rechecks () =
    Fixtures.svc_delta (Obs.diff before (Obs.snapshot obs)) t.hospital "service.env_rechecks"
  in
  Alcotest.(check int) "unwatched change re-checks nothing" 0 (rechecks ());
  Env.assert_fact env "assigned" [ Value.Id (Principal.id t.alice); Value.Int 999 ];
  Alcotest.(check int) "watched change re-checks exactly the watcher" 1 (rechecks ());
  Alcotest.(check int) "role survived the sentinel change" 1
    (List.length (Service.active_roles_named t.hospital "treating_doctor"))

(* The ablation baseline: with indexing off, the same unwatched change
   re-scans every valid RMC — the cost the index removes. *)
let test_fact_change_cost_linear_baseline () =
  let config = { Service.default_config with Service.index_env_watches = false } in
  let t = make ~config () in
  let _session = alice_treating t ~patient:7 in
  let env = Service.env t.hospital in
  Env.declare_fact env "unrelated";
  let active = List.length (Service.active_roles t.hospital) in
  Alcotest.(check int) "five RMCs active" 5 active;
  let obs = World.obs t.world in
  let before = Obs.snapshot obs in
  Env.assert_fact env "unrelated" [ Value.Int 1 ];
  Alcotest.(check int) "unindexed change re-scans every active RMC" active
    (Fixtures.svc_delta (Obs.diff before (Obs.snapshot obs)) t.hospital "service.env_rechecks")

let counting_handler received =
  { Network.on_oneway = (fun ~src:_ _ -> incr received); on_rpc = (fun ~src:_ m -> m) }

(* A handler that raises used to strand the caller on a never-filled ivar
   (the rpc blocked forever at a fixed virtual time). The round trip must
   fail fast with Rpc_dropped — even under a timeout, since the simulator
   knows the server died — and be accounted under the handler_error cause. *)
let test_rpc_handler_error_fails_fast () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 1) ~default_latency:1.0 () in
  let a = Ident.make "node" 0 and b = Ident.make "node" 1 in
  Network.add_node net a (counting_handler (ref 0));
  Network.add_node net b
    { Network.on_oneway = (fun ~src:_ _ -> ()); on_rpc = (fun ~src:_ _ -> failwith "handler bug") };
  let outcome = ref `Pending in
  Proc.spawn engine (fun () ->
      match Network.rpc net ~src:a ~dst:b () with
      | _ -> outcome := `Replied
      | exception Network.Rpc_dropped -> outcome := `Dropped);
  Engine.run engine;
  (match !outcome with
  | `Dropped -> ()
  | `Replied -> Alcotest.fail "handler exception produced a reply"
  | `Pending -> Alcotest.fail "caller stranded: rpc never completed");
  (* Under a timeout the failure still surfaces when the handler dies, not
     when the timer expires. *)
  let t0 = Engine.now engine in
  let failed_at = ref nan in
  Proc.spawn engine (fun () ->
      match Network.rpc ~timeout:50.0 net ~src:a ~dst:b () with
      | _ -> Alcotest.fail "handler exception produced a reply (timeout mode)"
      | exception Network.Rpc_dropped -> failed_at := Engine.now engine
      | exception Proc.Timeout -> Alcotest.fail "waited for the timeout instead of failing fast");
  Engine.run engine;
  Alcotest.(check bool) "failed as soon as the handler died" true (!failed_at -. t0 < 50.0);
  let obs = Network.obs net in
  Alcotest.(check int) "counted as handler_error" 2
    (Obs.read obs ~labels:[ ("cause", "handler_error") ] "net.dropped");
  Alcotest.(check int) "no drop under another cause" 2 (Fixtures.total obs "net.dropped")

(* remove_node used to leave the node's link overrides behind, so a later
   node reusing the ident inherited a dead node's link profile. The purge
   must cover both directions. *)
let test_remove_node_purges_links () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 1) ~default_latency:1.0 () in
  let a = Ident.make "node" 0 and b = Ident.make "node" 1 in
  let got_a = ref 0 and got_b = ref 0 in
  Network.add_node net a (counting_handler got_a);
  Network.add_node net b (counting_handler got_b);
  Network.set_link net a b ~latency:0.1 ~loss:1.0 ();
  Network.set_link net b a ~latency:0.1 ~loss:1.0 ();
  Network.send net ~src:a ~dst:b ();
  Engine.run engine;
  Alcotest.(check int) "fully lossy link drops" 0 !got_b;
  Alcotest.(check int) "loss attributed to link_loss" 1
    (Obs.read (Network.obs net) ~labels:[ ("cause", "link_loss") ] "net.dropped");
  Network.remove_node net b;
  let got_b' = ref 0 in
  Network.add_node net b (counting_handler got_b');
  Network.send net ~src:a ~dst:b ();
  Network.send net ~src:b ~dst:a ();
  Engine.run engine;
  Alcotest.(check int) "reused ident gets the default a->b link" 1 !got_b';
  Alcotest.(check int) "reverse direction purged too" 1 !got_a

(* Every drop carries exactly one cause, and conservation (sent =
   delivered + dropped over all causes) holds. *)
let test_drop_causes_sum_to_legacy_total () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 3) ~default_latency:1.0 () in
  let a = Ident.make "node" 0 and b = Ident.make "node" 1 and c = Ident.make "node" 2 in
  let got = ref 0 in
  Network.add_node net a (counting_handler got);
  Network.add_node net b (counting_handler got);
  Network.add_node net c (counting_handler got);
  Network.send net ~src:a ~dst:(Ident.make "node" 9) ();
  Network.set_down net c true;
  Network.send net ~src:c ~dst:a ();
  Network.set_down net c false;
  Network.send net ~src:a ~dst:c ();
  ignore (Engine.schedule engine ~after:0.5 (fun () -> Network.set_down net c true));
  Network.send net ~src:a ~dst:b ();
  Engine.run engine;
  let obs = Network.obs net in
  let cause c = Obs.read obs ~labels:[ ("cause", c) ] "net.dropped" in
  Alcotest.(check int) "dst_missing" 1 (cause "dst_missing");
  Alcotest.(check int) "src_down" 1 (cause "src_down");
  Alcotest.(check int) "in_flight_down" 1 (cause "in_flight_down");
  let dropped = Fixtures.total obs "net.dropped" in
  Alcotest.(check int) "dropped = per-cause sum" 3 dropped;
  Alcotest.(check int) "conservation" (Obs.read obs "net.sent")
    (Obs.read obs "net.delivered" + dropped)

(* An unsubscribe while a publish is in flight suppresses the delivery;
   the accounting must show it: for each publish, subscribers at publish
   time = notified + suppressed. *)
let test_broker_inflight_unsubscribe_accounted () =
  let engine = Engine.create () in
  let broker = Broker.create engine (Rng.create 1) ~notify_latency:1.0 () in
  let got = ref 0 in
  let owner = Ident.make "svc" 1 in
  let s1 = Broker.subscribe broker "t" ~owner (fun _ _ -> incr got) in
  let _s2 = Broker.subscribe broker "t" ~owner (fun _ _ -> incr got) in
  Broker.publish broker "t" ();
  Broker.unsubscribe broker s1;
  Engine.run engine;
  Alcotest.(check int) "one callback ran" 1 !got;
  let obs = Broker.obs broker in
  Alcotest.(check int) "published" 1 (Obs.read obs "broker.published");
  Alcotest.(check int) "notified" 1 (Obs.read obs "broker.notified");
  Alcotest.(check int) "in-flight suppression visible" 1 (Fixtures.total obs "broker.suppressed")

let suite =
  ( "regressions",
    [
      Alcotest.test_case "non-ground negation refused" `Quick test_nonground_negation_denied;
      Alcotest.test_case "heartbeat cancel releases timer" `Quick
        test_heartbeat_cancel_releases_timer;
      Alcotest.test_case "decommission releases cache watches" `Quick
        test_decommission_releases_cache_watches;
      Alcotest.test_case "rule order preserved" `Quick test_rule_order_preserved;
      Alcotest.test_case "fact-change cost, indexed" `Quick test_fact_change_cost_indexed;
      Alcotest.test_case "fact-change cost, linear baseline" `Quick
        test_fact_change_cost_linear_baseline;
      Alcotest.test_case "rpc handler error fails fast" `Quick test_rpc_handler_error_fails_fast;
      Alcotest.test_case "remove_node purges links" `Quick test_remove_node_purges_links;
      Alcotest.test_case "drop causes sum to legacy total" `Quick
        test_drop_causes_sum_to_legacy_total;
      Alcotest.test_case "broker in-flight unsubscribe accounted" `Quick
        test_broker_inflight_unsubscribe_accounted;
    ] )
