(* The simulated message-passing network. *)

module Engine = Oasis_sim.Engine
module Network = Oasis_sim.Network
module Proc = Oasis_sim.Proc
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng

type msg = Ping | Pong | Echo of int | Echoed of int

let node_id n = Ident.make "node" n

let silent_handler = { Network.on_oneway = (fun ~src:_ _ -> ()); on_rpc = (fun ~src:_ m -> m) }

let make ?(latency = 1.0) () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 1) ~default_latency:latency () in
  (engine, net)

let test_oneway_delivery_and_latency () =
  let engine, net = make () in
  let received = ref None in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    {
      Network.on_oneway = (fun ~src:_ m -> received := Some (m, Engine.now engine));
      on_rpc = (fun ~src:_ m -> m);
    };
  Network.send net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Alcotest.(check bool) "not yet delivered" true (!received = None);
  Engine.run engine;
  (match !received with
  | Some (Ping, t) -> Alcotest.(check (float 1e-9)) "after latency" 1.0 t
  | _ -> Alcotest.fail "wrong delivery");
  let read = Oasis_obs.Obs.read (Network.obs net) in
  Alcotest.(check int) "sent" 1 (read "net.sent");
  Alcotest.(check int) "delivered" 1 (read "net.delivered")

let test_rpc_roundtrip () =
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    {
      Network.on_oneway = (fun ~src:_ _ -> ());
      on_rpc = (fun ~src:_ m -> match m with Echo n -> Echoed (n + 1) | m -> m);
    };
  let result = ref None in
  Proc.spawn engine (fun () ->
      let reply = Network.rpc net ~src:(node_id 0) ~dst:(node_id 1) (Echo 41) in
      result := Some (reply, Engine.now engine));
  Engine.run engine;
  (match !result with
  | Some (Echoed 42, t) -> Alcotest.(check (float 1e-9)) "two legs" 2.0 t
  | _ -> Alcotest.fail "wrong rpc result");
  Alcotest.(check int) "rpcs counted" 1 (Oasis_obs.Obs.read (Network.obs net) "net.rpcs")

let test_rpc_nested () =
  (* Node 1's handler performs its own RPC to node 2 — the Fig. 3 chain. *)
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    {
      Network.on_oneway = (fun ~src:_ _ -> ());
      on_rpc =
        (fun ~src:_ m ->
          match m with
          | Echo n -> Network.rpc net ~src:(node_id 1) ~dst:(node_id 2) (Echo (n * 10))
          | m -> m);
    };
  Network.add_node net (node_id 2)
    {
      Network.on_oneway = (fun ~src:_ _ -> ());
      on_rpc = (fun ~src:_ m -> match m with Echo n -> Echoed n | m -> m);
    };
  let result = ref None in
  Proc.spawn engine (fun () ->
      result := Some (Network.rpc net ~src:(node_id 0) ~dst:(node_id 1) (Echo 7)));
  Engine.run engine;
  (match !result with
  | Some (Echoed 70) -> ()
  | _ -> Alcotest.fail "nested rpc failed");
  Alcotest.(check (float 1e-9)) "four legs" 4.0 (Engine.now engine)

let test_unknown_destination_dropped () =
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  Network.send net ~src:(node_id 0) ~dst:(node_id 9) Ping;
  Engine.run engine;
  let obs = Network.obs net in
  Alcotest.(check int) "dropped" 1 (Fixtures.total obs "net.dropped");
  Alcotest.(check int) "not delivered" 0 (Oasis_obs.Obs.read obs "net.delivered")

let test_down_node () =
  let engine, net = make () in
  let received = ref 0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    { Network.on_oneway = (fun ~src:_ _ -> incr received); on_rpc = (fun ~src:_ m -> m) };
  Network.set_down net (node_id 1) true;
  Alcotest.(check bool) "is_down" true (Network.is_down net (node_id 1));
  Network.send net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Engine.run engine;
  Alcotest.(check int) "down node got nothing" 0 !received;
  Network.set_down net (node_id 1) false;
  Network.send net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Engine.run engine;
  Alcotest.(check int) "healed node receives" 1 !received

let test_down_in_flight () =
  (* Node goes down after the message left: dropped at delivery time. *)
  let engine, net = make () in
  let received = ref 0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    { Network.on_oneway = (fun ~src:_ _ -> incr received); on_rpc = (fun ~src:_ m -> m) };
  Network.send net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  ignore (Engine.schedule engine ~after:0.5 (fun () -> Network.set_down net (node_id 1) true));
  Engine.run engine;
  Alcotest.(check int) "dropped in flight" 0 !received

let test_rpc_to_dead_node_raises () =
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  let raised = ref false in
  Proc.spawn engine (fun () ->
      match Network.rpc net ~src:(node_id 0) ~dst:(node_id 9) Ping with
      | _ -> ()
      | exception Network.Rpc_dropped -> raised := true);
  Engine.run engine;
  Alcotest.(check bool) "Rpc_dropped" true !raised

let test_rpc_timeout () =
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  let timed_out = ref false in
  Proc.spawn engine (fun () ->
      match Network.rpc ~timeout:3.0 net ~src:(node_id 0) ~dst:(node_id 9) Ping with
      | _ -> ()
      | exception Proc.Timeout -> timed_out := true);
  Engine.run engine;
  Alcotest.(check bool) "timeout" true !timed_out;
  Alcotest.(check (float 1e-9)) "after timeout" 3.0 (Engine.now engine)

let test_lossy_link () =
  let engine, net = make () in
  let received = ref 0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    { Network.on_oneway = (fun ~src:_ _ -> incr received); on_rpc = (fun ~src:_ m -> m) };
  Network.set_link net (node_id 0) (node_id 1) ~latency:0.1 ~loss:0.5 ();
  for _ = 1 to 200 do
    Network.send net ~src:(node_id 0) ~dst:(node_id 1) Ping
  done;
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "roughly half lost (%d)" !received)
    true
    (!received > 60 && !received < 140);
  let obs = Network.obs net in
  Alcotest.(check int) "conservation" 200
    (Oasis_obs.Obs.read obs "net.delivered" + Fixtures.total obs "net.dropped")

let test_link_override_latency () =
  let engine, net = make ~latency:5.0 () in
  let at = ref 0.0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    {
      Network.on_oneway = (fun ~src:_ _ -> at := Engine.now engine);
      on_rpc = (fun ~src:_ m -> m);
    };
  Network.set_link net (node_id 0) (node_id 1) ~latency:0.25 ();
  Network.send net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "override latency" 0.25 !at

let test_duplicate_node_raises () =
  let _, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Network.add_node: node#0 already registered") (fun () ->
      Network.add_node net (node_id 0) silent_handler)

let test_fifo_per_link () =
  (* Constant latency implies per-link FIFO delivery. *)
  let engine, net = make () in
  let log = ref [] in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    {
      Network.on_oneway = (fun ~src:_ m -> match m with Echo n -> log := n :: !log | _ -> ());
      on_rpc = (fun ~src:_ m -> m);
    };
  for i = 1 to 10 do
    Network.send net ~src:(node_id 0) ~dst:(node_id 1) (Echo i)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !log)

let suite =
  ( "network",
    [
      Alcotest.test_case "oneway delivery" `Quick test_oneway_delivery_and_latency;
      Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
      Alcotest.test_case "rpc nested" `Quick test_rpc_nested;
      Alcotest.test_case "unknown destination" `Quick test_unknown_destination_dropped;
      Alcotest.test_case "down node" `Quick test_down_node;
      Alcotest.test_case "down in flight" `Quick test_down_in_flight;
      Alcotest.test_case "rpc to dead node" `Quick test_rpc_to_dead_node_raises;
      Alcotest.test_case "rpc timeout" `Quick test_rpc_timeout;
      Alcotest.test_case "lossy link" `Quick test_lossy_link;
      Alcotest.test_case "link override" `Quick test_link_override_latency;
      Alcotest.test_case "duplicate node" `Quick test_duplicate_node_raises;
      Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
    ] )
