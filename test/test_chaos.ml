(* Chaos: randomised fault schedules (partitions, crash/restart, revocation,
   probes) against the two safety properties of DESIGN.md §11:

     S1  no stale grant: once a supporting credential is revoked, the
         dependent role is deactivated within a propagation bound
         (heartbeat deadline + suspect grace + slack) of the revocation —
         or of the relying service's restart, if it was down — regardless
         of partitions, because fail-closed degradation needs no
         connectivity;
     S2  convergence: once every fault heals, all suspect roles resolve
         (reinstated or revoked) within the grace period.

   The same schedules run against the deliberately broken [fail_open]
   ablation, which must violate S1 on some seed — proving the harness can
   actually catch the bug it exists to catch. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Fault = Oasis_sim.Fault
module Backoff = Oasis_util.Backoff
module Rng = Oasis_util.Rng

let period = 0.5
let deadline = 1.5
let grace = 2.0

(* Detection within [deadline] of the beats stopping, resolution within
   [grace] of detection; the slack covers reconciliation polls, notification
   latency and retry jitter. *)
let bound = deadline +. grace +. 1.0

let chaos_config ~fail_open =
  {
    Service.default_config with
    suspect_grace = grace;
    fail_open;
    retry = { Backoff.default with base = 0.02; cap = 0.2; max_attempts = 4 };
  }

type chaos = {
  world : World.t;
  issuer : Service.t;
  relying : Service.t;
  base_id : Oasis_util.Ident.t;
  derived_id : Oasis_util.Ident.t;
  mutable partitioned : bool;
  mutable revoked_at : float option;
  mutable relying_up_since : float;
  mutable probes : int;
}

let ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "chaos setup denied: %s" (Protocol.denial_to_string d)

let build ~fail_open seed =
  let world = World.create ~seed ~monitoring:(World.Heartbeats { period; deadline }) () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let relying =
    Service.create world ~name:"relying" ~config:(chaos_config ~fail_open)
      ~policy:"derived <- *base@issuer;" ()
  in
  let p = Principal.create world ~name:"p" in
  let base, derived =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        let base = ok (Principal.activate p s issuer ~role:"base" ()) in
        let derived = ok (Principal.activate p s relying ~role:"derived" ()) in
        (base, derived))
  in
  {
    world;
    issuer;
    relying;
    base_id = base.Oasis_cert.Rmc.id;
    derived_id = derived.Oasis_cert.Rmc.id;
    partitioned = false;
    revoked_at = None;
    relying_up_since = 0.0;
    probes = 0;
  }

(* S1, checkable at any instant the relying service is up. *)
let stale_grant c =
  match c.revoked_at with
  | Some t_rev when not (Service.is_crashed c.relying) ->
      let stable_since = Float.max t_rev c.relying_up_since in
      World.now c.world -. stable_since > bound
      && Service.is_valid_certificate c.relying c.derived_id
  | _ -> false

let probe c rng =
  let q = Principal.create c.world ~name:(Printf.sprintf "probe%d" c.probes) in
  c.probes <- c.probes + 1;
  ignore rng;
  World.run_proc c.world (fun () ->
      let s = Principal.start_session q in
      (match Principal.activate q s c.issuer ~role:"base" () with
      | Ok _ | Error _ -> ());
      match Principal.activate q s c.relying ~role:"derived" () with
      | Ok _ | Error _ -> ())

let step c rng =
  World.run_until c.world (World.now c.world +. (0.3 +. Rng.float rng 0.7));
  match Rng.int rng 12 with
  | 0 | 1 ->
      if not c.partitioned then begin
        Fault.partition (World.fault c.world) ~name:"wan"
          [ Service.id c.relying ]
          [ Service.id c.issuer ];
        c.partitioned <- true
      end
  | 2 | 3 ->
      if c.partitioned then begin
        Fault.heal (World.fault c.world) "wan";
        c.partitioned <- false
      end
  | 4 ->
      if not (Service.is_crashed c.relying) then Service.crash c.relying
      else begin
        Service.restart c.relying;
        c.relying_up_since <- World.now c.world
      end
  | 5 ->
      if not (Service.is_crashed c.issuer) then Service.crash c.issuer
      else Service.restart c.issuer
  | 6 | 7 ->
      if c.revoked_at = None then begin
        ignore (Service.revoke_certificate c.issuer c.base_id ~reason:"chaos revoke");
        c.revoked_at <- Some (World.now c.world)
      end
  | 8 | 9 -> probe c rng
  | _ -> ()

let finish c =
  (* Heal everything, then give reconciliation one bound to converge. *)
  Fault.heal_all (World.fault c.world);
  c.partitioned <- false;
  if Service.is_crashed c.issuer then Service.restart c.issuer;
  if Service.is_crashed c.relying then begin
    Service.restart c.relying;
    c.relying_up_since <- World.now c.world
  end;
  World.run_until c.world (World.now c.world +. bound +. 1.0)

(* Runs one seed; returns the violation (if any) instead of asserting, so
   the fail-open ablation can count violations across seeds. *)
let run_schedule ~fail_open seed =
  let c = build ~fail_open seed in
  let rng = Rng.create ((seed * 2654435761) lxor 0x9e3779b9) in
  let steps = 25 + Rng.int rng 15 in
  let violation = ref None in
  for _ = 1 to steps do
    if !violation = None then begin
      step c rng;
      if stale_grant c then
        violation :=
          Some
            (Printf.sprintf "S1: stale grant at t=%.2f (revoked at %.2f)" (World.now c.world)
               (Option.get c.revoked_at))
    end
  done;
  (match !violation with
  | Some _ -> ()
  | None ->
      finish c;
      if stale_grant c then violation := Some "S1: stale grant after final heal";
      if Service.suspect_count c.relying + Service.suspect_count c.issuer > 0 then
        violation := Some "S2: unresolved suspects after heal + grace");
  !violation

let n_seeds = 60

let test_chaos_fail_closed () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:n_seeds ~name:"chaos schedules keep S1+S2"
       QCheck.(int_range 1 100_000)
       (fun seed ->
         match run_schedule ~fail_open:false seed with
         | None -> true
         | Some v -> QCheck.Test.fail_reportf "seed %d: %s" seed v))

let test_chaos_fail_open_detected () =
  (* Test of the test: the same harness must catch the fail-open bug. *)
  let violations = ref 0 in
  for seed = 1 to n_seeds do
    match run_schedule ~fail_open:true seed with
    | Some _ -> incr violations
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fail-open violates safety (%d/%d seeds)" !violations n_seeds)
    true (!violations > 0)

let test_chaos_deterministic () =
  let trace seed =
    let c = build ~fail_open:false seed in
    let rng = Rng.create ((seed * 2654435761) lxor 0x9e3779b9) in
    for _ = 1 to 20 do
      step c rng
    done;
    finish c;
    let reconciled outcome =
      Fixtures.svc_count c.relying ~labels:[ ("outcome", outcome) ] "svc.reconciled"
    in
    Printf.sprintf "t=%.4f sus=%d rein=%d rev=%d probes=%d" (World.now c.world)
      (Fixtures.svc_count c.relying "svc.suspect")
      (reconciled "reinstated") (reconciled "revoked") c.probes
  in
  let traces =
    List.map
      (fun seed ->
        let a = trace seed in
        Alcotest.(check string) (Printf.sprintf "seed %d replays identically" seed) a (trace seed);
        a)
      [ 5; 23; 77 ]
  in
  (* Vacuity guard: the schedules must actually exercise the machinery. *)
  Alcotest.(check bool)
    (Printf.sprintf "chaos produced suspects (%s)" (String.concat " | " traces))
    true
    (List.exists
       (fun t ->
         let contains sub =
           let n = String.length sub and m = String.length t in
           let rec go i = i + n <= m && (String.sub t i n = sub || go (i + 1)) in
           go 0
         in
         not (contains "sus=0"))
       traces)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "fault schedules keep safety (qcheck)" `Slow test_chaos_fail_closed;
      Alcotest.test_case "fail-open ablation is caught" `Slow test_chaos_fail_open_detected;
      Alcotest.test_case "chaos runs are deterministic" `Quick test_chaos_deterministic;
    ] )
