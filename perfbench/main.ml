(* The end-to-end benchmark: one workload per process, one closed-loop
   client, a fixed number of operations. See README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
     main.exe --selfcheck

   Untraced runs print the end-to-end metrics; traced runs add spans,
   runtime GC events and unit-cost replays, and print the per-layer
   metrics. The last line of standard output is the JSON result. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Durable = Oasis_core.Durable
module Engine = Oasis_sim.Engine
module Obs = Oasis_obs.Obs
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Rmc = Oasis_cert.Rmc
module Codec = Oasis_cert.Codec
module Signed = Oasis_cert.Signed
module Schnorr = Oasis_crypto.Schnorr
module Sha256 = Oasis_crypto.Sha256
module Dlog = Oasis_trust.Decision_log
module W = Workloads
module Spans = Measure.Spans

(* Set-up is repeated at least [setup_min_reps] times, and while the
   repetitions total under [setup_min_s] (cheap set-ups get more samples),
   up to [setup_max_reps]; [setup_s] is their median. *)
let setup_min_reps = 3
let setup_max_reps = 15
let setup_min_s = 2.0
let probe_principals = 64
let trace_block = 32
let timed_blocks = 10

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* ------------------------------------------------------------------ *)
(* Reading the layers between phases                                  *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  obs : (string * float) list;
  events : int;
  durable_bytes : int;
  dlog_records : int;
  gc : Measure.gc;
}

(* Where a service mirrors its decision-log chain in the durable store. *)
let chain_key svc = "dlog:" ^ Ident.to_string (Service.id svc)

let chain_bytes (inst : W.instance) =
  let durable = World.durable inst.world in
  List.fold_left (fun acc svc -> acc + Durable.size durable (chain_key svc)) 0 inst.services

(* Live bytes after compaction, with the durable store counted at the
   length of its blobs rather than at their buffers' capacity: a buffer
   doubling that happens to land inside a measured window would otherwise
   read as a step of the whole blob's size. *)
let held_bytes (inst : W.instance) =
  let live = Measure.live_bytes () in
  let store = Obj.reachable_words (Obj.repr (World.durable inst.world)) * (Sys.word_size / 8) in
  live -. Float.of_int store +. Float.of_int (chain_bytes inst)

let dlog_records (inst : W.instance) =
  List.fold_left (fun acc svc -> acc + Dlog.length (Service.decision_log svc)) 0 inst.services

(* The GC counters are read last on the way in and first on the way out,
   so the snapshot's own allocation stays outside the measured interval. *)
let snapshot_before inst =
  let obs = Obs.metric_values (World.obs inst.W.world) in
  let events = Engine.events_executed (World.engine inst.world) in
  let durable_bytes = chain_bytes inst and dlog_records = dlog_records inst in
  { obs; events; durable_bytes; dlog_records; gc = Measure.gc_now () }

let snapshot_after inst =
  let gc = Measure.gc_now () in
  {
    obs = Obs.metric_values (World.obs inst.W.world);
    events = Engine.events_executed (World.engine inst.world);
    durable_bytes = chain_bytes inst;
    dlog_records = dlog_records inst;
    gc;
  }

(* Sum of every registry series named [name], whatever its labels. *)
let series snap name =
  let braced = name ^ "{" in
  List.fold_left
    (fun acc (key, v) -> if key = name || String.starts_with ~prefix:braced key then acc +. v else acc)
    0.0 snap.obs

let delta a b name = series b name -. series a name

(* ------------------------------------------------------------------ *)
(* End-of-run oracle                                                  *)
(* ------------------------------------------------------------------ *)

(* Every service's chain re-verifies from genesis; every invalidation's
   dependent roles are invalid and were revoked within the monitoring
   bound. Returns the largest revoke-to-collapse time, virtual ms. *)
let check_end (inst : W.instance) =
  let revoked_at = Hashtbl.create 4096 in
  List.iter
    (fun svc ->
      let log = Service.decision_log svc in
      (match Dlog.verify log with
      | Ok n when n = Dlog.length log -> ()
      | Ok n -> W.violation "%s: chain verifies %d of %d records" (Service.service_name svc) n (Dlog.length log)
      | Error (seq, why) -> W.violation "%s: chain broken at %d: %s" (Service.service_name svc) seq why);
      List.iter
        (fun (r : Dlog.record) ->
          match (r.decision, r.creds) with
          | Dlog.Revoke, [ id ] when not (Hashtbl.mem revoked_at (Service.id svc, id)) ->
              Hashtbl.replace revoked_at (Service.id svc, id) r.at
          | _ -> ())
        (Dlog.records log))
    inst.services;
  List.fold_left
    (fun worst (t0, deps) ->
      if not (W.all_invalid deps) then W.violation "a dependent role outlived its revoked prerequisite";
      List.fold_left
        (fun worst (svc, id) ->
          match Hashtbl.find_opt revoked_at (Service.id svc, id) with
          | None -> W.violation "no revoke decision for %s" (Ident.to_string id)
          | Some at ->
              let ms = (at -. t0) *. 1e3 in
              if ms > inst.collapse_bound_ms +. 1e-9 then
                W.violation "collapse took %.3f virtual ms, bound %.3f" ms inst.collapse_bound_ms;
              Float.max worst ms)
        worst deps)
    0.0 !(inst.invalidations)

let check_heap (inst : W.instance) =
  let engine = World.engine inst.world in
  let heap = Engine.heap_size engine and pending = Engine.pending engine in
  if heap > (2 * pending) + 256 then
    W.violation "timer heap not O(live): %d slots for %d pending" heap pending

(* ------------------------------------------------------------------ *)
(* Unit costs replayed on the run's own artifacts                     *)
(* ------------------------------------------------------------------ *)

let replay_rounds = 8

(* Mean microseconds per call of [f] over [items], [replay_rounds] times. *)
let unit_us items f =
  let n = Array.length items in
  if n = 0 then failwith "unit-cost replay: no artifacts";
  let t0 = Measure.now_ns () in
  for _ = 1 to replay_rounds do
    Array.iter (fun x -> if not (f x) then W.violation "replayed artifact failed to verify") items
  done;
  Measure.seconds_since t0 *. 1e6 /. Float.of_int (n * replay_rounds)

let replays (inst : W.instance) =
  let authority = World.authority inst.world in
  let address = Signed.address authority in
  let chain issuer =
    match Signed.chain_for authority issuer with Some c -> c | None -> W.violation "issuer without chain"
  in
  let rmcs = Array.of_list !(inst.samples) in
  let badges = Array.of_list !(inst.badges) in
  let signed =
    Array.map
      (fun ((r : Rmc.t), key) ->
        let c = chain r.issuer in
        match Schnorr.of_digest r.signature with
        | Some sg -> (c.Signed.cert.subject_pk, Rmc.signing_bytes ~principal_key:key r, sg)
        | None -> W.violation "RMC without a Schnorr signature")
      rmcs
  in
  let keypair = Schnorr.generate (Rng.create 7) and sign_rng = Rng.create 8 in
  let export =
    match Durable.get (World.durable inst.world) (chain_key (List.hd inst.services)) with
    | Some s -> s
    | None -> W.violation "no durable chain"
  in
  (* A verifiable prefix of the gate's chain: the header and up to 2000
     records. *)
  let lines = String.split_on_char '\n' export in
  let prefix_lines = List.filteri (fun i _ -> i <= 2000) lines |> List.filter (( <> ) "") in
  let prefix = String.concat "\n" prefix_lines ^ "\n" in
  let records = List.length prefix_lines - 1 in
  let record_lines = Array.of_list (List.tl prefix_lines) in
  let kb = Float.of_int (Array.fold_left (fun acc l -> acc + String.length l) 0 record_lines) /. 1024.0 in
  let sha_us = unit_us record_lines (fun l -> ignore (Sha256.digest_string l); true) in
  let engine = Engine.create () in
  let timers = Array.init 4096 Float.of_int in
  [
    m "crypto.schnorr_verify_us" "us"
      (unit_us signed (fun (public, bytes, sg) -> Schnorr.verify ~public bytes sg));
    m "crypto.schnorr_sign_us" "us"
      (unit_us signed (fun (_, bytes, _) ->
           ignore (Schnorr.sign ~secret:keypair.Schnorr.secret sign_rng bytes);
           true));
    m "crypto.sha256_us_per_kb" "us" (sha_us *. Float.of_int (Array.length record_lines) /. kb);
    m "cert.verify_rmc_us" "us"
      (unit_us rmcs (fun ((r : Rmc.t), key) ->
           Signed.verify_rmc ~address ~chain:(chain r.issuer) ~principal_key:key r));
    m "cert.verify_appointment_us" "us"
      (unit_us badges (fun (a : Oasis_cert.Appointment.t) ->
           Signed.verify_appointment ~address ~chain:(chain a.issuer) ~now:0.0 a));
    m "cert.codec_rmc_roundtrip_us" "us"
      (unit_us rmcs (fun ((r : Rmc.t), _) ->
           match Codec.rmc_of_string (Codec.rmc_to_string r) with
           | Ok r' -> r' = r
           | Error _ -> false));
    m "sim.schedule_cancel_us" "us"
      (unit_us timers (fun after ->
           Engine.cancel engine (Engine.schedule engine ~after (fun () -> ()));
           true));
    m "trust.dlog_verify_us_per_record" "us"
      (unit_us [| prefix |] (fun s -> Dlog.verify_string s = Ok records)
      /. Float.of_int records);
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  violation : string option;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  counts : metric list;  (** the metrics that must repeat exactly for one seed *)
  setup_heads : string list;  (** decision-log heads when set-up ends *)
  final_heads : string list;  (** decision-log lengths and heads at the end *)
}

let heads (inst : W.instance) =
  List.map
    (fun svc ->
      let log = Service.decision_log svc in
      Printf.sprintf "%s:%d:%s" (Service.service_name svc) (Dlog.length log)
        (Sha256.to_hex (Dlog.head log)))
    inst.services

let run (spec : W.spec) ~size ~seed ~seconds ~trace =
  let calib_us = Measure.calib_us () in
  let population = spec.population size in
  let n_timed, warmup =
    match size with
    | W.Full -> (spec.ops_per_second * seconds, spec.warmup)
    | W.Tiny -> (300, spec.warmup / 10)
  in
  let n_traced = if trace then n_timed / 2 else 0 in
  let inputs =
    spec.inputs (Random.State.make [| seed |]) ~population ~count:(warmup + n_timed + n_traced)
  in
  let attempted = ref 0 and failed = ref 0 in
  (* An exception out of an operation counts as a failure; a safety
     violation aborts the run. *)
  let guarded f i =
    match f i with
    | ok -> ok
    | exception (W.Safety_violation _ as e) -> raise e
    | exception (Out_of_memory | Stack_overflow as e) -> raise e
    | exception _ -> false
  in
  let run_op (inst : W.instance) i =
    incr attempted;
    if not (guarded inst.op i && guarded inst.restore i) then incr failed
  in
  try
    (* Set-up from World.create, repeated; the last world is kept.
       Collecting the previous world stays outside the timer. *)
    let setup_s = ref [] and last = ref None and live_before = ref 0.0 in
    while
      let reps = List.length !setup_s and total = List.fold_left ( +. ) 0.0 !setup_s in
      reps < setup_min_reps || (total < setup_min_s && reps < setup_max_reps)
    do
      last := None;
      live_before := Measure.live_bytes ();
      let t0 = Measure.now_ns () in
      let inst = spec.setup ~population inputs in
      setup_s := Measure.seconds_since t0 :: !setup_s;
      last := Some inst
    done;
    let inst = Option.get !last in
    let setup_heads = heads inst in
    let live_setup = held_bytes inst -. !live_before in
    for i = 0 to warmup - 1 do
      run_op inst i
    done;
    (* Timed phase. [held_bytes] compacts, so it doubles as the full major
       collection between set-up and timing. *)
    let live_base = held_bytes inst in
    let before = snapshot_before inst in
    let lat = Array.make n_timed 0.0 and done_at = Array.make n_timed 0.0 in
    let t_start = Measure.now_ns () in
    for j = 0 to n_timed - 1 do
      let i = warmup + j in
      incr attempted;
      let t0 = Measure.now_ns () in
      let ok = guarded inst.op i in
      lat.(j) <- Measure.seconds_since t0;
      if not (ok && guarded inst.restore i) then incr failed;
      done_at.(j) <- Measure.seconds_since t_start
    done;
    let wall = Measure.seconds_since t_start in
    let after = snapshot_after inst in
    let engine = World.engine inst.world in
    let heap_slots = Engine.heap_size engine and pending = Engine.pending engine in
    check_heap inst;
    let live_end = held_bytes inst in
    let n = Float.of_int n_timed in
    let per_op x = x /. n in
    (* Wall-time metrics are medians over equal blocks of the timed phase:
       host speed shifts in episodes of seconds, and the median block
       ignores an episode that covers less than half the phase. *)
    let blocks = match size with W.Full -> timed_blocks | W.Tiny -> 1 in
    let over_blocks f =
      Measure.median
        (Array.init blocks (fun b ->
             let lo = b * n_timed / blocks and hi = (b + 1) * n_timed / blocks in
             f lo hi))
    in
    let ops_per_s =
      over_blocks (fun lo hi ->
          Float.of_int (hi - lo) /. (done_at.(hi - 1) -. if lo = 0 then 0.0 else done_at.(lo - 1)))
    in
    let block_percentile p = over_blocks (fun lo hi -> Measure.percentile p (Array.sub lat lo (hi - lo))) *. 1e6 in
    let p50 = block_percentile 0.50 and p90 = block_percentile 0.90 in
    let heap_counts =
      [
        m "alloc_words_per_op" "words" (per_op (after.gc.allocated -. before.gc.allocated));
        m "retained_bytes_per_op" "B" (per_op (live_end -. live_base));
        m "live_bytes_per_session" "B" (live_setup /. Float.of_int inst.live_sessions);
      ]
    in
    let layer_counts =
      [
        m "cert.verifies_per_op" "count"
          (per_op
             (delta before after "service.offline_validations"
             +. delta before after "service.callbacks_out"));
        m "cert.vcache_hit_ratio" "ratio"
          (let hits = delta before after "vcache.hits" in
           let lookups = hits +. delta before after "vcache.misses" in
           if lookups = 0.0 then 0.0 else hits /. lookups);
        m "policy.solve_steps_per_op" "count" (per_op (delta before after "solve.steps.sum"));
        m "sim.events_per_op" "count" (per_op (Float.of_int (after.events - before.events)));
        m "sim.net_msgs_per_op" "count" (per_op (delta before after "net.sent"));
        m "sim.net_bytes_per_op" "B" (per_op (delta before after "net.bytes_sent"));
        m "sim.rpcs_per_op" "count" (per_op (delta before after "net.rpcs"));
        m "sim.heap_slots_per_live_timer" "ratio"
          (Float.of_int heap_slots /. Float.of_int (max 1 pending));
        m "event.published_per_op" "count" (per_op (delta before after "broker.published"));
        m "event.notified_per_op" "count" (per_op (delta before after "broker.notified"));
        m "core.cascade_deactivations_per_op" "count"
          (per_op (delta before after "service.cascade_deactivations"));
        m "core.durable_bytes_per_op" "B"
          (per_op (Float.of_int (after.durable_bytes - before.durable_bytes)));
        m "trust.dlog_records_per_op" "count"
          (per_op (Float.of_int (after.dlog_records - before.dlog_records)));
        m "trust.dlog_bytes_per_record" "B"
          (Float.of_int (after.durable_bytes - before.durable_bytes)
          /. Float.of_int (max 1 (after.dlog_records - before.dlog_records)));
        m "gc.minor_collections_per_op" "count"
          (per_op (Float.of_int (after.gc.minor_collections - before.gc.minor_collections)));
        m "gc.promoted_words_per_op" "words" (per_op (after.gc.promoted -. before.gc.promoted));
      ]
    in
    (* Traced run: the operation stream continues in alternating blocks with
       tracing (spans and runtime GC events) on and off, so the overhead
       compares halves that saw the same heap and host; then the probe and
       the unit-cost replays. *)
    let traced =
      if not trace then []
      else begin
        let pauses = Measure.Pauses.start () in
        let walls = [| 0.0; 0.0 |] and ops = [| 0; 0 |] in
        let first = warmup + n_timed in
        let j = ref 0 in
        while !j < n_traced do
          let on = !j / trace_block mod 2 = 0 in
          let len = min trace_block (n_traced - !j) in
          Spans.enabled := on;
          Measure.Pauses.record pauses on;
          let t0 = Measure.now_ns () in
          for k = first + !j to first + !j + len - 1 do
            if on then Spans.span "op" (fun () -> run_op inst k) else run_op inst k
          done;
          let side = if on then 1 else 0 in
          walls.(side) <- walls.(side) +. Measure.seconds_since t0;
          ops.(side) <- ops.(side) + len;
          Measure.Pauses.poll pauses;
          j := !j + len
        done;
        let pause_s = Measure.Pauses.stop pauses in
        let traced_wall = walls.(1) in
        Spans.enabled := true;
        for j = 0 to probe_principals - 1 do
          inst.probe j
        done;
        Spans.enabled := false;
        let costs = replays inst in
        let cost name = (List.find (fun c -> c.name = name) costs).value in
        let count name = (List.find (fun c -> c.name = name) layer_counts).value in
        let signs_per_op =
          per_op (delta before after "service.activations_granted" +. delta before after "civ.issues")
        in
        let attributed_us =
          (count "cert.verifies_per_op" *. cost "cert.verify_rmc_us")
          +. (signs_per_op *. cost "crypto.schnorr_sign_us")
          +. count "trust.dlog_records_per_op" *. count "trust.dlog_bytes_per_record" /. 1024.0
             *. cost "crypto.sha256_us_per_kb"
        in
        let traced_ops_per_s = Float.of_int ops.(1) /. traced_wall in
        let plain_ops_per_s = Float.of_int ops.(0) /. walls.(0) in
        let overhead = (plain_ops_per_s /. traced_ops_per_s) -. 1.0 in
        let p99 = Measure.percentile 0.99 lat *. 1e6 in
        Printf.printf "  op_us_p99 = %.3f us over %d samples (diagnostic)\n" p99 n_timed;
        Printf.printf "  tracing overhead = %.4f (untraced %.1f ops/s, traced %.1f ops/s)\n" overhead
          plain_ops_per_s traced_ops_per_s;
        Printf.printf "  spans (name, calls, total s, self s):\n";
        List.iter
          (fun (name, calls, total, self) ->
            Printf.printf "    %-20s %8d %10.4f %10.4f\n" name calls total self)
          (Spans.rows ());
        costs
        @ [
            m "sim.drive_us" "us" (Spans.mean_us "sim.drive");
            m "core.activate_us" "us" (Spans.mean_us "core.activate");
            m "core.invoke_us" "us" (Spans.mean_us "core.invoke");
            m "core.logout_us" "us" (Spans.mean_us "core.logout");
            m "domain.civ_issue_us" "us" (Spans.mean_us "domain.civ_issue");
            m "domain.civ_revoke_us" "us" (Spans.mean_us "domain.civ_revoke");
            m "gc.time_share" "ratio" (Array.fold_left ( +. ) 0.0 pause_s /. traced_wall);
            m "gc.pause_us_p99" "us" (Measure.percentile 0.99 pause_s *. 1e6);
            m "op_us_p99" "us" p99;
            m "trace.overhead_share" "ratio" overhead;
            m "trace.attributed_share" "ratio" (attributed_us /. (wall /. n *. 1e6));
          ]
      end
    in
    inst.finish ();
    check_heap inst;
    let collapse_ms = check_end inst in
    let peak_rss_mb = Float.of_int (Measure.proc_status_kb "VmHWM") /. 1024.0 in
    let end_to_end =
      [
        m "setup_s" "s" (Measure.median (Array.of_list !setup_s));
        m "ops_per_s" "1/s" ops_per_s;
        m "op_us_p50" "us" p50;
        m "op_us_p90" "us" p90;
      ]
      @ heap_counts
      @ [ m "peak_rss_mb" "MB" peak_rss_mb ]
    in
    let collapse = m "collapse_virtual_ms_max" "virtual_ms" collapse_ms in
    {
      correct = true;
      violation = None;
      attempted = !attempted;
      failed = !failed;
      end_to_end;
      per_layer =
        (collapse :: layer_counts)
        @ traced
        @ [ m "host.calib_us" "us" calib_us ];
      counts = (collapse :: heap_counts) @ layer_counts;
      setup_heads;
      final_heads = heads inst;
    }
  with W.Safety_violation why ->
    {
      correct = false;
      violation = Some why;
      attempted = !attempted;
      failed = !failed;
      end_to_end = [];
      per_layer = [];
      counts = [];
      setup_heads = [];
      final_heads = [];
    }

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if not (Float.is_finite v) then failwith "non-finite metric value";
  Printf.sprintf "%.17g" v

let json_line r metrics =
  let fields =
    List.map
      (fun x -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " fields)

let print_metrics title metrics =
  Printf.printf "  %s:\n" title;
  List.iter (fun x -> Printf.printf "    %-34s %18.6f %s\n" x.name x.value x.unit_) metrics

let bench ~workload ~seed ~seconds ~trace ~out =
  let spec =
    match List.find_opt (fun (s : W.spec) -> s.name = workload) W.all with
    | Some s -> s
    | None -> failwith ("unknown workload " ^ workload)
  in
  Printf.printf "%s  seed %d  %d s  trace %b\n%!" workload seed seconds trace;
  let r =
    try run spec ~size:W.Full ~seed ~seconds ~trace
    with Measure.Too_few_samples { p; n } ->
      Printf.eprintf "p%g needs at least %.0f samples, got %d: raise --seconds\n" (p *. 100.0)
        (10.0 /. (1.0 -. p)) n;
      exit 2
  in
  (match r.violation with Some why -> Printf.printf "  SAFETY VIOLATION: %s\n" why | None -> ());
  Printf.printf "  attempted %d, failed %d, fail_frac %.6f\n" r.attempted r.failed
    (Float.of_int r.failed /. Float.of_int (max 1 r.attempted));
  print_metrics "end to end" r.end_to_end;
  print_metrics "per layer" r.per_layer;
  let line = json_line r (if trace then r.per_layer else r.end_to_end) in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (line ^ "\n");
      close_out oc)
    out;
  print_endline line;
  if not r.correct then exit 1

(* ------------------------------------------------------------------ *)
(* Determinism self-check                                             *)
(* ------------------------------------------------------------------ *)

(* Every workload at a tiny size: two runs with one seed must agree bit for
   bit on every count and on every decision-log length and head; a second
   seed starts from the same set-up state and reaches the same verdicts. *)
let selfcheck () =
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL %s\n%!" what
    end
  in
  List.iter
    (fun (spec : W.spec) ->
      let go seed = run spec ~size:W.Tiny ~seed ~seconds:0 ~trace:false in
      let a = go 1 and b = go 1 and c = go 2 in
      List.iter
        (fun r ->
          expect (spec.name ^ ": correct " ^ Option.value r.violation ~default:"") r.correct;
          expect (spec.name ^ ": no failed operation") (r.failed = 0))
        [ a; b; c ];
      expect (spec.name ^ ": same counts") (List.length a.counts = List.length b.counts);
      if List.length a.counts = List.length b.counts then
        List.iter2
          (fun x y ->
            expect
              (Printf.sprintf "%s: %s repeats (%.17g vs %.17g)" spec.name x.name x.value y.value)
              (Int64.bits_of_float x.value = Int64.bits_of_float y.value))
          a.counts b.counts;
      expect (spec.name ^ ": decision logs repeat") (a.final_heads = b.final_heads);
      expect (spec.name ^ ": second seed, same set-up") (a.setup_heads = c.setup_heads);
      expect (spec.name ^ ": second seed, other sequence") (a.final_heads <> c.final_heads);
      expect (spec.name ^ ": second seed, same attempted") (a.attempted = c.attempted))
    W.all;
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref None and check = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME session_churn | invoke_zipf | revocation_storm");
      ("--seed", Arg.Set_int seed, "N seed of the operation sequence");
      ("--seconds", Arg.Set_int seconds, "S run length; operations = S x the workload's fixed rate");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run printing the per-layer metrics");
      ("--out", Arg.String (fun p -> out := Some p), "FILE also write the JSON result here");
      ("--selfcheck", Arg.Set check, " run the determinism self-check");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  if !check then selfcheck ()
  else if !workload = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
    exit 2
  end
  else bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
