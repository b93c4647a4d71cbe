(* Measurement primitives: the monotonic clock, percentiles, GC and heap
   counters, nested spans, runtime-events GC pauses and the host
   calibration loop. Nothing here calls into lib/. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)
(* ------------------------------------------------------------------ *)

exception Too_few_samples of { p : float; n : int }

(* Nearest-rank percentile. Refuses (raises [Too_few_samples]) when fewer
   than ten samples lie beyond the percentile: there the estimate is decided
   by a handful of outliers and would not repeat. *)
let percentile p samples =
  let n = Array.length samples in
  if Float.of_int n *. (1.0 -. p) < 10.0 then raise (Too_few_samples { p; n });
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a.(max 0 (min (n - 1) (Float.to_int (Float.ceil (p *. Float.of_int n)) - 1)))

(* The median of a handful of repeated measurements (set-up times, the
   calibration loop), where the percentile rule above does not apply. *)
let median samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* GC and heap                                                        *)
(* ------------------------------------------------------------------ *)

type gc = {
  allocated : float;  (** words allocated: minor + major - promoted *)
  promoted : float;
  minor_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    allocated = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    promoted = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
  }

(* Live major-heap bytes after a compaction: what the program still holds,
   independent of where the collector happened to be. *)
let live_bytes () =
  Gc.compact ();
  Float.of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

(* An integer field (kB) of /proc/self/status; 0 where unavailable. *)
let proc_status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.starts_with ~prefix line -> (
            let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
            try Scanf.sscanf rest " %d" Fun.id with Scanf.Scan_failure _ | End_of_file -> 0)
        | _ -> scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

(* ------------------------------------------------------------------ *)
(* Spans around the benchmark's own calls into each layer             *)
(* ------------------------------------------------------------------ *)

(* Off unless a traced run turns it on; then every [span] records its
   wall time, and its self time (the span minus its child spans). *)
module Spans = struct
  type stat = { mutable count : int; mutable total : float; mutable self : float }

  let enabled = ref false
  let table : (string, stat) Hashtbl.t = Hashtbl.create 16

  (* Child time accumulated by each open span, innermost first. *)
  let open_children : float ref list ref = ref []

  let record name ~total ~self =
    let s =
      match Hashtbl.find_opt table name with
      | Some s -> s
      | None ->
          let s = { count = 0; total = 0.0; self = 0.0 } in
          Hashtbl.replace table name s;
          s
    in
    s.count <- s.count + 1;
    s.total <- s.total +. total;
    s.self <- s.self +. self

  let span name f =
    if not !enabled then f ()
    else begin
      let children = ref 0.0 in
      let parents = !open_children in
      open_children := children :: parents;
      let t0 = now_ns () in
      let finish () =
        let total = seconds_since t0 in
        open_children := parents;
        (match parents with p :: _ -> p := !p +. total | [] -> ());
        record name ~total ~self:(total -. !children)
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let mean_us name =
    match Hashtbl.find_opt table name with
    | Some s when s.count > 0 -> s.total /. Float.of_int s.count *. 1e6
    | _ -> failwith ("no span recorded for " ^ name)

  let rows () =
    Hashtbl.fold (fun name s acc -> (name, s.count, s.total, s.self) :: acc) table []
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* GC pauses from the runtime's own event ring (OCaml 5 runtime_events) *)
(* ------------------------------------------------------------------ *)

(* A pause is an outermost minor collection or major slice; nested phases
   belong to the pause that contains them. *)
module Pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    samples : float list ref;  (** seconds *)
    lost : int ref;
  }

  let start () =
    Runtime_events.start ();
    let samples = ref [] and lost = ref 0 and depth = ref 0 and began = ref 0L in
    let is_pause = function
      | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
      | _ -> false
    in
    let runtime_begin _ ts phase =
      if is_pause phase then begin
        if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
        incr depth
      end
    in
    let runtime_end _ ts phase =
      if is_pause phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          let d = Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began in
          samples := (Int64.to_float d *. 1e-9) :: !samples
      end
    in
    let lost_events _ n = lost := !lost + n in
    let t =
      {
        cursor = Runtime_events.create_cursor None;
        callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
        samples;
        lost;
      }
    in
    (* Drop whatever the ring held before this point. *)
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    samples := [];
    lost := 0;
    t

  (* Pauses the runtime's event ring while [on] is false. *)
  let record _ on = if on then Runtime_events.resume () else Runtime_events.pause ()

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let stop t =
    record t false;
    poll t;
    Runtime_events.free_cursor t.cursor;
    if !(t.lost) > 0 then failwith (Printf.sprintf "runtime_events lost %d events" !(t.lost));
    Array.of_list !(t.samples)
end

(* ------------------------------------------------------------------ *)
(* Host calibration                                                   *)
(* ------------------------------------------------------------------ *)

(* A fixed pure-OCaml integer loop over a 4 KiB buffer: no lib/ code and
   no allocation, so its time moves only with the host, never with the
   program under test. Median of 201 repetitions, in microseconds. *)
let calib_us () =
  let buf = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let kernel () =
    let h = ref 0x2545F491 in
    for round = 1 to 4 do
      for i = 0 to Bytes.length buf - 1 do
        h := ((!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x01000193) + round;
        h := !h land 0x3FFFFFFF
      done
    done;
    !h
  in
  let reps =
    Array.init 201 (fun _ ->
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (kernel ()));
        seconds_since t0 *. 1e6)
  in
  median reps
