(* Sample statistics, the closed loop shared by table1, sweep and
   flow, and the one-line JSON result. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs

(* The highest of the usual percentiles with at least ten samples beyond
   it — the deepest tail a run of [n] samples can honestly report. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10.)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let print_timing ~label ~unit ~scale xs =
  let n = List.length xs in
  let pct p = percentile p xs *. scale in
  Printf.printf "%-24s n=%-5d p10=%.3f p25=%.3f p50=%.3f p90=%.3f %s" label n (pct 10.)
    (pct 25.) (pct 50.) (pct 90.) unit;
  (match tail_percentile n with
  | Some p when p > 90. -> Printf.printf "  p%g=%.3f %s" p (pct p) unit
  | _ -> ());
  print_newline ()

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

type metric = { m_name : string; value : float; m_unit : string }

let m m_name value m_unit = { m_name; value; m_unit }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let metric x =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string x.m_name)
      (json_number x.value) (Trace.json_string x.m_unit)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* ------------------------------------------------------------------ *)
(* Speed normalisation                                                  *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts in multi-second phases: everything, this
   loop included, runs up to ~1.7x slower for a few seconds, and a whole
   run can land in a slow stretch.  So every op is bracketed by a fixed
   calibration loop that uses no code of the library, and a time is
   reported as [t *. reference_s /. cal], its value at the speed where
   the loop takes [reference_s].  A change to the library moves the
   reported time exactly as it moves the raw one; raw percentiles are
   printed beside it. *)
let reference_s = 0.0065

let calibrate () =
  let t0 = Trace.now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) i
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> (i * 7919) land 0xffff)) in
  ignore (Sys.opaque_identity (h, l));
  Trace.now () -. t0

let normalise ~cal t = t *. reference_s /. cal

(* [f ()] bracketed by calibration: its result, raw seconds, and the
   calibration time beside it. *)
let calibrated f =
  let c0 = calibrate () in
  let t0 = Trace.now () in
  let v = f () in
  let t = Trace.now () -. t0 in
  let c1 = calibrate () in
  (v, t, 0.5 *. (c0 +. c1))

(* ------------------------------------------------------------------ *)
(* Closed loop: one caller, the next op starts when the previous ends.  *)
(* ------------------------------------------------------------------ *)

type 'ctx closed = {
  name : string;
  setup : int -> 'ctx;
      (** construction only for op [i]: inputs and service objects *)
  op : 'ctx -> bool;  (** the measured op; [false] = a check failed *)
  probe : 'ctx -> unit;
      (** traced runs only: direct calls into each layer on op [i]'s inputs *)
  teardown : 'ctx -> unit;
}

type sample = { raw : float; norm : float }

type closed_samples = {
  setups : sample list;
  latencies : sample list;  (** tracing off *)
  traced : sample list;  (** tracing on (traced runs only) *)
  ops : int;
  op_failures : int;
  warmup : int;
}

let raws = List.map (fun s -> s.raw)
let norms = List.map (fun s -> s.norm)

(* The op in progress, as calibrated segments: raw and normalised time of
   the closed segments, and the start and calibration of the open one. *)
type op_clock = {
  mutable raw_s : float;
  mutable norm_s : float;
  mutable seg_t0 : float;
  mutable seg_cal : float;
}

let clock = { raw_s = 0.; norm_s = 0.; seg_t0 = 0.; seg_cal = 1. }

let start_clock ~cal =
  clock.raw_s <- 0.;
  clock.norm_s <- 0.;
  clock.seg_cal <- cal;
  clock.seg_t0 <- Trace.now ()

(* Close the open segment of the op in progress at a calibration and open
   the next.  An op longer than a speed phase calls this between its
   parts, so each part is normalised at the speed it ran at; the
   calibration itself is not op time. *)
let checkpoint () =
  let t = Trace.now () in
  let cal = Trace.span "perfbench.calibrate" calibrate in
  let raw = t -. clock.seg_t0 in
  clock.raw_s <- clock.raw_s +. raw;
  clock.norm_s <- clock.norm_s +. normalise ~cal:(0.5 *. (clock.seg_cal +. cal)) raw;
  clock.seg_cal <- cal;
  clock.seg_t0 <- Trace.now ()

let run_op w ctx i =
  Trace.current_op := i;
  let ok =
    try Trace.span (w.name ^ ".op") (fun () -> w.op ctx)
    with e ->
      Printf.printf "op %d raised %s\n%!" i (Printexc.to_string e);
      false
  in
  if not ok then Printf.printf "op %d FAILED its check\n%!" i;
  ok

(* [warmup] ops fill the process-wide memos and are neither set-up nor
   samples.  Every measured op is built by its own timed [setup], so the
   set-up samples spread over the whole run like the op samples do.  A
   traced run alternates untraced and traced ops (the latter followed by
   the layer probe), so it measures its own tracing overhead. *)
let closed ~seconds ~warmup ~trace w =
  for i = 0 to warmup - 1 do
    let ctx = w.setup i in
    if not (run_op w ctx i) then failwith (w.name ^ ": warm-up op failed its check");
    w.teardown ctx
  done;
  let setups = ref [] and lat = ref [] and traced = ref [] in
  let failures = ref 0 and i = ref warmup in
  let t_end = Trace.now () +. seconds in
  while Trace.now () < t_end || !i - warmup < 3 do
    let k = !i in
    let tracing = trace && k mod 2 = 1 in
    let c0 = calibrate () in
    let t0 = Trace.now () in
    let ctx = w.setup k in
    let t_setup = Trace.now () -. t0 in
    let setup = { raw = t_setup; norm = normalise ~cal:c0 t_setup } in
    Trace.enabled := tracing;
    start_clock ~cal:c0;
    let ok = run_op w ctx k in
    Trace.enabled := false;
    checkpoint ();
    let op = { raw = clock.raw_s; norm = clock.norm_s } in
    if tracing then begin
      Trace.enabled := true;
      Trace.span "probe" (fun () -> w.probe ctx);
      Trace.enabled := false
    end;
    w.teardown ctx;
    setups := setup :: !setups;
    if tracing then traced := op :: !traced else lat := op :: !lat;
    if not ok then incr failures;
    incr i
  done;
  {
    setups = List.rev !setups;
    latencies = List.rev !lat;
    traced = List.rev !traced;
    ops = !i - warmup;
    op_failures = !failures;
    warmup;
  }

(* The end-to-end metrics of a closed loop, speed-normalised.
   Throughput is the user's unit of work ([work_per_op] per op) per
   second at the median op. *)
let closed_metrics ~work_per_op s =
  let lat = norms s.latencies in
  let lat_ms = median lat *. 1e3 in
  [
    m "setup_s" (median (norms s.setups)) "s";
    m "latency_ms" lat_ms "ms";
    m "throughput_per_s" (work_per_op /. (lat_ms /. 1e3)) "1/s";
    m "peak_rss_mb" (peak_rss_mb ()) "MB";
  ]

let print_samples ~label ss =
  print_timing ~label:(label ^ " raw") ~unit:"ms" ~scale:1e3 (raws ss);
  print_timing ~label:(label ^ " norm") ~unit:"ms" ~scale:1e3 (norms ss)

let print_closed ~name s =
  Printf.printf "%s: %d measured ops (+%d warm-up), %d failed\n" name s.ops s.warmup
    s.op_failures;
  print_samples ~label:"set-up" s.setups;
  print_samples ~label:"op" s.latencies;
  if s.traced <> [] then print_samples ~label:"op traced" s.traced

(* Tracing overhead, from a traced run's own interleaved ops. *)
let overhead_pct s =
  if s.traced = [] || s.latencies = [] then 0.
  else 100. *. ((median (norms s.traced) /. median (norms s.latencies)) -. 1.)
