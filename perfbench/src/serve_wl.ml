(* serve: an in-process Service over a single-job Runner, loaded from one
   connection by at most one sender and one receiver thread.

   - Bursts, a closed loop: one op sends [burst] fresh Run requests to a
     paused service over a runner that keeps no cache, then releases
     them as one batch and waits for every reply.  The serve workload's
     end-to-end latency and throughput come from these ops.
   - Phase A, an open loop at [rate] requests/s: a seeded stream of
     Table-1-style Run requests, 40% repeating an earlier spec (a cache
     read) and the rest fresh (a simulation plus a cache write).  Each
     request is timed from the moment it was due, so a stall also
     charges the requests queued behind it. *)

module Service = Wp_core.Service
module Client = Service.Client
module Wire = Wp_core.Wire
module Runner = Wp_core.Runner
module Experiment = Wp_core.Experiment
module Datapath = Wp_soc.Datapath
module Prng = Wp_util.Prng

let rate = 100.

(* Share of phase-A requests that repeat an earlier spec.  Kept below
   one half so the median sits inside the miss mode of the bimodal
   hit/miss latency distribution, not in the gap between the modes. *)
let repeat_share = 0.4

(* One reply in [check_every] is re-derived in-process after its chunk. *)
let check_every = 40

(* A single tenant: the per-client queue must never be what refuses a
   request at this load. *)
let queue_bound = 1024

(* The Table 1 programs at small sizes, so a miss costs 1-6 ms and no
   single request queues the open loop for long.  Generated [random:K]
   programs are left out: some oracle (WP2) runs of them compute a wrong
   result (e.g. random:4 on the pipelined machine with CU-RF=1 CU-AL=2
   CU-DC=2 RF-ALU=1 RF-DC=1 ALU-CU=1 ALU-DC=2 DC-RF=2), which the service
   rightly quarantines, and a benchmark op must not fail. *)
let programs =
  Array.of_list
    (List.init 6 (fun i -> Printf.sprintf "sort:%d" (i + 4)) @ [ "matmul:2" ])

let machines = [| "pipelined"; "multicycle" |]

(* ------------------------------------------------------------------ *)
(* The seeded request stream                                            *)
(* ------------------------------------------------------------------ *)

type gen = {
  rng : Prng.t;
  mutable issued : Wire.run_args array;
  mutable n_issued : int;
  mutable n_fresh : int;
  seen : (string, unit) Hashtbl.t;
}

let gen ~seed =
  { rng = Prng.create ~seed; issued = [||]; n_issued = 0; n_fresh = 0; seen = Hashtbl.create 4096 }

let remember g rq =
  if g.n_issued = Array.length g.issued then
    g.issued <- Array.append g.issued (Array.make (max 64 g.n_issued) rq);
  g.issued.(g.n_issued) <- rq;
  g.n_issued <- g.n_issued + 1

let request ~program ~machine ~config =
  { (Wire.run_defaults ~program ~machine ~config) with Wire.rq_engine = Some "fast" }

let random_config rng =
  let parts =
    List.filter_map
      (fun conn ->
        if Prng.int rng 10 < 3 then
          Some (Printf.sprintf "%s=%d" (Datapath.connection_name conn) (1 + Prng.int rng 2))
        else None)
      Datapath.all_connections
  in
  if parts = [] then "none" else String.concat "," parts

(* Fresh specs cycle through every (program, machine) pair, so each seed
   offers the same mix of simulation costs; the configurations are
   seeded. *)
let rec fresh g =
  let pair = g.n_fresh mod (Array.length programs * Array.length machines) in
  g.n_fresh <- g.n_fresh + 1;
  let program = programs.(pair / Array.length machines) in
  let machine = machines.(pair mod Array.length machines) in
  let config = random_config g.rng in
  let key = String.concat "|" [ program; machine; config ] in
  if Hashtbl.mem g.seen key then fresh g
  else begin
    Hashtbl.add g.seen key ();
    let rq = request ~program ~machine ~config in
    remember g rq;
    rq
  end

let mixed g =
  if g.n_issued > 0 && Prng.float g.rng 1. < repeat_share then
    g.issued.(Prng.int g.rng g.n_issued)
  else fresh g

(* Every (program, machine) pair once, so the golden memo is warm. *)
let priming g =
  Array.concat
    (Array.to_list
       (Array.map
          (fun program ->
            Array.map
              (fun machine ->
                let rq = request ~program ~machine ~config:"none" in
                Hashtbl.replace g.seen (String.concat "|" [ program; machine; "none" ]) ();
                remember g rq;
                rq)
              machines)
          programs))

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

(* The service lives in a domain of its own, as a daemon would live in a
   process of its own.  Sharing the load generator's domain, the sender
   waited for the runtime lock while the dispatcher simulated, so its
   lateness followed the service's compute (lag p99 7-10 ms, max ~20 ms
   on a 2-vCPU VM) and a slow host pushed it past the limit that flags a
   run.  The host domain runs one posted closure at a time; between them
   its main thread waits, so the service's threads have the domain to
   themselves. *)
module Host = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable job : (unit -> unit) option;
    mutable quit : bool;
    mutable domain : unit Domain.t option;
  }

  let rec serve h =
    Mutex.lock h.m;
    while Option.is_none h.job && not h.quit do
      Condition.wait h.c h.m
    done;
    let job = h.job in
    h.job <- None;
    Mutex.unlock h.m;
    match job with
    | None -> ()
    | Some f ->
      f ();
      serve h

  (* Run [f] in the host domain and wait for its result. *)
  let run h f =
    let result = ref None in
    let job () =
      let r = try Ok (f ()) with e -> Error e in
      Mutex.lock h.m;
      result := Some r;
      Condition.broadcast h.c;
      Mutex.unlock h.m
    in
    Mutex.lock h.m;
    h.job <- Some job;
    Condition.broadcast h.c;
    while Option.is_none !result do
      Condition.wait h.c h.m
    done;
    Mutex.unlock h.m;
    match !result with Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false

  let create () =
    let h = { m = Mutex.create (); c = Condition.create (); job = None; quit = false; domain = None } in
    h.domain <- Some (Domain.spawn (fun () -> serve h));
    h

  let close h =
    Mutex.lock h.m;
    h.quit <- true;
    Condition.broadcast h.c;
    Mutex.unlock h.m;
    Option.iter Domain.join h.domain;
    h.domain <- None
end

type inst = { runner : Runner.t; svc : Service.t; conn : Client.conn }

let instances = ref 0

let start ?(paused = false) host ~cache ~dir =
  incr instances;
  let path = Filename.concat dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !instances) in
  let runner, svc =
    Host.run host (fun () ->
        let runner = Runner.create ~jobs:1 ~cache () in
        (runner, Service.create ~queue_bound ~shed_limit:(4 * queue_bound) ~paused ~runner path))
  in
  { runner; svc; conn = Client.connect path }

let stop host i =
  Client.close i.conn;
  Host.run host (fun () ->
      Service.stop i.svc;
      Runner.shutdown i.runner)

(* ------------------------------------------------------------------ *)
(* Load                                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  requests : Wire.run_args array;
  replies : Wire.reply option array;
  latency : float array;  (** seconds from due time; open loop only *)
  lag : float array;  (** how late the sender was; open loop only *)
}

let next_tag = ref 1

let send conn ~tag rq =
  if !Trace.enabled then
    ignore (Trace.leaf ~tid:1 "wire.encode" (fun () -> Wire.encode_request ~tag (Wire.Run rq)));
  Trace.leaf ~tid:1 "client.send" (fun () -> Client.send conn ~tag (Wire.Run rq))

let receive conn =
  match Client.recv conn with
  | None -> failwith "serve: daemon closed the connection"
  | Some (tag, reply) ->
    if !Trace.enabled then begin
      let payload = Wire.encode_reply ~tag reply in
      ignore (Trace.leaf ~tid:2 "wire.decode" (fun () -> Wire.decode_reply payload))
    end;
    (tag, reply)

let outcome requests =
  let n = Array.length requests in
  {
    requests;
    replies = Array.make n None;
    latency = Array.make n nan;
    lag = Array.make n 0.;
  }

(* Open loop: request [k] is due at [t0 + k / rate]. *)
let open_loop conn requests =
  let o = outcome requests in
  let n = Array.length requests in
  let base = !next_tag in
  next_tag := base + n;
  let due = Array.make n 0. in
  let t0 = Trace.now () +. 0.005 in
  let sender =
    Thread.create
      (fun () ->
        for k = 0 to n - 1 do
          let d = t0 +. (float_of_int k /. rate) in
          due.(k) <- d;
          let wait = d -. Trace.now () in
          if wait > 0. then Unix.sleepf wait;
          o.lag.(k) <- Trace.now () -. d;
          send conn ~tag:(base + k) requests.(k)
        done)
      ()
  in
  for _ = 1 to n do
    let tag, reply = receive conn in
    let now = Trace.now () in
    let k = tag - base in
    o.replies.(k) <- Some reply;
    o.latency.(k) <- now -. due.(k)
  done;
  Thread.join sender;
  o

(* A burst of requests to a paused service, released at once once the
   service holds all of them, so its dispatcher takes the whole burst as
   one batch: every op does the same work in the same order, whatever
   the scheduler does with the service's threads. *)
let burst_op conn svc requests =
  let o = outcome requests in
  let n = Array.length requests in
  let base = !next_tag in
  next_tag := base + n + 1;
  Array.iteri (fun k rq -> send conn ~tag:(base + k) rq) requests;
  (* The service answers Stats in arrival order, after queueing every
     request before it. *)
  (match Client.call conn ~tag:(base + n) Wire.Stats with
  | Wire.Stats_reply _ -> ()
  | _ -> failwith "serve: no Stats_reply");
  Service.resume svc;
  for _ = 1 to n do
    let tag, reply = receive conn in
    o.replies.(tag - base) <- Some reply
  done;
  o

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)
(* ------------------------------------------------------------------ *)

(* The summary an in-process run of the same request gives. *)
let expected_summary rq =
  match Wire.parse_run rq with
  | Error e -> failwith ("serve: bad request in the stream: " ^ e)
  | Ok r ->
    Wire.summary_of_record ~from_cache:false
      (Experiment.run_spec ~spec:r.Runner.req_spec ~machine:r.Runner.req_machine
         ~program:r.Runner.req_program r.Runner.req_config)

(* A reply passes when it is a [Result] equal to [expected], whether or
   not it came from the cache. *)
let check_reply ~expected = function
  | Some (Wire.Result s) ->
    { s with Wire.rs_from_cache = false } = { expected with Wire.rs_from_cache = false }
  | _ -> false

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable busy : int;
  mutable errors : int;
  mutable checked : int;
}

let tally () = { attempted = 0; failed = 0; busy = 0; errors = 0; checked = 0 }

(* Every reply must be a [Result]; a seeded one in [every] is re-derived. *)
let tally_outcome ?(every = check_every) ~seed t o =
  Array.iteri
    (fun k reply ->
      t.attempted <- t.attempted + 1;
      let ok =
        match reply with
        | Some (Wire.Result _) ->
          if Hashtbl.hash (seed, t.attempted) mod every <> 0 then true
          else begin
            t.checked <- t.checked + 1;
            check_reply ~expected:(expected_summary o.requests.(k)) reply
          end
        | Some (Wire.Busy _) ->
          t.busy <- t.busy + 1;
          false
        | other ->
          t.errors <- t.errors + 1;
          Printf.printf "serve: %s got %s\n" o.requests.(k).Wire.rq_program
            (match other with
            | Some (Wire.Error e) -> "Error " ^ e
            | Some (Wire.Quarantined { last_error; _ }) -> "Quarantined " ^ last_error
            | Some (Wire.Deadline_exceeded e) -> "Deadline_exceeded " ^ e
            | Some _ -> "an unexpected reply"
            | None -> "no reply");
          false
      in
      if not ok then t.failed <- t.failed + 1)
    o.replies

let latencies o = Array.to_list o.latency

(* Sender lateness beyond these marks means the generator could not
   hold its schedule, so the phase-A latencies are not valid: a median
   send more than a millisecond late, or a per-chunk p99 (median over
   chunks) of five send intervals.  The p99 is taken per chunk because a
   host freeze of ~100 ms makes every send in it late, which moves the
   pooled p99 of a run but spoils only one chunk. *)
let lag_p50_limit = 0.001
let lag_p99_limit = 5. /. rate

(* The phase-A stream replayed straight through the runner, one request
   per call and no socket: the service's own compute per request. *)
let runner_replay requests =
  let runner = Runner.create ~jobs:1 () in
  let times =
    Array.to_list
      (Array.map
         (fun rq ->
           match Wire.parse_run rq with
           | Error e -> failwith e
           | Ok r ->
             let t0 = Trace.now () in
             ignore (Runner.experiments_batch_spec runner [ r ]);
             Trace.now () -. t0)
         requests)
  in
  Runner.shutdown runner;
  times

type stats = { hits : int; misses : int; shed : int; expired : int }

let daemon_stats conn =
  match Client.call conn ~tag:0 Wire.Stats with
  | Wire.Stats_reply s ->
    { hits = s.st_cache_hits; misses = s.st_cache_misses; shed = s.st_shed; expired = s.st_expired }
  | _ -> failwith "serve: no Stats_reply"

let run_call conn rq =
  let tag = !next_tag in
  incr next_tag;
  match Client.call conn ~tag (Wire.Run rq) with
  | Wire.Result _ -> ()
  | _ -> failwith "serve: warm-up request failed"

(* Phase A runs in one-second chunks, each bracketed by the calibration
   loop (see [Report.normalise]); the service is idle around each
   calibration because every chunk drains before it returns.  Phase-A
   figures are normalised by the median of the chunks' calibrations.
   Each chunk's replies are checked ([after]) as soon as it ends, and a
   full major collection follows, so the heap, and with it the peak RSS,
   holds the live data plus one chunk's garbage instead of wherever the
   collector's pacing happens to let it grow. *)
let chunk_s = 1.0

let chunks n f ~after =
  List.init n (fun i ->
      let r = Report.calibrated (fun () -> f i) in
      after r;
      Gc.full_major ();
      r)

(* Every (program, machine) pair twice per burst, so each op offers the
   same mix of simulation costs. *)
let burst = 2 * Array.length programs * Array.length machines

type bctx = { b_inst : inst; b_reqs : Wire.run_args array; mutable b_out : outcome option }

(* The bursts as a closed loop (see [Report.closed]).  Set-up is a
   paused service over a runner that keeps no cache, its connection and
   the burst's fresh requests; the op is [burst_op]; the replies are
   checked at teardown, outside the op's time. *)
let bursts host ~dir ~seed g t =
  {
    Report.name = "serve";
    setup =
      (fun _ ->
        let b_inst = start ~paused:true host ~cache:false ~dir in
        { b_inst; b_reqs = Array.init burst (fun _ -> fresh g); b_out = None });
    op =
      (fun c ->
        c.b_out <- Some (burst_op c.b_inst.conn c.b_inst.svc c.b_reqs);
        true);
    probe = ignore;
    teardown =
      (fun c ->
        stop host c.b_inst;
        Option.iter (tally_outcome ~seed t) c.b_out);
  }

let run_on host ~seed ~seconds ~trace ~dir =
  let t = tally () in
  (* The bursts run first, on a request stream of their own: their
     garbage is gone before phase A's cache grows, so the peak RSS is
     phase A's cache at the end of the run. *)
  let s =
    Report.closed ~seconds:(0.6 *. seconds) ~warmup:1 ~trace
      (bursts host ~dir ~seed (gen ~seed:(seed + 0x5eed)) t)
  in
  t.failed <- t.failed + s.Report.op_failures;
  Gc.full_major ();
  let g = gen ~seed in
  let n_a = max 2 (int_of_float (0.35 *. seconds /. chunk_s)) in
  let per_chunk = int_of_float (rate *. chunk_s) in
  let inst = start host ~cache:true ~dir in
  (* Warm-up: the (program, machine) pairs, then half a second of load. *)
  Array.iter (run_call inst.conn) (priming g);
  ignore (open_loop inst.conn (Array.init (int_of_float (rate /. 2.)) (fun _ -> mixed g)));
  let reqs_a = Array.init n_a (fun _ -> Array.init per_chunk (fun _ -> mixed g)) in
  let phase_a =
    chunks n_a
      (fun i -> open_loop inst.conn reqs_a.(i))
      ~after:(fun (o, _, _) -> tally_outcome ~seed t o)
  in
  let st = daemon_stats inst.conn in
  stop host inst;
  let cal = Report.median (List.map (fun (_, _, c) -> c) phase_a) in
  let open_samples =
    List.concat_map
      (fun (o, _, _) ->
        List.map (fun l -> { Report.raw = l; norm = Report.normalise ~cal l }) (latencies o))
      phase_a
  in
  (* Phase A's tail is the median over chunks of each chunk's p99: a
     host freeze of ~100 ms queues every request due in it, enough to
     move the pooled p99 of a whole run by half, but it spoils only the
     chunk it falls in.  The pooled p99 is printed beside it. *)
  let chunk_p99 =
    Report.median
      (List.map (fun (o, _, _) -> Report.normalise ~cal (Report.percentile 99. (latencies o))) phase_a)
  in
  let lags = List.concat_map (fun (o, _, _) -> Array.to_list o.lag) phase_a in
  let lag_p50 = Report.median lags in
  let lag_p99 =
    Report.median (List.map (fun (o, _, _) -> Report.percentile 99. (Array.to_list o.lag)) phase_a)
  in
  let lag_max = List.fold_left Float.max 0. lags in
  let behind = lag_p50 > lag_p50_limit || lag_p99 > lag_p99_limit in
  Printf.printf "serve: %d-request bursts; phase A %d requests at %.0f/s in %g s chunks\n" burst
    (n_a * per_chunk) rate chunk_s;
  Report.print_closed ~name:"bursts" s;
  Report.print_samples ~label:"phase A" open_samples;
  Printf.printf "phase A norm p99 per chunk, median over chunks: %.3f ms\n" (chunk_p99 *. 1e3);
  Report.print_timing ~label:"generator lag" ~unit:"ms" ~scale:1e3 lags;
  Printf.printf
    "generator lag p99 per chunk, median over chunks %.3f ms; max %.3f ms; Busy %d, errors %d, \
     sampled checks %d\n"
    (lag_p99 *. 1e3) (lag_max *. 1e3) t.busy t.errors t.checked;
  if behind then
    Printf.printf
      "FLAGGED: the generator fell behind its schedule (lag p50 %.3f ms, per-chunk p99 %.3f ms); \
       phase-A latencies are not valid\n"
      (lag_p50 *. 1e3) (lag_p99 *. 1e3);
  let e2e = Report.closed_metrics ~work_per_op:(float_of_int burst) s in
  let layers () =
    let med name = Report.median (Trace.durations name) in
    let replay =
      runner_replay (Array.sub (Array.concat (Array.to_list reqs_a)) 0 (min 2000 (n_a * per_chunk)))
    in
    let serve_ms = Report.median replay *. 1e3 in
    let open_raw_ms = Report.median (Report.raws open_samples) *. 1e3 in
    [
      ("wire.encode_us", med "wire.encode" *. 1e6);
      ("client.send_us", med "client.send" *. 1e6);
      ("wire.decode_us", med "wire.decode" *. 1e6);
      ("runner.serve_ms", serve_ms);
      ("service.wait_ms", open_raw_ms -. serve_ms);
      ("service.cache_hit_ratio", float_of_int st.hits /. float_of_int (max 1 (st.hits + st.misses)));
      ("service.busy", float_of_int st.shed);
      ("service.errors", float_of_int t.errors);
      ("service.expired", float_of_int st.expired);
      ("service.open_p50_ms", Report.median (Report.norms open_samples) *. 1e3);
      ("service.open_p99_ms", chunk_p99 *. 1e3);
      ("generator.lag_ms", lag_p50 *. 1e3);
      ("generator.lag_max_ms", lag_max *. 1e3);
      ("trace.overhead_pct", Report.overhead_pct s);
    ]
  in
  (t, behind, e2e, layers)

let run ~seed ~seconds ~trace ~dir =
  let host = Host.create () in
  Fun.protect ~finally:(fun () -> Host.close host) (fun () -> run_on host ~seed ~seconds ~trace ~dir)
