module Cpu = Wp_soc.Cpu
module Datapath = Wp_soc.Datapath
module Program = Wp_soc.Program
module Shell = Wp_lis.Shell

type record = {
  program_name : string;
  machine : Datapath.machine;
  config : Config.t;
  golden_cycles : int;
  wp1 : Cpu.result;
  wp2 : Cpu.result;
  th_wp1 : float;
  th_wp2 : float;
  gain_percent : float;
  wp1_bound : float;
}

let program_digest (program : Program.t) =
  (* Two programs may share a name with different data (e.g. sorts of
     different sizes); the key must cover the full workload content.
     [Digest] (not [Hashtbl.hash]) so the key is collision-resistant and
     stable across processes. *)
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (program.Program.text, program.Program.mem_init, program.Program.mem_size)
          []))

(* The golden memo table is shared by every worker domain of the parallel
   runner, so all access goes through [golden_mutex].  The reference run
   itself executes outside the lock: concurrent misses on the same key may
   duplicate the simulation (harmless — [Cpu.run_golden] is pure), but the
   first completed result wins the table, so later calls return the same
   physical record. *)
let golden_cache : (string, Cpu.result) Hashtbl.t = Hashtbl.create 16
let golden_mutex = Mutex.create ()

let golden ?engine ~machine (program : Program.t) =
  let engine = match engine with Some e -> e | None -> Wp_sim.Sim.default_kind () in
  (* The engine is part of the key: the two kernels produce identical
     results (the differential battery asserts it), but sharing a memo
     entry across engines would let a reference-run result stand in for
     a fast-run one and mask a regression in the compiled kernel. *)
  let key =
    Printf.sprintf "%s/%s/%s/%s" (Datapath.machine_name machine) program.Program.name
      (program_digest program)
      (Wp_sim.Sim.kind_to_string engine)
  in
  let cached =
    Mutex.lock golden_mutex;
    let r = Hashtbl.find_opt golden_cache key in
    Mutex.unlock golden_mutex;
    r
  in
  match cached with
  | Some r -> r
  | None ->
    let r = Cpu.run_golden ~engine ~machine program in
    if r.Cpu.outcome <> Cpu.Completed || not r.Cpu.result_ok then
      failwith ("Experiment.golden: reference run failed for " ^ key);
    Mutex.lock golden_mutex;
    let winner =
      match Hashtbl.find_opt golden_cache key with
      | Some first -> first
      | None ->
        Hashtbl.replace golden_cache key r;
        r
    in
    Mutex.unlock golden_mutex;
    winner

(* The one outcome check: a WP run counts only if it completed with the
   golden architectural result.  A cancelled run fails with the message
   its caller reports as an expiry. *)
let check (r : Cpu.result) (program : Program.t) config =
  let fail what =
    Error (Printf.sprintf "%s (%s, %s)" what program.Program.name (Config.describe config))
  in
  match r.Cpu.outcome with
  | Cpu.Completed when r.Cpu.result_ok -> Ok r
  | Cpu.Completed -> fail "Experiment: wrong architectural result"
  | Cpu.Deadlocked -> fail "Experiment: deadlock"
  | Cpu.Out_of_cycles -> fail "Experiment: cycle budget exhausted"
  | Cpu.Cancelled -> fail (Printf.sprintf "deadline exceeded after %d cycles" r.Cpu.cycles)

let checked_run ?cancel ?mcr_work ~spec ~machine ~mode ~config program =
  let r =
    Run_spec.run_cpu ?cancel ?mcr_work ~spec ~machine ~mode
      ~rs:(Config.to_fun config) program
  in
  match check r program config with
  | Ok r -> r
  | Error m when r.Cpu.outcome = Cpu.Cancelled ->
    (* An exception, not a [failwith]: cancellation is the caller's own
       doing — the {!Runner} converts it to [Expired] without burning
       retries, and nothing below may cache the partial run. *)
    raise (Wp_util.Cancel.Cancelled m)
  | Error m -> failwith m

let record ~machine ~config ~golden:g (program : Program.t) wp1 wp2 =
  let th_wp1 = Cpu.throughput ~golden:g wp1 in
  let th_wp2 = Cpu.throughput ~golden:g wp2 in
  {
    program_name = program.Program.name;
    machine;
    config;
    golden_cycles = g.Cpu.cycles;
    wp1;
    wp2;
    th_wp1;
    th_wp2;
    gain_percent = Wp_util.Stats.percent_gain th_wp1 th_wp2;
    wp1_bound = Analysis.wp1_bound_float config;
  }

let run_spec ?cancel ~spec ~machine ~program config =
  (* An already-expired token must not burn a golden run (the memo is
     shared, but a miss still simulates). *)
  (match cancel with
  | Some c -> Wp_util.Cancel.check ~what:"before golden run" c
  | None -> ());
  (* The golden run is always clean and unprotected: faults perturb the
     wire-pipelined systems under test, never the reference they are
     judged against — and the link layer exists to make the protected
     runs equivalent to that untouched reference.  It also runs without
     the cancel token: it is memoized and shared across requests, so a
     cancelled caller must not poison the table for everyone else. *)
  let g = golden ~engine:spec.Run_spec.engine ~machine program in
  (* The golden cycle count is the work the wire-pipelined runs must
     complete, so it feeds the MCR-guided bound: each run is capped at
     [ceil (golden / Th) + slack] instead of the blanket 2M budget. *)
  let mcr_work = g.Cpu.cycles in
  let wp1 =
    checked_run ?cancel ~mcr_work ~spec ~machine ~mode:Shell.Plain ~config
      program
  in
  let wp2 =
    checked_run ?cancel ~mcr_work ~spec ~machine ~mode:Shell.Oracle ~config
      program
  in
  record ~machine ~config ~golden:g program wp1 wp2


(* Batched [run_spec]: every request contributes two lanes (WP1 plain +
   WP2 oracle) of one [Cpu.run_batch], where each unfaulted lane replays
   the schedule its structure's runs share.  Per-request failures
   (deadlock, exhausted budget, wrong result) come back as [Error] in
   place — they must not poison the other lanes — while a kernel-level
   raise (which only a non-benign fault can cause, and
   [Run_spec.batchable] excludes those) propagates to the caller. *)
let run_batch_spec ?cancels ~machine
    (requests : (Run_spec.t * Program.t * Config.t) array) =
  let n = Array.length requests in
  if n = 0 then [||]
  else begin
    Array.iter
      (fun ((spec : Run_spec.t), _, _) ->
        if spec.Run_spec.engine <> Wp_sim.Sim.Fast then
          invalid_arg "Experiment.run_batch_spec: engine must be Fast")
      requests;
    let cancel_of i =
      match cancels with
      | Some cs when Array.length cs = n -> cs.(i)
      | Some _ ->
        invalid_arg "Experiment.run_batch_spec: cancels length mismatch"
      | None -> (
        match (let s, _, _ = requests.(i) in s.Run_spec.deadline_ms) with
        | Some ms -> Wp_util.Cancel.create ~deadline_ms:ms ()
        | None -> Wp_util.Cancel.never)
    in
    let lane_cancels = Array.init n cancel_of in
    let goldens =
      Array.map
        (fun ((spec : Run_spec.t), program, _) ->
          golden ~engine:spec.Run_spec.engine ~machine program)
        requests
    in
    let items =
      Array.init (2 * n) (fun k ->
          let i = k / 2 in
          let (spec : Run_spec.t), program, config = requests.(i) in
          {
            Cpu.b_mode = (if k land 1 = 0 then Shell.Plain else Shell.Oracle);
            b_rs = Config.to_fun config;
            b_capacity = spec.Run_spec.capacity;
            b_max_cycles = spec.Run_spec.max_cycles;
            b_mcr_work = Some goldens.(i).Cpu.cycles;
            b_fault = spec.Run_spec.fault;
            b_protect = Run_spec.protect_fun spec;
            b_cancel = lane_cancels.(i);
            b_program = program;
          })
    in
    let lane_results = Cpu.run_batch ~machine items in
    Array.init n (fun i ->
        let _, program, config = requests.(i) in
        match
          ( check lane_results.(2 * i) program config,
            check lane_results.((2 * i) + 1) program config )
        with
        | Error e, _ | _, Error e -> Error e
        | Ok wp1, Ok wp2 -> Ok (record ~machine ~config ~golden:goldens.(i) program wp1 wp2))
  end

let wp2_cycles_objective_spec ~spec ~machine ~program config =
  let g = golden ~engine:spec.Run_spec.engine ~machine program in
  let wp2 =
    Run_spec.run_cpu ~mcr_work:g.Cpu.cycles ~spec ~machine ~mode:Shell.Oracle
      ~rs:(Config.to_fun config) program
  in
  match wp2.Cpu.outcome with
  | Cpu.Completed when wp2.Cpu.result_ok -> Cpu.throughput ~golden:g wp2
  | Cpu.Completed | Cpu.Deadlocked | Cpu.Out_of_cycles | Cpu.Cancelled -> 0.0

