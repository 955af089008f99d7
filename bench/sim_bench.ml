(* Simulation-kernel benchmark: reference interpreter vs compiled Fast
   engine on the Table 1 sweep, with allocation accounting.

   Usage: dune exec bench/sim_bench.exe -- [options]
     --engine fast|ref|static|both|all
                              which kernel(s) to measure (default both;
                              'all' adds the static-schedule kernel)
     --probe core|batch|serve|degradation|topo|flow|all
                              which probe(s) to run (default core; repeatable).
                              core  = the classic engine sweep below
                              batch = 64-lane SoA Batch vs sequential Fast
                              serve = in-process daemon saturation (p50/p99)
                              degradation = serve throughput/p99 with 20%
                                      of clients misbehaving (gate: p99
                                      within 3x clean)
                              topo  = generated-topology scale (ring:1000,
                                      mesh:16x16) cycles/sec per engine
     --smoke                  shrink workloads (also WIREPIPE_BENCH_FAST=1)
     --out FILE               merge machine-readable results into FILE
                              (default BENCH_sim.json; sections from probes
                              not run this time are preserved)
     --min-ratio R            exit non-zero unless fast/ref throughput >= R
                              (core probe) / batch/sequential specs-per-sec
                              >= R (batch probe; floor defaults to 2)
     --gc-stats               print full Gc deltas per measurement

   The workload is the Table 1 configuration sweep (both paper workloads,
   plain and oracle wrappers, golden + Only-X + All-1 + All-2 rows), run
   through Cpu.run exactly as the table driver does.  A second,
   kernel-only measurement steps a deadlocked ring — no process ever
   fires, so every allocated word is the kernel's own; the compiled
   engine must score ~0 words/cycle there. *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Program = Wp_soc.Program
module Cpu = Wp_soc.Cpu
module Shell = Wp_lis.Shell
module Process = Wp_lis.Process
module Config = Wp_core.Config
module Protect = Wp_core.Protect
module Network = Wp_sim.Network
module Engine = Wp_sim.Engine
module Fast = Wp_sim.Fast
module Static = Wp_sim.Static
module Sim = Wp_sim.Sim
module Cycle_ratio = Wp_graph.Cycle_ratio

(* ------------------------------------------------------------------ *)
(* CLI                                                                *)
(* ------------------------------------------------------------------ *)

type options = {
  engines : Sim.kind list;
  smoke : bool;
  out : string;
  min_ratio : float option;
  gc_stats : bool;
  probes : string list;
}

let parse_args () =
  let engines = ref [ Sim.Reference; Sim.Fast ] in
  let smoke = ref (Sys.getenv_opt "WIREPIPE_BENCH_FAST" <> None) in
  let out = ref "BENCH_sim.json" in
  let min_ratio = ref None in
  let gc_stats = ref false in
  let probes = ref [] in
  let argv = Sys.argv in
  let i = ref 1 in
  let next what =
    incr i;
    if !i >= Array.length argv then (Printf.eprintf "sim_bench: %s needs a value\n" what; exit 2);
    argv.(!i)
  in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--engine" -> (
      match next "--engine" with
      | "both" -> engines := [ Sim.Reference; Sim.Fast ]
      | "all" -> engines := [ Sim.Reference; Sim.Fast; Sim.Static ]
      | s -> (
        match Sim.kind_of_string s with
        | Some k -> engines := [ k ]
        | None ->
          Printf.eprintf
            "sim_bench: unknown engine %S (want fast|ref|static|both|all)\n" s;
          exit 2))
    | "--smoke" -> smoke := true
    | "--out" -> out := next "--out"
    | "--min-ratio" -> min_ratio := Some (float_of_string (next "--min-ratio"))
    | "--gc-stats" -> gc_stats := true
    | "--probe" -> (
      match next "--probe" with
      | "all" ->
        probes := !probes @ [ "core"; "batch"; "serve"; "degradation"; "topo"; "flow" ]
      | ("core" | "batch" | "serve" | "degradation" | "topo" | "flow") as p ->
        probes := !probes @ [ p ]
      | s ->
        Printf.eprintf
          "sim_bench: unknown probe %S (want core|batch|serve|degradation|topo|flow|all)\n" s;
        exit 2)
    | a ->
      Printf.eprintf "sim_bench: unknown argument %S\n" a;
      exit 2);
    incr i
  done;
  {
    engines = !engines;
    smoke = !smoke;
    out = !out;
    min_ratio = !min_ratio;
    gc_stats = !gc_stats;
    probes = (if !probes = [] then [ "core" ] else !probes);
  }

(* ------------------------------------------------------------------ *)
(* Workload: the Table 1 sweep                                        *)
(* ------------------------------------------------------------------ *)

let sweep_configs =
  [ ("All 0", Config.zero) ]
  @ List.map
      (fun conn -> (Datapath.connection_name conn, Config.only conn 1))
      Datapath.all_connections
  @ [
      ("All 1 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 1);
      ("All 2 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 2);
    ]

let sweep_programs ~smoke =
  [
    ( "sort",
      Programs.extraction_sort
        ~values:(Programs.sort_values ~seed:1 ~n:(if smoke then 8 else 16)) );
    ( "matmul",
      let n = if smoke then 3 else 5 in
      Programs.matrix_multiply ~n ~a:(Programs.matrix_values ~seed:2 ~n)
        ~b:(Programs.matrix_values ~seed:3 ~n) );
  ]

let sweep_runs ~smoke =
  List.concat_map
    (fun (_, program) ->
      List.concat_map
        (fun mode -> List.map (fun (_, config) -> (program, mode, config)) sweep_configs)
        [ Shell.Plain; Shell.Oracle ])
    (sweep_programs ~smoke)

type measurement = {
  runs : int;
  total_cycles : int;
  seconds : float;
  minor_words : float;
}

let cycles_per_sec m =
  if m.seconds <= 0.0 then 0.0 else float_of_int m.total_cycles /. m.seconds

let words_per_cycle m =
  if m.total_cycles = 0 then 0.0 else m.minor_words /. float_of_int m.total_cycles

let measure_runs ~engine ?protect ?telemetry runs =
  (* Warm-up pass: fault in code paths and steady-state the heap so the
     measured pass compares kernels, not cold starts. *)
  let execute () =
    List.fold_left
      (fun acc (program, mode, config) ->
        let r =
          Cpu.run ~engine ?protect ?telemetry ~machine:Datapath.Pipelined ~mode
            ~rs:(Config.to_fun config) program
        in
        if r.Cpu.outcome <> Cpu.Completed then failwith "sim_bench: sweep run did not complete";
        acc + r.Cpu.cycles)
      0 runs
  in
  ignore (execute ());
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let total_cycles = execute () in
  let seconds = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    runs = List.length runs;
    total_cycles;
    seconds;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
  }

(* The static kernel has no oracle-mode firing word, so its sweep covers
   the Plain rows only — still the same programs and RS configurations,
   just not comparable head-to-head with the dynamic engines' numbers
   (those are gated by [speedup] on Reference vs Fast anyway). *)
let runs_for ~engine ~smoke =
  let runs = sweep_runs ~smoke in
  match engine with
  | Sim.Static -> List.filter (fun (_, mode, _) -> mode = Shell.Plain) runs
  | Sim.Reference | Sim.Fast -> runs

let measure_sweep ~engine ~smoke = measure_runs ~engine (runs_for ~engine ~smoke)

(* ------------------------------------------------------------------ *)
(* Link-protection overhead probe                                      *)
(* ------------------------------------------------------------------ *)

(* Same workloads, plain wrappers, a representative pair of configs; run
   once with every connection link-protected and once bare.  Clean
   protected runs are cycle-neutral (the link's forward latency matches
   the relay stations it subsumes and the credit window covers the round
   trip), so the steady-state overhead is the throughput ratio in
   simulated cycles per second, alongside the kernel's words/cycle in
   each regime — the Fast engine must not allocate more per cycle with
   the link layer engaged. *)
let link_runs ~smoke =
  let configs = [ Config.zero; Config.uniform ~except:[ Datapath.CU_IC ] 1 ] in
  List.concat_map
    (fun (_, program) ->
      List.map (fun config -> (program, Shell.Plain, config)) configs)
    (sweep_programs ~smoke)

let protect_all = Protect.to_fun (Protect.all ())

let measure_link ~engine ~smoke ~protected_ =
  measure_runs ~engine
    ?protect:(if protected_ then Some protect_all else None)
    (link_runs ~smoke)

(* ------------------------------------------------------------------ *)
(* Telemetry overhead probe                                            *)
(* ------------------------------------------------------------------ *)

(* The full Table 1 sweep, counters-only telemetry vs telemetry off.
   The counters path is a few dozen array updates per cycle (one class
   write per node, occupancy/stop/gap bookkeeping per channel), so the
   compiled kernel should stay within a few percent of its bare
   throughput (target < 3%; see EXPERIMENTS.md for what we actually
   measure), and the telemetry-off path must stay allocation-free. *)
let measure_telemetry ~engine ~smoke ~telemetry_on =
  measure_runs ~engine
    ?telemetry:
      (if telemetry_on then Some Wp_sim.Telemetry.counters else None)
    (sweep_runs ~smoke)

(* ------------------------------------------------------------------ *)
(* Kernel-only allocation probe                                       *)
(* ------------------------------------------------------------------ *)

(* A two-node zero-RS ring under capacity-1 FIFOs deadlocks at reset:
   every step executes all three kernel phases but no process fires, so
   the measured allocation is purely the kernel's. *)
let stalled_ring () =
  let relay name = Process.unary ~name ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let net = Network.create () in
  let a = Network.add net (relay "a") in
  let b = Network.add net (relay "b") in
  ignore (Network.connect net ~src:(a, "o") ~dst:(b, "i") ());
  ignore (Network.connect net ~src:(b, "o") ~dst:(a, "i") ());
  net

let probe_cycles = 200_000

let measure_kernel_steps ~engine ~capacity net =
  let step =
    match engine with
    | Sim.Reference ->
      let e = Engine.create ~capacity ~mode:Shell.Plain net in
      fun () -> Engine.step e
    | Sim.Fast ->
      let f = Fast.create ~capacity ~mode:Shell.Plain net in
      fun () -> Fast.step f
    | Sim.Static ->
      let s = Static.create ~capacity ~mode:Shell.Plain net in
      fun () -> Static.step s
  in
  for _ = 1 to 1_000 do step () done;
  (* Each timed window is only tens of milliseconds, so a single sample
     is at the mercy of scheduler noise; keep the fastest of three. *)
  let best = ref infinity in
  let words = ref 0.0 in
  for _ = 1 to 3 do
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to probe_cycles do step () done;
    let seconds = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    if seconds < !best then begin
      best := seconds;
      words := g1.Gc.minor_words -. g0.Gc.minor_words
    end
  done;
  { runs = 1; total_cycles = probe_cycles; seconds = !best; minor_words = !words }

let measure_kernel_stall ~engine =
  measure_kernel_steps ~engine ~capacity:1 (stalled_ring ())

(* ------------------------------------------------------------------ *)
(* Static-kernel probe                                                *)
(* ------------------------------------------------------------------ *)

(* Fast vs Static on two kernel-only workloads: the deadlocked ring
   (pure per-cycle overhead — the static table replays an all-stall
   period, so this is where table lookup beats the three-phase
   handshake hardest) and a live 2/3-rate ring whose shells actually
   fire.  Alongside the timing, an exact-rational cross-check: the
   firing word the prepass discovered must sustain precisely the rate
   of the balanced-word schedule on the capacity-extended marked graph
   — 0/1 for the deadlocked ring, 2/3 for the live one. *)
let live_ring () =
  let relay name = Process.unary ~name ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let net = Network.create () in
  let a = Network.add net (relay "a") in
  let b = Network.add net (relay "b") in
  ignore (Network.connect net ~src:(a, "o") ~dst:(b, "i") ~relay_stations:1 ());
  ignore (Network.connect net ~src:(b, "o") ~dst:(a, "i") ());
  net

let check_static_rate ~capacity ~what net expected =
  let st = Static.create ~capacity ~mode:Shell.Plain net in
  let sched = Static.schedule ~capacity net in
  let measured = Static.rate st 0 in
  let show r = Printf.sprintf "%d/%d" r.Cycle_ratio.num r.Cycle_ratio.den in
  if measured <> sched.Wp_graph.Schedule.rate || measured <> expected then begin
    Printf.eprintf
      "sim_bench: FAIL — %s: static word rate %s, schedule rate %s, expected %s\n"
      what (show measured)
      (show sched.Wp_graph.Schedule.rate)
      (show expected);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let engine_name = function
  | Sim.Reference -> "reference"
  | Sim.Fast -> "fast"
  | Sim.Static -> "static"

let print_measurement ~gc_stats name m =
  Printf.printf "%-10s %3d runs  %9d cycles  %7.3f s  %12.0f cyc/s  %8.2f words/cycle\n"
    name m.runs m.total_cycles m.seconds (cycles_per_sec m) (words_per_cycle m);
  if gc_stats then
    Printf.printf "           minor words: %.0f (%.1f per cycle, %.0f per run)\n" m.minor_words
      (words_per_cycle m)
      (m.minor_words /. float_of_int (max 1 m.runs))

let json_of_measurement m =
  Printf.sprintf
    "{ \"runs\": %d, \"cycles\": %d, \"seconds\": %.6f, \"cycles_per_sec\": %.1f, \
     \"minor_words_per_cycle\": %.4f }"
    m.runs m.total_cycles m.seconds (cycles_per_sec m) (words_per_cycle m)


(* ------------------------------------------------------------------ *)
(* Probe: the classic engine sweep (reference vs fast vs static)      *)
(* ------------------------------------------------------------------ *)

(* Each probe returns its JSON sections as [(key, raw value)] pairs plus
   a list of gate failures; main merges the sections into the output
   file ({!Wp_util.Json_merge}), so a single-probe run updates only its
   own sections instead of dropping everyone else's numbers. *)

let run_core opts =
  Printf.printf "Simulation kernel benchmark — Table 1 sweep (%s workloads)\n%!"
    (if opts.smoke then "smoke" else "full");
  let sweep =
    List.map
      (fun engine ->
        let m = measure_sweep ~engine ~smoke:opts.smoke in
        print_measurement ~gc_stats:opts.gc_stats (engine_name engine) m;
        (engine, m))
      opts.engines
  in
  print_endline "kernel-only stall probe (deadlocked ring, no process firings):";
  let stall =
    List.map
      (fun engine ->
        let m = measure_kernel_stall ~engine in
        print_measurement ~gc_stats:opts.gc_stats (engine_name engine) m;
        (engine, m))
      opts.engines
  in
  print_endline "static-kernel probe (table replay vs compiled kernel):";
  let static_kernel =
    check_static_rate ~capacity:1 ~what:"stalled ring" (stalled_ring ())
      (Cycle_ratio.make_ratio 0 1);
    check_static_rate ~capacity:2 ~what:"live ring" (live_ring ())
      (Cycle_ratio.make_ratio 2 3);
    let stall_fast = measure_kernel_steps ~engine:Sim.Fast ~capacity:1 (stalled_ring ()) in
    let stall_static = measure_kernel_steps ~engine:Sim.Static ~capacity:1 (stalled_ring ()) in
    let live_fast = measure_kernel_steps ~engine:Sim.Fast ~capacity:2 (live_ring ()) in
    let live_static = measure_kernel_steps ~engine:Sim.Static ~capacity:2 (live_ring ()) in
    print_measurement ~gc_stats:opts.gc_stats "fast/stall" stall_fast;
    print_measurement ~gc_stats:opts.gc_stats "static/stall" stall_static;
    print_measurement ~gc_stats:opts.gc_stats "fast/live" live_fast;
    print_measurement ~gc_stats:opts.gc_stats "static/live" live_static;
    let ratio a b = if cycles_per_sec b > 0.0 then cycles_per_sec a /. cycles_per_sec b else 0.0 in
    let stall_speedup = ratio stall_static stall_fast in
    let live_speedup = ratio live_static live_fast in
    Printf.printf "static/fast speedup: %.2fx stalled, %.2fx live\n" stall_speedup live_speedup;
    (stall_fast, stall_static, live_fast, live_static, stall_speedup, live_speedup)
  in
  (* Link protection and telemetry are unschedulable by construction, so
     those two probes only cover the dynamic engines. *)
  let dynamic_engines = List.filter (fun e -> e <> Sim.Static) opts.engines in
  print_endline "link-protection overhead (plain wrappers, all connections protected):";
  let link =
    List.map
      (fun engine ->
        let bare = measure_link ~engine ~smoke:opts.smoke ~protected_:false in
        let prot = measure_link ~engine ~smoke:opts.smoke ~protected_:true in
        print_measurement ~gc_stats:opts.gc_stats (engine_name engine ^ "/bare") bare;
        print_measurement ~gc_stats:opts.gc_stats (engine_name engine ^ "/link") prot;
        let slowdown =
          if cycles_per_sec prot > 0.0 then cycles_per_sec bare /. cycles_per_sec prot else 0.0
        in
        Printf.printf "%-10s protected slowdown %.2fx (%.2f -> %.2f words/cycle)\n"
          (engine_name engine) slowdown (words_per_cycle bare) (words_per_cycle prot);
        (engine, (bare, prot, slowdown)))
      dynamic_engines
  in
  print_endline "telemetry overhead (counters on vs off, plain wrappers):";
  let telemetry =
    List.map
      (fun engine ->
        let off = measure_telemetry ~engine ~smoke:opts.smoke ~telemetry_on:false in
        let on = measure_telemetry ~engine ~smoke:opts.smoke ~telemetry_on:true in
        print_measurement ~gc_stats:opts.gc_stats (engine_name engine ^ "/off") off;
        print_measurement ~gc_stats:opts.gc_stats (engine_name engine ^ "/tel") on;
        let slowdown =
          if cycles_per_sec on > 0.0 then cycles_per_sec off /. cycles_per_sec on else 0.0
        in
        Printf.printf "%-10s telemetry slowdown %.3fx (%.2f -> %.2f words/cycle)\n"
          (engine_name engine) slowdown (words_per_cycle off) (words_per_cycle on);
        (engine, (off, on, slowdown)))
      dynamic_engines
  in
  let speedup =
    match (List.assoc_opt Sim.Reference sweep, List.assoc_opt Sim.Fast sweep) with
    | Some r, Some f when cycles_per_sec r > 0.0 -> Some (cycles_per_sec f /. cycles_per_sec r)
    | _ -> None
  in
  (match speedup with
  | Some s -> Printf.printf "fast/reference throughput ratio: %.2fx\n" s
  | None -> ());
  let engine_map entries =
    Printf.sprintf "{\n%s\n  }"
      (String.concat ",\n"
         (List.map
            (fun (e, m) -> Printf.sprintf "    %S: %s" (engine_name e) (json_of_measurement m))
            entries))
  in
  let stall_fast, stall_static, live_fast, live_static, stall_speedup, live_speedup =
    static_kernel
  in
  let static_pass = stall_speedup > 1.0 in
  let pass =
    match (opts.min_ratio, speedup) with
    | Some r, Some s -> s >= r
    | Some _, None -> false
    | None, _ -> true
  in
  let sections =
    [
      ("smoke", Printf.sprintf "%b" opts.smoke);
      ( "workloads",
        Printf.sprintf "[%s]"
          (String.concat ", "
             (List.map (fun (n, _) -> Printf.sprintf "%S" n) (sweep_programs ~smoke:opts.smoke)))
      );
      ("table1_sweep", engine_map sweep);
      ("kernel_stall_probe", engine_map stall);
      ( "link_overhead",
        Printf.sprintf "{\n%s\n  }"
          (String.concat ",\n"
             (List.map
                (fun (e, (bare, prot, slowdown)) ->
                  Printf.sprintf
                    "    %S: { \"unprotected\": %s,\n           \"protected\": %s,\n           \
                     \"slowdown\": %.3f }"
                    (engine_name e) (json_of_measurement bare) (json_of_measurement prot) slowdown)
                link)) );
      ( "telemetry_overhead",
        Printf.sprintf "{\n%s\n  }"
          (String.concat ",\n"
             (List.map
                (fun (e, (off, on, slowdown)) ->
                  Printf.sprintf
                    "    %S: { \"off\": %s,\n           \"on\": %s,\n           \
                     \"slowdown\": %.3f }"
                    (engine_name e) (json_of_measurement off) (json_of_measurement on) slowdown)
                telemetry)) );
      ( "static_kernel",
        Printf.sprintf
          "{\n    \"stall\": { \"fast\": %s,\n               \"static\": %s,\n               \
           \"speedup\": %.3f },\n    \"live\": { \"fast\": %s,\n              \"static\": %s,\n   \
           \           \"speedup\": %.3f },\n    \"pass\": %b\n  }"
          (json_of_measurement stall_fast)
          (json_of_measurement stall_static)
          stall_speedup
          (json_of_measurement live_fast)
          (json_of_measurement live_static)
          live_speedup static_pass );
    ]
    @ (match speedup with
      | Some s -> [ ("speedup", Printf.sprintf "%.3f" s) ]
      | None -> [])
    @ (match opts.min_ratio with
      | Some r -> [ ("min_ratio", Printf.sprintf "%.3f" r) ]
      | None -> [])
    @ [ ("pass", Printf.sprintf "%b" pass) ]
  in
  let failures =
    (if static_pass then []
     else
       [
         Printf.sprintf
           "sim_bench: FAIL — static kernel not strictly faster than fast on the stall probe \
            (%.2fx)"
           stall_speedup;
       ])
    @
    if pass then []
    else
      match (opts.min_ratio, speedup) with
      | Some r, Some s ->
        [ Printf.sprintf "sim_bench: FAIL — fast/reference ratio %.2f below required %.2f" s r ]
      | Some r, None ->
        [ Printf.sprintf "sim_bench: FAIL — ratio check requires both engines (min %.2f)" r ]
      | None, _ -> []
  in
  (sections, failures)

(* ------------------------------------------------------------------ *)
(* Probe: batched SoA kernel vs sequential Fast                       *)
(* ------------------------------------------------------------------ *)

(* N = 64 independent Run_specs stepped as one Wp_sim.Batch invocation
   vs the same specs run one after another on Fast.  Two workloads:

   - stall-heavy: random programs under deep relay-station chains
     (uniform 1..4 everywhere but CU-IC, capacity 2) — the paper's
     wire-pipelined regime, where most cycles move tokens through relay
     stations rather than firing processes.  This is the gated ratio:
     the batch kernel's static-schedule replay amortizes all of that
     handshake work across lanes.
   - mixed: alternating bare and All-1 configurations with varying
     capacities — process-execution-bound, so the achievable ratio is
     structurally smaller; it is reported but not gated.

   Lanes are Plain and unfaulted in both workloads, matching Table 1's
   throughput rows.  Results byte-match per-lane Fast by construction
   (the 50-seed differential battery in test_batch.ml asserts it). *)

let batch_lanes = 64
let batch_max_cycles = 2_000_000

let batch_program seed =
  match Programs.of_string (Printf.sprintf "random:%d" seed) with
  | Ok p -> p
  | Error m -> failwith ("sim_bench: random program: " ^ m)

let batch_workload kind =
  Array.init batch_lanes (fun i ->
      match kind with
      | `Stall ->
        let config = Config.uniform ~except:[ Datapath.CU_IC ] (1 + (i mod 4)) in
        (batch_program (1000 + i), config, 2)
      | `Mixed ->
        let config =
          if i mod 2 = 0 then Config.zero
          else Config.uniform ~except:[ Datapath.CU_IC ] 1
        in
        (batch_program i, config, 2 + (i mod 3)))

let measure_batch_workload ~reps kind =
  let specs = batch_workload kind in
  let dps =
    Array.map
      (fun (program, config, _) ->
        Datapath.build ~machine:Datapath.Pipelined ~rs:(Config.to_fun config) program)
      specs
  in
  let lanes =
    Array.mapi
      (fun i dp ->
        let _, _, capacity = specs.(i) in
        {
          Wp_sim.Batch.net = dp.Datapath.network;
          mode = Shell.Plain;
          capacity;
          fault = Wp_sim.Fault.none;
          max_cycles = batch_max_cycles;
          cancel = Wp_util.Cancel.never;
        })
      dps
  in
  let run_seq () =
    Array.iteri
      (fun i dp ->
        let _, _, capacity = specs.(i) in
        let f = Fast.create ~capacity ~mode:Shell.Plain dp.Datapath.network in
        ignore (Fast.run ~max_cycles:batch_max_cycles f))
      dps
  in
  let run_batch () =
    let b = Wp_sim.Batch.create lanes in
    ignore (Wp_sim.Batch.run b)
  in
  let time f =
    f ();
    (* one warm-up rep *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do f () done;
    Unix.gettimeofday () -. t0
  in
  let seq_s = time run_seq in
  let batch_s = time run_batch in
  let specs_per_sec s =
    if s <= 0.0 then 0.0 else float_of_int (batch_lanes * reps) /. s
  in
  (specs_per_sec seq_s, specs_per_sec batch_s)

let run_batch_probe opts =
  let reps = if opts.smoke then 10 else 30 in
  let floor = match opts.min_ratio with Some r -> r | None -> 2.0 in
  Printf.printf
    "batch-kernel probe (%d lanes, %d reps, sequential Fast vs fused Batch):\n%!"
    batch_lanes reps;
  let seq_stall, batch_stall = measure_batch_workload ~reps `Stall in
  let seq_mixed, batch_mixed = measure_batch_workload ~reps `Mixed in
  let ratio seq batch = if seq > 0.0 then batch /. seq else 0.0 in
  let stall_ratio = ratio seq_stall batch_stall in
  let mixed_ratio = ratio seq_mixed batch_mixed in
  Printf.printf
    "  stall-heavy: %8.1f specs/s sequential, %8.1f specs/s batched — %.2fx (floor %.2fx)\n"
    seq_stall batch_stall stall_ratio floor;
  Printf.printf
    "  mixed:       %8.1f specs/s sequential, %8.1f specs/s batched — %.2fx (reported only)\n"
    seq_mixed batch_mixed mixed_ratio;
  let pass = stall_ratio >= floor in
  let workload_json seq batch r =
    Printf.sprintf
      "{ \"seq_specs_per_sec\": %.1f, \"batch_specs_per_sec\": %.1f, \"ratio\": %.3f }"
      seq batch r
  in
  let sections =
    [
      ( "batch_kernel",
        Printf.sprintf
          "{\n    \"lanes\": %d,\n    \"reps\": %d,\n    \"stall_heavy\": %s,\n    \"mixed\": \
           %s,\n    \"min_ratio\": %.3f,\n    \"pass\": %b\n  }"
          batch_lanes reps
          (workload_json seq_stall batch_stall stall_ratio)
          (workload_json seq_mixed batch_mixed mixed_ratio)
          floor pass );
    ]
  in
  let failures =
    if pass then []
    else
      [
        Printf.sprintf
          "sim_bench: FAIL — batch/sequential specs-per-sec ratio %.2f below required %.2f \
           (stall-heavy workload, %d lanes)"
          stall_ratio floor batch_lanes;
      ]
  in
  (sections, failures)

(* ------------------------------------------------------------------ *)
(* Probe: serve-daemon saturation                                     *)
(* ------------------------------------------------------------------ *)

(* An in-process Service daemon on a throwaway socket, driven through
   Service.Client at increasing offered load (pipelining windows 1 and
   8).  Every request is a distinct random program, so each one is real
   simulation work, not a cache hit; latency is measured send-to-reply
   per request, so queueing delay under load lands in p99 exactly as a
   remote client would see it. *)

let serve_levels = [ 1; 8 ]

let run_serve_probe opts =
  let n_requests = if opts.smoke then 8 else 32 in
  Printf.printf "serve-saturation probe (windows %s, %d requests each):\n%!"
    (String.concat ", " (List.map string_of_int serve_levels))
    n_requests;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp_bench_%d.sock" (Unix.getpid ()))
  in
  let runner = Wp_core.Runner.create ~cache:false () in
  let svc = Wp_core.Service.create ~runner socket in
  let conn = Wp_core.Service.Client.connect socket in
  let errors = ref 0 in
  let measure_level level_idx window =
    let module Client = Wp_core.Service.Client in
    let module Wire = Wp_core.Wire in
    let base = 10_000 * (level_idx + 1) in
    let args i =
      Wire.run_defaults
        ~program:(Printf.sprintf "random:%d" (base + i))
        ~machine:"pipelined" ~config:"none"
    in
    let lat = Array.make n_requests 0.0 in
    let sent_at = Array.make n_requests 0.0 in
    let busy = ref 0 in
    let sent = ref 0 and recvd = ref 0 in
    let t0 = Unix.gettimeofday () in
    while !recvd < n_requests do
      while !sent < n_requests && !sent - !recvd < window do
        sent_at.(!sent) <- Unix.gettimeofday ();
        Client.send conn ~tag:!sent (Wire.Run (args !sent));
        incr sent
      done;
      match Client.recv conn with
      | None -> failwith "sim_bench: daemon closed the connection"
      | Some (tag, Wire.Busy _) ->
        incr busy;
        Thread.delay 0.002;
        Client.send conn ~tag (Wire.Run (args tag))
      | Some (tag, reply) ->
        lat.(tag) <- Unix.gettimeofday () -. sent_at.(tag);
        incr recvd;
        (match reply with
        | Wire.Result _ -> ()
        | Wire.Error m ->
          incr errors;
          Printf.eprintf "sim_bench: serve probe: daemon error: %s\n" m
        | Wire.Quarantined { last_error; _ } ->
          incr errors;
          Printf.eprintf "sim_bench: serve probe: quarantined: %s\n" last_error
        | _ -> ())
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    Array.sort compare lat;
    let pct p = lat.(min (n_requests - 1) (n_requests * p / 100)) *. 1e3 in
    let specs_per_sec =
      if elapsed > 0.0 then float_of_int n_requests /. elapsed else 0.0
    in
    let p50 = pct 50 and p99 = pct 99 in
    Printf.printf
      "  window %2d: %7.1f specs/s, p50 %7.2f ms, p99 %7.2f ms, %d busy retries\n"
      window specs_per_sec p50 p99 !busy;
    Printf.sprintf
      "{ \"window\": %d, \"requests\": %d, \"specs_per_sec\": %.1f, \"p50_ms\": %.3f, \
       \"p99_ms\": %.3f, \"busy\": %d }"
      window n_requests specs_per_sec p50 p99 !busy
  in
  let levels = List.mapi measure_level serve_levels in
  Wp_core.Service.Client.close conn;
  Wp_core.Service.stop svc;
  Wp_core.Runner.shutdown runner;
  let pass = !errors = 0 in
  let sections =
    [
      ( "serve_saturation",
        Printf.sprintf "{\n    \"levels\": [\n      %s\n    ],\n    \"pass\": %b\n  }"
          (String.concat ",\n      " levels)
          pass );
    ]
  in
  let failures =
    if pass then []
    else [ Printf.sprintf "sim_bench: FAIL — serve probe saw %d error replies" !errors ]
  in
  (sections, failures)

(* ------------------------------------------------------------------ *)
(* Probe: degradation under misbehaving clients                       *)
(* ------------------------------------------------------------------ *)

(* The serve numbers with 20% of the tenants misbehaving: four
   well-behaved clients run the usual distinct-program workload while a
   fifth connection cycles through the hostile repertoire (framed
   garbage, then a reply flood it never reads).  Throughput and p99 are
   measured for the well-behaved clients only, once clean and once
   under attack; the gate is the fault-boundary invariant — hostile
   tenants may cost throughput, never correctness (no error replies to
   the good clients) and no more than 3x the clean p99. *)

let degradation_good_clients = 4

let run_degradation_probe opts =
  let module Client = Wp_core.Service.Client in
  let module Wire = Wp_core.Wire in
  let module Frame = Wp_util.Frame in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n_requests = if opts.smoke then 8 else 32 in
  Printf.printf
    "degradation probe (%d well-behaved clients x %d requests, 1 hostile):\n%!"
    degradation_good_clients n_requests;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp_bench_degrade_%d.sock" (Unix.getpid ()))
  in
  let runner = Wp_core.Runner.create ~cache:false () in
  let svc =
    Wp_core.Service.create ~reply_bound:32 ~stall_timeout:0.5
      ~write_timeout:0.3 ~runner socket
  in
  let errors = ref 0 in
  let emut = Mutex.create () in
  let fail msg =
    Mutex.lock emut;
    incr errors;
    Mutex.unlock emut;
    Printf.eprintf "sim_bench: degradation probe: %s\n" msg
  in
  (* One well-behaved client: window 2, every request a distinct random
     program (real work, not hits), latency measured send-to-reply. *)
  let good_client ~base deliver =
    Thread.create
      (fun () ->
        let conn = Client.connect socket in
        let args i =
          Wire.run_defaults
            ~program:(Printf.sprintf "random:%d" (base + i))
            ~machine:"pipelined" ~config:"none"
        in
        let lat = Array.make n_requests 0.0 in
        let sent_at = Array.make n_requests 0.0 in
        let sent = ref 0 and recvd = ref 0 in
        while !recvd < n_requests do
          while !sent < n_requests && !sent - !recvd < 2 do
            sent_at.(!sent) <- Unix.gettimeofday ();
            Client.send conn ~tag:!sent (Wire.Run (args !sent));
            incr sent
          done;
          match Client.recv conn with
          | None -> failwith "sim_bench: daemon closed a well-behaved client"
          | Some (tag, Wire.Busy _) ->
            Thread.delay 0.002;
            Client.send conn ~tag (Wire.Run (args tag))
          | Some (tag, reply) ->
            lat.(tag) <- Unix.gettimeofday () -. sent_at.(tag);
            incr recvd;
            (match reply with
            | Wire.Result _ -> ()
            | Wire.Error m -> fail m
            | Wire.Deadline_exceeded m -> fail ("deadline: " ^ m)
            | Wire.Quarantined { last_error; _ } ->
              fail ("quarantined: " ^ last_error)
            | _ -> ())
        done;
        Client.close conn;
        deliver lat)
      ()
  in
  let hostile_loop stop =
    let ping = Wire.encode_request ~tag:0 Wire.Ping in
    let prefix =
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 (Int32.of_int (String.length ping));
      Bytes.to_string b
    in
    let burst = String.concat "" (List.init 256 (fun _ -> prefix ^ ping)) in
    while not !stop do
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Unix.connect fd (Unix.ADDR_UNIX socket);
         (try
            for _ = 1 to 20 do
              Frame.write fd "garbage!";
              ignore (Frame.read fd)
            done;
            (* now turn slow-loris: flood pings, never read a pong *)
            for _ = 1 to 20 do
              ignore (Unix.write_substring fd burst 0 (String.length burst))
            done
          with _ -> ());
         (try Unix.close fd with _ -> ())
       with _ -> ());
      Thread.delay 0.005
    done
  in
  let measure ~hostile ~base =
    let all = ref [] in
    let amut = Mutex.create () in
    let stop = ref false in
    let attacker = if hostile then Some (Thread.create hostile_loop stop) else None in
    let t0 = Unix.gettimeofday () in
    let goods =
      List.init degradation_good_clients (fun i ->
          good_client
            ~base:(base + (i * n_requests))
            (fun lat ->
              Mutex.lock amut;
              all := Array.to_list lat @ !all;
              Mutex.unlock amut))
    in
    List.iter Thread.join goods;
    let elapsed = Unix.gettimeofday () -. t0 in
    stop := true;
    Option.iter Thread.join attacker;
    let lat = Array.of_list !all in
    Array.sort compare lat;
    let n = Array.length lat in
    let p99 = lat.(min (n - 1) (n * 99 / 100)) *. 1e3 in
    (float_of_int n /. elapsed, p99)
  in
  let clean_specs, clean_p99 = measure ~hostile:false ~base:40_000 in
  Printf.printf "  clean:    %7.1f specs/s, p99 %7.2f ms\n%!" clean_specs clean_p99;
  let att_specs, att_p99 = measure ~hostile:true ~base:50_000 in
  let counters = Wp_core.Service.counters svc in
  Printf.printf
    "  attacked: %7.1f specs/s, p99 %7.2f ms (%d shed, %d slow-client disconnects)\n%!"
    att_specs att_p99 counters.Wp_core.Service.shed
    counters.Wp_core.Service.slow_disconnects;
  Wp_core.Service.stop svc;
  Wp_core.Runner.shutdown runner;
  (* The floor keeps a microsecond-scale clean p99 from turning
     scheduler noise into a failure. *)
  let limit = Float.max (3.0 *. clean_p99) (clean_p99 +. 25.0) in
  let pass = !errors = 0 && att_p99 <= limit in
  let sections =
    [
      ( "degradation",
        Printf.sprintf
          "{\n    \"good_clients\": %d,\n    \"requests_per_client\": %d,\n    \
           \"clean\": { \"specs_per_sec\": %.1f, \"p99_ms\": %.3f },\n    \
           \"attacked\": { \"specs_per_sec\": %.1f, \"p99_ms\": %.3f },\n    \
           \"shed\": %d,\n    \"slow_disconnects\": %d,\n    \"pass\": %b\n  }"
          degradation_good_clients n_requests clean_specs clean_p99 att_specs
          att_p99 counters.Wp_core.Service.shed
          counters.Wp_core.Service.slow_disconnects pass );
    ]
  in
  let failures =
    if pass then []
    else if !errors > 0 then
      [
        Printf.sprintf
          "sim_bench: FAIL — degradation probe: %d error replies to well-behaved clients"
          !errors;
      ]
    else
      [
        Printf.sprintf
          "sim_bench: FAIL — degradation probe: p99 under attack %.2f ms exceeds \
           limit %.2f ms (clean %.2f ms)"
          att_p99 limit clean_p99;
      ]
  in
  (sections, failures)

(* ------------------------------------------------------------------ *)
(* Probe: generated-topology scale                                    *)
(* ------------------------------------------------------------------ *)

(* Cycles/sec on two generated instances an order of magnitude past the
   Table 1 SoC: a 1000-block ring (deep pipeline, one loop) and a
   16x16 mesh (256 blocks, 481 channels, dense feedback through the
   mesh return edge).  The same Topology.build output feeds test_topo
   and wp_cli sweep, so these numbers anchor what the differential
   battery and sweep harness cost per simulated cycle.  The static
   engine's measured word rate is cross-checked against the Howard-MCR
   bound of the capacity-extended graph before timing. *)

let topo_instances = [ "ring:1000"; "mesh:16x16" ]

let measure_topo_steps ~engine ~cycles net =
  let step =
    match engine with
    | Sim.Reference ->
      let e = Engine.create ~capacity:2 ~mode:Shell.Plain net in
      fun () -> Engine.step e
    | Sim.Fast ->
      let f = Fast.create ~capacity:2 ~mode:Shell.Plain net in
      fun () -> Fast.step f
    | Sim.Static ->
      let s = Static.create ~capacity:2 ~mode:Shell.Plain net in
      fun () -> Static.step s
  in
  for _ = 1 to 100 do step () done;
  let best = ref infinity in
  let words = ref 0.0 in
  for _ = 1 to 3 do
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to cycles do step () done;
    let seconds = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    if seconds < !best then begin
      best := seconds;
      words := g1.Gc.minor_words -. g0.Gc.minor_words
    end
  done;
  { runs = 1; total_cycles = cycles; seconds = !best; minor_words = !words }

let run_topo_probe opts =
  let module Topology = Wp_topo.Topology in
  let cycles = if opts.smoke then 1_000 else 10_000 in
  Printf.printf "generated-topology probe (%d timed cycles, capacity 2):\n%!" cycles;
  (* The static table replays every engine's steady state, so its word
     rate must match the marked-graph bound exactly — gate on it before
     spending time on the measurements. *)
  let failures = ref [] in
  let instances =
    List.map
      (fun name ->
        let spec =
          match Topology.of_string name with
          | Ok t -> t
          | Error e -> failwith (Printf.sprintf "sim_bench: %s: %s" name e)
        in
        let net = Topology.build spec in
        let bound = Topology.mcr ~capacity:2 net in
        let st = Static.create ~capacity:2 ~mode:Shell.Plain net in
        let rate = Static.rate st 0 in
        if rate <> bound then
          failures :=
            !failures
            @ [
                Printf.sprintf
                  "sim_bench: FAIL — %s: static word rate %d/%d != Howard-MCR bound %d/%d"
                  name rate.Cycle_ratio.num rate.Cycle_ratio.den
                  bound.Cycle_ratio.num bound.Cycle_ratio.den;
              ];
        Printf.printf "%s: %d blocks, %d channels, bound %d/%d\n" name
          (Network.node_count net) (Network.channel_count net)
          bound.Cycle_ratio.num bound.Cycle_ratio.den;
        let engines =
          (* always include static here: replaying the table at this
             scale is the point of the probe *)
          if List.mem Sim.Static opts.engines then opts.engines
          else opts.engines @ [ Sim.Static ]
        in
        let per_engine =
          List.map
            (fun engine ->
              let m = measure_topo_steps ~engine ~cycles net in
              print_measurement ~gc_stats:opts.gc_stats
                (Printf.sprintf "%s" (engine_name engine))
                m;
              (engine, m))
            engines
        in
        (name, per_engine))
      topo_instances
  in
  let sections =
    [
      ( "topology_probe",
        Printf.sprintf "{\n%s\n  }"
          (String.concat ",\n"
             (List.map
                (fun (name, per_engine) ->
                  Printf.sprintf "    %S: {\n%s\n    }" name
                    (String.concat ",\n"
                       (List.map
                          (fun (e, m) ->
                            Printf.sprintf "      %S: %s" (engine_name e)
                              (json_of_measurement m))
                          per_engine)))
                instances)) );
    ]
  in
  (sections, !failures)

(* ------------------------------------------------------------------ *)
(* Flow probe: incremental MCR evaluator vs from-scratch re-solve      *)
(* ------------------------------------------------------------------ *)

(* The co-optimization flow's inner loop re-derives a few channels'
   relay-station counts after every move and re-solves the throughput
   bound.  This probe replays one perturbation sequence through both
   evaluators -- the warm-started {!Cycle_ratio.Incremental} state and
   the from-scratch path (set the relay stations on the network, rebuild
   the capacity graph, solve it cold with {!Cycle_ratio.minimum}) --
   checks they agree exactly at every step, and gates on the speedup. *)
let run_flow_probe opts =
  let module Topology = Wp_topo.Topology in
  let name = if opts.smoke then "rand:100" else "rand:1000" in
  let perturbations = if opts.smoke then 60 else 300 in
  let capacity = 2 in
  Printf.printf "flow probe (%s, %d relay-station perturbations, capacity %d):\n%!"
    name perturbations capacity;
  let spec =
    match Topology.of_string name with
    | Ok t -> t
    | Error e -> failwith (Printf.sprintf "sim_bench: %s: %s" name e)
  in
  let net = Topology.build spec in
  let n_chans = Network.channel_count net in
  (* One deterministic perturbation sequence, shared by both sides. *)
  let prng = Wp_util.Prng.create ~seed:7 in
  let seq =
    Array.init perturbations (fun _ ->
        (Wp_util.Prng.int prng n_chans, Wp_util.Prng.int prng 5))
  in
  let g, tokens, time = Static.capacity_graph ~capacity net in
  let inc = Cycle_ratio.Incremental.create g ~cost:tokens ~time in
  let ratio_of = function
    | Some (r, _) -> r
    | None -> failwith "sim_bench: flow probe: capacity graph became acyclic"
  in
  let incremental_ratios = Array.make perturbations { Cycle_ratio.num = 0; den = 1 } in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i (c, rs) ->
      Cycle_ratio.Incremental.set_time inc (2 * c) (1 + rs);
      Cycle_ratio.Incremental.set_cost inc ((2 * c) + 1) (capacity + (2 * rs) - 1);
      incremental_ratios.(i) <- ratio_of (Cycle_ratio.Incremental.solve inc))
    seq;
  let incremental_seconds = Unix.gettimeofday () -. t0 in
  let failures = ref [] in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i (c, rs) ->
      Network.set_relay_stations net c rs;
      let g, tokens, time = Static.capacity_graph ~capacity net in
      let r = ratio_of (Cycle_ratio.minimum g ~cost:tokens ~time) in
      if Cycle_ratio.ratio_compare r incremental_ratios.(i) <> 0 then
        failures :=
          !failures
          @ [
              Printf.sprintf
                "sim_bench: FAIL — flow probe step %d: incremental %d/%d != scratch %d/%d"
                i incremental_ratios.(i).Cycle_ratio.num
                incremental_ratios.(i).Cycle_ratio.den r.Cycle_ratio.num
                r.Cycle_ratio.den;
            ])
    seq;
  let scratch_seconds = Unix.gettimeofday () -. t0 in
  let speedup = scratch_seconds /. incremental_seconds in
  Printf.printf
    "incremental: %.4f s (%d policy re-solves)  from-scratch: %.4f s  speedup: %.1fx\n"
    incremental_seconds
    (Cycle_ratio.Incremental.solves inc)
    scratch_seconds speedup;
  let floor = 5.0 in
  if speedup < floor then
    failures :=
      !failures
      @ [
          Printf.sprintf
            "sim_bench: FAIL — incremental MCR evaluator only %.1fx over from-scratch \
             (gate %.1fx) on %s"
            speedup floor name;
        ];
  let sections =
    [
      ( "flow_probe",
        Printf.sprintf
          "{ \"netlist\": %S, \"perturbations\": %d, \"incremental_seconds\": %.6f, \
           \"scratch_seconds\": %.6f, \"speedup\": %.2f, \"solves\": %d }"
          name perturbations incremental_seconds scratch_seconds speedup
          (Cycle_ratio.Incremental.solves inc) );
    ]
  in
  (sections, !failures)

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let opts = parse_args () in
  let sections = ref [] and failures = ref [] in
  let add (s, f) =
    sections := !sections @ s;
    failures := !failures @ f
  in
  if List.mem "core" opts.probes then add (run_core opts);
  if List.mem "batch" opts.probes then add (run_batch_probe opts);
  if List.mem "serve" opts.probes then add (run_serve_probe opts);
  if List.mem "degradation" opts.probes then add (run_degradation_probe opts);
  if List.mem "topo" opts.probes then add (run_topo_probe opts);
  if List.mem "flow" opts.probes then add (run_flow_probe opts);
  (* Merge into the existing results file: sections this run did not
     re-measure keep their previous values. *)
  let existing =
    if Sys.file_exists opts.out then
      Some (In_channel.with_open_text opts.out In_channel.input_all)
    else None
  in
  let doc = Wp_util.Json_merge.merge ~existing ~updates:!sections in
  let oc = open_out opts.out in
  output_string oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" opts.out;
  List.iter prerr_endline !failures;
  if !failures <> [] then exit 1
