(* Simulation-kernel gates: the benchmark floors that no test and no
   perfbench workload holds.  One probe per run; each run writes its own
   JSON object to --out and exits 1 when a gate fails.

   Usage: dune exec bench/sim_bench.exe -- [--probe core|batch|flow]
            [--smoke] [--out FILE]
     core  = the Table 1 sweep's runs stepped directly on the reference
             interpreter and on the Fast handshake, alternating pass by
             pass (gate: fast >= 2x reference on the median of the
             per-pass ratios), a
             kernel-only stall probe (gates: the reference, Fast, Static
             and an Oracle replay allocate nothing; Static is strictly
             faster than Fast), and exact static word-rate checks
     batch = 64 runs through Batch's one-lane replays vs the same runs
             on Fast, one after another (gates: >= 2x on Plain runs,
             >= 1.3x on Oracle runs)
     flow  = incremental MCR vs from-scratch re-solves (gate: >= 5x,
             exact agreement at every step)
   --smoke (also WIREPIPE_BENCH_FAST=1) shrinks the workloads.

   The core workload is the Table 1 configuration sweep (both paper
   workloads, plain and oracle wrappers, golden + Only-X + All-1 + All-2
   rows), each run's datapath built once and its kernel created and run
   directly (Engine.create / Fast.create), since Cpu.run's [fast] kind
   routes most of these runs to the replay.  The kernel-only
   measurement steps a deadlocked ring — no process ever fires, so
   every allocated word is the kernel's own. *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Shell = Wp_lis.Shell
module Process = Wp_lis.Process
module Config = Wp_core.Config
module Network = Wp_sim.Network
module Engine = Wp_sim.Engine
module Fast = Wp_sim.Fast
module Static = Wp_sim.Static
module Sim = Wp_sim.Sim
module Cycle_ratio = Wp_graph.Cycle_ratio

(* ------------------------------------------------------------------ *)
(* Gates and JSON                                                     *)
(* ------------------------------------------------------------------ *)

(* Each probe returns its JSON fields as [(key, raw value)] pairs plus
   the messages of the gates it failed. *)
type probe_result = (string * string) list * string list

let obj fields =
  Printf.sprintf "{ %s }"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

(* A floor's failure message, or nothing when [ok]. *)
let gate ok fmt = Printf.ksprintf (fun m -> if ok then [] else [ "sim_bench: FAIL — " ^ m ]) fmt

let write_json path fields =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields)))

(* ------------------------------------------------------------------ *)
(* Measurements                                                       *)
(* ------------------------------------------------------------------ *)

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

(* [a]'s throughput over [b]'s. *)
let speedup a b = if cycles_per_sec b > 0.0 then cycles_per_sec a /. cycles_per_sec b else 0.0

let print_measurement name m =
  Printf.printf "%-21s %3d runs %9d cycles %7.3f s %12.0f cyc/s %8.2f words/cycle %10.0f words\n"
    name m.runs m.total_cycles m.seconds (cycles_per_sec m) (words_per_cycle m) m.minor_words

let json_of_measurement m =
  obj
    [
      ("runs", string_of_int m.runs);
      ("cycles", string_of_int m.total_cycles);
      ("seconds", Printf.sprintf "%.6f" m.seconds);
      ("cycles_per_sec", Printf.sprintf "%.1f" (cycles_per_sec m));
      ("minor_words", Printf.sprintf "%.0f" m.minor_words);
      ("minor_words_per_cycle", Printf.sprintf "%.4f" (words_per_cycle m));
    ]

(* The kernels [core] times: both engine kinds and the table replay,
   Plain and Oracle. *)
type kernel = Reference | Fast | Static | Oracle

let engine_name = function
  | Reference -> "reference"
  | Fast -> "fast"
  | Static -> "static"
  | Oracle -> "oracle_replay"

let engine_fields entries = List.map (fun (e, m) -> (engine_name e, json_of_measurement m)) entries

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

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

(* The sweep on the reference interpreter and on the Fast handshake,
   [reps] timed passes each after one warm-up pass each (code paths
   faulted in, heap steady).  Each side creates its kernel directly on
   every run's datapath network, built once up front, and steps it to
   completion under the same budget, so both time the same work: a
   routed [Cpu.run ~engine:Fast] would replay most of these runs and
   leave the handshake, which still serves faults, protection,
   telemetry and capacity 0, with no speed floor.  The two sides
   alternate pass by pass, and so does which of them goes first.  The
   host's speed drifts between states tenths of a second apart, so the
   two sides' median passes can come from different states; the
   speedup is therefore the median of the per-pass ratios, each of
   which compares two passes run back to back.  Returns each side's
   median pass and the per-pass speedups: [(reference, fast,
   speedups)]. *)
let measure_sweep ~reps runs =
  let budget = 2_000_000 in
  let nets =
    List.map
      (fun (program, mode, config) ->
        ( (Datapath.build ~machine:Datapath.Pipelined ~rs:(Config.to_fun config) program)
            .Datapath.network,
          mode ))
      runs
  in
  let execute engine =
    List.fold_left
      (fun acc (net, mode) ->
        let outcome =
          match engine with
          | Sim.Reference -> Engine.run ~max_cycles:budget (Engine.create ~mode net)
          | Sim.Fast -> Fast.run ~max_cycles:budget (Fast.create ~mode net)
        in
        match outcome with
        | Engine.Halted c -> acc + c
        | _ -> failwith "sim_bench: sweep run did not complete")
      0 nets
  in
  let engines = [| Sim.Reference; Sim.Fast |] in
  let cycles = Array.map execute engines in
  let seconds = Array.map (fun _ -> Array.make reps 0.0) engines in
  let words = Array.map (fun _ -> Array.make reps 0.0) engines in
  let pass i e =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (execute engines.(e));
    seconds.(e).(i) <- Unix.gettimeofday () -. t0;
    words.(e).(i) <- Gc.minor_words () -. w0
  in
  for i = 0 to reps - 1 do
    pass i (i mod 2);
    pass i (1 - (i mod 2))
  done;
  let side e =
    {
      runs = List.length runs;
      total_cycles = cycles.(e);
      seconds = median seconds.(e);
      minor_words = median words.(e);
    }
  in
  let rate e i = float_of_int cycles.(e) /. seconds.(e).(i) in
  (side 0, side 1, Array.init reps (fun i -> rate 1 i /. rate 0 i))

(* ------------------------------------------------------------------ *)
(* Kernel-only probes                                                 *)
(* ------------------------------------------------------------------ *)

let relay name = Process.unary ~name ~input_name:"i" ~output_name:"o" ~reset:0 succ

(* Two relays in a ring.  With no relay station and capacity-1 FIFOs it
   deadlocks at reset: every step executes all three kernel phases but
   no process fires, so the measured allocation is purely the kernel's.
   With one relay station on a->b (run at capacity 2) it is live at
   rate 2/3. *)
let two_ring ~rs =
  let net = Network.create () in
  let a = Network.add net (relay "a") in
  let b = Network.add net (relay "b") in
  ignore (Network.connect net ~src:(a, "o") ~dst:(b, "i") ~relay_stations:rs ());
  ignore (Network.connect net ~src:(b, "o") ~dst:(a, "i") ());
  net

(* Each kernel's timed window lasts about this long.  The kernels'
   stalled step rates differ ~20x (Static ~100M/s, the Oracle replay
   ~5M/s), so one step count for all would time Static over a
   millisecond or two, too short for its ratio to Fast to mean
   anything. *)
let window_seconds = 0.025
let windows = 5

(* Steps in one timed window: a doubling calibration run (which also
   warms the kernel up) until it lasts half a window, scaled to
   [window_seconds]. *)
let calibrate step =
  let rec go n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do step () done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= window_seconds /. 2.0 then
      max 1 (int_of_float (float_of_int n *. window_seconds /. dt))
    else go (2 * n)
  in
  go 1_000

let stepper ~capacity net = function
  | Reference ->
    let e = Engine.create ~capacity ~mode:Shell.Plain net in
    fun () -> Engine.step e
  | Fast ->
    let f = Fast.create ~capacity ~mode:Shell.Plain net in
    fun () -> Fast.step f
  | Static ->
    let s = Static.create ~capacity ~mode:Shell.Plain net in
    fun () -> Static.step s
  | Oracle ->
    let s = Static.create ~capacity ~mode:Shell.Oracle net in
    fun () -> Static.step s

(* [engines] stepping [net], each over [windows] timed windows of its
   calibrated length.  The host's speed drifts by up to ~1.4x over
   tenths of a second, so the kernels take their windows in turn,
   round by round, and each keeps its fastest: a ratio of two kernels
   then compares windows from the same stretch of time.  Each also
   keeps the most any of its windows allocated. *)
let measure_kernel_steps ~capacity net engines =
  let kernels =
    List.map
      (fun engine ->
        let step = stepper ~capacity net engine in
        (engine, step, calibrate step, ref infinity, ref 0.0))
      engines
  in
  for _ = 1 to windows do
    List.iter
      (fun (_, step, steps, best, words) ->
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to steps do step () done;
        let seconds = Unix.gettimeofday () -. t0 in
        words := Float.max !words (Gc.minor_words () -. w0);
        best := Float.min !best seconds)
      kernels
  done;
  List.map
    (fun (engine, _, steps, best, words) ->
      (engine, { runs = 1; total_cycles = steps; seconds = !best; minor_words = !words }))
    kernels

(* The firing word the recorded table holds must sustain precisely
   the rate of the balanced-word schedule on the capacity-extended
   marked graph. *)
let check_static_rate ~capacity ~what net expected =
  let measured = Static.rate (Static.create ~capacity ~mode:Shell.Plain net) 0 in
  let scheduled = (Static.schedule ~capacity net).Wp_graph.Schedule.rate in
  let show r = Printf.sprintf "%d/%d" r.Cycle_ratio.num r.Cycle_ratio.den in
  gate
    (measured = scheduled && measured = expected)
    "%s: static word rate %s, schedule rate %s, expected %s" what (show measured)
    (show scheduled) (show expected)

(* ------------------------------------------------------------------ *)
(* Probe: core                                                        *)
(* ------------------------------------------------------------------ *)

let min_speedup = 2.0

let run_core ~smoke : probe_result =
  Printf.printf "Simulation kernel benchmark — Table 1 sweep (%s workloads)\n%!"
    (if smoke then "smoke" else "full");
  let show label entries =
    List.iter (fun (engine, m) -> print_measurement (label engine) m) entries;
    entries
  in
  let sweep, speedups =
    let reference, fast, speedups =
      measure_sweep ~reps:(if smoke then 11 else 5) (sweep_runs ~smoke)
    in
    (show engine_name [ (Reference, reference); (Fast, fast) ], speedups)
  in
  print_endline "kernel-only stall probe (deadlocked ring, no process firings):";
  let stall =
    show engine_name
      (measure_kernel_steps ~capacity:1 (two_ring ~rs:0) [ Reference; Fast; Static; Oracle ])
  in
  print_endline "live ring (rate 2/3, capacity 2):";
  let live =
    show
      (fun e -> engine_name e ^ "/live")
      (measure_kernel_steps ~capacity:2 (two_ring ~rs:1) [ Fast; Static ])
  in
  let stall_speedup = speedup (List.assoc Static stall) (List.assoc Fast stall) in
  let live_speedup = speedup (List.assoc Static live) (List.assoc Fast live) in
  Printf.printf "static/fast speedup: %.2fx stalled, %.2fx live\n" stall_speedup live_speedup;
  let fast_speedup = median speedups in
  Printf.printf "fast/reference throughput ratio: %.2fx (median of %d passes, %.2f-%.2fx)\n"
    fast_speedup (Array.length speedups)
    (Array.fold_left Float.min infinity speedups)
    (Array.fold_left Float.max 0.0 speedups);
  let static_pass = stall_speedup > 1.0 in
  let failures =
    check_static_rate ~capacity:1 ~what:"stalled ring" (two_ring ~rs:0) (Cycle_ratio.make_ratio 0 1)
    @ check_static_rate ~capacity:2 ~what:"live ring" (two_ring ~rs:1) (Cycle_ratio.make_ratio 2 3)
    @ List.concat_map
        (fun engine ->
          let m = List.assoc engine stall in
          gate (m.minor_words = 0.0) "%s allocated %.0f minor words over the %d-cycle stall probe"
            (engine_name engine) m.minor_words m.total_cycles)
        [ Reference; Fast; Static; Oracle ]
    @ gate static_pass "static kernel not strictly faster than fast on the stall probe (%.2fx)"
        stall_speedup
    @ gate (fast_speedup >= min_speedup) "fast/reference ratio %.2f below required %.2f"
        fast_speedup min_speedup
  in
  let pair engines speedup =
    obj (engine_fields engines @ [ ("speedup", Printf.sprintf "%.3f" speedup) ])
  in
  ( [
      ("probe", "\"core\"");
      ("smoke", string_of_bool smoke);
      ( "workloads",
        Printf.sprintf "[%s]"
          (String.concat ", "
             (List.map (fun (n, _) -> Printf.sprintf "%S" n) (sweep_programs ~smoke))) );
      ("table1_sweep", obj (engine_fields sweep));
      ("kernel_stall_probe", obj (engine_fields stall));
      ( "static_kernel",
        obj
          [
            ( "stall",
              pair
                (List.filter (fun (e, _) -> e = Fast || e = Static) stall)
                stall_speedup );
            ("live", pair live live_speedup);
            ("pass", string_of_bool static_pass);
          ] );
      ("speedup", Printf.sprintf "%.3f" fast_speedup);
      ("min_ratio", Printf.sprintf "%.3f" min_speedup);
      ("pass", string_of_bool (failures = []));
    ],
    failures )

(* ------------------------------------------------------------------ *)
(* Probe: Batch's replays vs sequential Fast                          *)
(* ------------------------------------------------------------------ *)

(* N = 64 independent Run_specs run through one Wp_sim.Batch call, which
   gives each unfaulted lane a one-lane replay, vs the same specs run
   one after another on Fast.  Three workloads:

   - stall-heavy: random programs under deep relay-station chains
     (uniform 1..4 everywhere but CU-IC, capacity 2) — the paper's
     wire-pipelined regime, where most cycles move tokens through relay
     stations rather than firing processes.  Gated at 2x: a Plain
     replay skips all of that handshake work, and the 4 schedules its
     64 runs share are recorded once.
   - oracle: the same 64 runs with WP2 (Oracle) wrappers.  Each replays
     the transitions runs of its structure have learnt, so it saves the
     handshake but pays the first visit of each transition.  Gated at
     1.3x.
   - mixed: alternating bare and All-1 configurations with varying
     capacities — process-execution-bound, so the achievable ratio is
     structurally smaller; it is reported but not gated.

   Lanes are unfaulted in every workload, and Plain but in the oracle
   one, matching Table 1's throughput rows.  Results byte-match per-lane
   Fast by construction (the 50-seed differential battery in
   test_batch.ml asserts it). *)

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

let measure_batch_workload ?(mode = Shell.Plain) ~reps kind =
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
          mode;
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
        let f = Fast.create ~capacity ~mode dp.Datapath.network in
        ignore (Fast.run ~max_cycles:batch_max_cycles f))
      dps
  in
  let run_lanes () =
    let b = Wp_sim.Batch.create lanes in
    ignore (Wp_sim.Batch.run b)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* One warm-up rep each, then the two sides alternate rep by rep, and
     so does which of them goes first: a slow stretch of the host weighs
     on both.  Each side is its median rep. *)
  run_seq ();
  run_lanes ();
  let seq_s = Array.make reps 0.0 and batch_s = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    if i mod 2 = 0 then begin
      seq_s.(i) <- time run_seq;
      batch_s.(i) <- time run_lanes
    end
    else begin
      batch_s.(i) <- time run_lanes;
      seq_s.(i) <- time run_seq
    end
  done;
  let specs_per_sec s = if s <= 0.0 then 0.0 else float_of_int batch_lanes /. s in
  (specs_per_sec (median seq_s), specs_per_sec (median batch_s))

let min_oracle_speedup = 1.3

let batch_probe ~smoke : probe_result =
  let reps = if smoke then 10 else 30 in
  Printf.printf
    "batch probe (%d runs, %d reps, sequential Fast vs Batch's one-lane replays):\n%!"
    batch_lanes reps;
  let seq_stall, batch_stall = measure_batch_workload ~reps `Stall in
  let seq_oracle, batch_oracle = measure_batch_workload ~mode:Shell.Oracle ~reps `Stall in
  let seq_mixed, batch_mixed = measure_batch_workload ~reps `Mixed in
  let ratio seq batch = if seq > 0.0 then batch /. seq else 0.0 in
  let stall_ratio = ratio seq_stall batch_stall in
  let oracle_ratio = ratio seq_oracle batch_oracle in
  let mixed_ratio = ratio seq_mixed batch_mixed in
  Printf.printf
    "  stall-heavy: %8.1f specs/s sequential, %8.1f specs/s batched — %.2fx (floor %.2fx)\n"
    seq_stall batch_stall stall_ratio min_speedup;
  Printf.printf
    "  oracle:      %8.1f specs/s sequential, %8.1f specs/s batched — %.2fx (floor %.2fx)\n"
    seq_oracle batch_oracle oracle_ratio min_oracle_speedup;
  Printf.printf
    "  mixed:       %8.1f specs/s sequential, %8.1f specs/s batched — %.2fx (reported only)\n"
    seq_mixed batch_mixed mixed_ratio;
  let pass = stall_ratio >= min_speedup in
  let oracle_pass = oracle_ratio >= min_oracle_speedup in
  let workload_json ?floor seq batch r =
    obj
      ([
         ("seq_specs_per_sec", Printf.sprintf "%.1f" seq);
         ("batch_specs_per_sec", Printf.sprintf "%.1f" batch);
         ("ratio", Printf.sprintf "%.3f" r);
       ]
      @
      match floor with
      | Some f -> [ ("min_ratio", Printf.sprintf "%.3f" f); ("pass", string_of_bool (r >= f)) ]
      | None -> [])
  in
  ( [
      ("probe", "\"batch\"");
      ( "batch_kernel",
        obj
          [
            ("lanes", string_of_int batch_lanes);
            ("reps", string_of_int reps);
            ("stall_heavy", workload_json seq_stall batch_stall stall_ratio);
            ( "oracle",
              workload_json ~floor:min_oracle_speedup seq_oracle batch_oracle oracle_ratio );
            ("mixed", workload_json seq_mixed batch_mixed mixed_ratio);
            ("min_ratio", Printf.sprintf "%.3f" min_speedup);
            ("pass", string_of_bool pass);
          ] );
    ],
    gate pass
      "batch/sequential specs-per-sec ratio %.2f below required %.2f (stall-heavy workload, %d \
       lanes)"
      stall_ratio min_speedup batch_lanes
    @ gate oracle_pass
        "batch/sequential specs-per-sec ratio %.2f below required %.2f (oracle workload, %d \
         lanes)"
        oracle_ratio min_oracle_speedup batch_lanes )

(* ------------------------------------------------------------------ *)
(* Probe: incremental MCR evaluator vs from-scratch re-solve          *)
(* ------------------------------------------------------------------ *)

(* The co-optimization flow's inner loop re-derives a few channels'
   relay-station counts after every move and re-solves the throughput
   bound.  This probe replays one perturbation sequence through both
   evaluators -- the warm-started {!Cycle_ratio.Incremental} state and
   the from-scratch path (set the relay stations on the network, rebuild
   the capacity graph, solve it cold with {!Cycle_ratio.minimum}) --
   checks they agree exactly at every step, and gates on the speedup. *)
let run_flow_probe ~smoke : probe_result =
  let module Topology = Wp_topo.Topology in
  let name = if smoke then "rand:100" else "rand:1000" in
  let perturbations = if smoke then 60 else 300 in
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
      let inc_r = incremental_ratios.(i) in
      failures :=
        !failures
        @ gate
            (Cycle_ratio.ratio_compare r inc_r = 0)
            "flow probe step %d: incremental %d/%d != scratch %d/%d" i inc_r.Cycle_ratio.num
            inc_r.Cycle_ratio.den r.Cycle_ratio.num r.Cycle_ratio.den)
    seq;
  let scratch_seconds = Unix.gettimeofday () -. t0 in
  let speedup = scratch_seconds /. incremental_seconds in
  Printf.printf
    "incremental: %.4f s (%d policy re-solves)  from-scratch: %.4f s  speedup: %.1fx\n"
    incremental_seconds
    (Cycle_ratio.Incremental.solves inc)
    scratch_seconds speedup;
  let floor = 5.0 in
  failures :=
    !failures
    @ gate (speedup >= floor)
        "incremental MCR evaluator only %.1fx over from-scratch (gate %.1fx) on %s" speedup floor
        name;
  ( [
      ("probe", "\"flow\"");
      ( "flow_probe",
        obj
          [
            ("netlist", Printf.sprintf "%S" name);
            ("perturbations", string_of_int perturbations);
            ("incremental_seconds", Printf.sprintf "%.6f" incremental_seconds);
            ("scratch_seconds", Printf.sprintf "%.6f" scratch_seconds);
            ("speedup", Printf.sprintf "%.2f" speedup);
            ("solves", string_of_int (Cycle_ratio.Incremental.solves inc));
          ] );
    ],
    !failures )

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let open Cmdliner in
  let probe =
    Arg.(value
         & opt (enum [ ("core", `Core); ("batch", `Batch); ("flow", `Flow) ]) `Core
         & info [ "probe" ] ~docv:"PROBE"
             ~doc:"Probe to run: $(b,core) (Table 1 sweep, stall probe, static word \
                   rates), $(b,batch) (Batch's replays vs sequential Fast) or $(b,flow) \
                   (incremental vs from-scratch MCR).")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Shrink the workloads (also set by $(b,WIREPIPE_BENCH_FAST)).")
  in
  let out =
    Arg.(value & opt string "BENCH_sim.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the probe's JSON results to $(docv).")
  in
  let main probe smoke out =
    let smoke = smoke || Sys.getenv_opt "WIREPIPE_BENCH_FAST" <> None in
    let fields, failures =
      match probe with
      | `Core -> run_core ~smoke
      | `Batch -> batch_probe ~smoke
      | `Flow -> run_flow_probe ~smoke
    in
    write_json out fields;
    Printf.printf "wrote %s\n" out;
    List.iter prerr_endline failures;
    if failures = [] then 0 else 1
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "sim_bench" ~doc:"Simulation-kernel speed and allocation gates")
          Term.(const main $ probe $ smoke $ out)))
