(* wirepipe: command-line front-end for the wire-pipelined SoC library.

   Subcommands: table1, run, loops, floorplan, graph, equiv, area. *)

open Cmdliner
module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Shell = Wp_lis.Shell
module Config = Wp_core.Config

(* --- shared argument parsing --------------------------------------- *)

(* The grammars live next to the types they produce
   ({!Programs.of_string}, {!Datapath.machine_of_name},
   {!Config.of_string}) so the serve daemon's wire protocol and this
   CLI accept exactly the same strings; here they only get wrapped into
   cmdliner converters. *)

let program_conv =
  Arg.conv
    ( (fun s -> Programs.of_string s |> Result.map_error (fun m -> `Msg m)),
      fun ppf p -> Format.pp_print_string ppf p.Wp_soc.Program.name )

let machine_conv =
  Arg.conv
    ( (fun s ->
        match Datapath.machine_of_name s with
        | Some m -> Ok m
        | None -> Error (`Msg "machine must be 'pipelined', 'btfn' or 'multicycle'")),
      fun ppf m -> Format.pp_print_string ppf (Datapath.machine_name m) )

let config_conv =
  Arg.conv
    ( (fun s -> Config.of_string s |> Result.map_error (fun m -> `Msg m)),
      fun ppf c -> Config.pp ppf c )

let program_arg =
  Arg.(value & opt program_conv (Result.get_ok (Programs.of_string "sort")) & info [ "p"; "program" ] ~docv:"PROG" ~doc:"Workload: sort[:n], matmul[:n], fib[:n], dot[:n], memcpy[:n], bubble[:n], random[:seed], asm:FILE.")

let machine_arg =
  Arg.(value & opt machine_conv Datapath.Pipelined & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"CPU fashion: pipelined or multicycle.")

let config_arg =
  Arg.(value & opt config_conv Config.zero & info [ "rs" ] ~docv:"CONFIG" ~doc:"Relay stations, e.g. 'CU-AL=1,DC-RF=2' (or 'none').")

(* --- the shared run-spec flags --------------------------------------

   Every simulation-driving subcommand (run, equiv, table1, optimal)
   parses the same flags into one [Wp_core.Run_spec.t] through the same
   [Run_spec.of_args] — each flag is declared and documented exactly
   once, and a syntax error in any of them surfaces as a normal cmdliner
   error. *)

(* Checked here, not only by [Run_spec.of_args], so that a bad
   WIREPIPE_ENGINE is a usage error naming the variable. *)
let engine_str_arg =
  let parse s = Result.map (fun _ -> s) (Wp_core.Run_spec.of_args ~engine:s ()) in
  Arg.(value & opt (some (conv' (parse, Format.pp_print_string))) None
       & info [ "engine" ] ~docv:"ENGINE" ~env:(Cmd.Env.info "WIREPIPE_ENGINE")
           ~doc:"Simulation kernel: $(b,fast) (compiled, default: the \
                 table replay for unfaulted runs it can replay, the \
                 $(b,Fast) handshake for faults, protection, telemetry \
                 or capacity 0) or $(b,ref) (reference interpreter).  \
                 Both produce byte-identical results.")

let capacity_arg =
  Arg.(value & opt int 2
       & info [ "capacity" ] ~docv:"N" ~doc:"Shell input-FIFO capacity (default 2).")

let max_cycles_arg =
  Arg.(value & opt (some int) None
       & info [ "max-cycles" ] ~docv:"N"
           ~doc:"Explicit simulation cycle budget (default: the MCR-guided \
                 bound derived from the golden run, with a full-budget \
                 fallback).")

let fault_str_arg =
  Arg.(value & opt (some string) None
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Fault-injection spec, comma-separated clauses: \
                 $(b,jitter:PCT[@H]) (random per-channel stalls), \
                 $(b,storm:P/B[@H]) (backpressure storm, B of every P cycles), \
                 $(b,stall:CHAN@c1+c2) (explicit stall schedule), \
                 $(b,drop:CHAN:N) / $(b,dup:CHAN:N) / $(b,corrupt:CHAN:N) / \
                 $(b,spurious:CHAN:N) (destructive token faults on the Nth \
                 token), or $(b,none).  Stall-only specs must preserve \
                 equivalence; destructive ones must be caught.")

let fault_seed_arg =
  Arg.(value & opt int 0
       & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed for randomized fault clauses (jitter). The same seed \
                 reproduces the same schedule on both engines.")

let protect_str_arg =
  Arg.(value & opt (some string) None
       & info [ "protect" ] ~docv:"POLICY"
           ~doc:"Link-protection policy: $(b,none), $(b,all), or a \
                 comma-separated list of connection names (e.g. \
                 $(b,CU-AL,DC-RF)), each optionally annotated \
                 $(b,:w=W:t=T) to override window/timeout per \
                 connection.  Protected connections get \
                 sequence-numbered, CRC-tagged, go-back-N retransmitting \
                 channels with credit flow control — bounded \
                 drop/dup/corrupt faults on them are absorbed instead of \
                 diverging.")

let link_window_arg =
  Arg.(value & opt int 0
       & info [ "link-window" ] ~docv:"W"
           ~doc:"Sender replay-window size for protected channels \
                 (0 = auto-size from the relay-station count).")

let link_timeout_arg =
  Arg.(value & opt int 0
       & info [ "link-timeout" ] ~docv:"T"
           ~doc:"Retransmission timeout in cycles for protected channels \
                 (0 = auto).")

let stall_report_arg =
  Arg.(value & flag
       & info [ "stall-report" ]
           ~doc:"Collect cycle-accurate telemetry (per-block stall \
                 attribution, per-channel occupancy/duty histograms, link \
                 recoveries) and print the report.")

let trace_depth_arg =
  Arg.(value & opt int 0
       & info [ "trace-depth" ] ~docv:"N"
           ~doc:"Cycles retained by the bounded event-trace ring buffer \
                 (0 = no trace; $(b,--trace)/$(b,--trace-json) imply a \
                 default depth).")

let deadline_ms_arg =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget for the run: the simulation polls a \
                 cancellation token and abandons the work once MS \
                 milliseconds have elapsed (reported as deadline \
                 exceeded).  Deadlines bound latency, never results — \
                 cached records satisfy any deadline.")

let spec_term =
  let build engine capacity max_cycles fault fault_seed protect link_window
      link_timeout stall_report trace_depth deadline_ms =
    match
      Wp_core.Run_spec.of_args ?engine ~capacity ?max_cycles ?fault ~fault_seed
        ?protect ~link_window ~link_timeout ~stall_report ~trace_depth
        ?deadline_ms ()
    with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  Term.term_result
    Term.(const build $ engine_str_arg $ capacity_arg $ max_cycles_arg
          $ fault_str_arg $ fault_seed_arg $ protect_str_arg $ link_window_arg
          $ link_timeout_arg $ stall_report_arg $ trace_depth_arg
          $ deadline_ms_arg)

(* Trace exporters (run and table1). *)

let trace_vcd_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the retained event-trace window as a VCD waveform \
                 (valid/stop per channel, fire per block).  Implies a trace \
                 buffer.")

let trace_json_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"FILE"
           ~doc:"Write the retained event-trace window as Chrome trace_event \
                 JSON (load in chrome://tracing or Perfetto; one track per \
                 block, stall spans colored by reason).  Implies a trace \
                 buffer.")

(* --trace / --trace-json without --trace-depth get a default-depth ring. *)
let ensure_trace ~depth ~vcd ~json spec =
  if vcd = None && json = None then spec
  else if spec.Wp_core.Run_spec.telemetry.Wp_sim.Telemetry.trace_depth > 0 then
    spec
  else
    { spec with Wp_core.Run_spec.telemetry = Wp_sim.Telemetry.with_trace ~depth () }

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Export one run's retained trace.  [suffix] (e.g. "wp1") is inserted
   before the extension when one invocation produces several traces. *)
let export_trace ~vcd ~json ~suffix (rep : Wp_sim.Telemetry.report option) =
  match Option.bind rep (fun r -> r.Wp_sim.Telemetry.event_trace) with
  | None -> ()
  | Some tr ->
    let with_suffix path =
      if suffix = "" then path
      else Filename.remove_extension path ^ "." ^ suffix ^ Filename.extension path
    in
    (match vcd with
    | None -> ()
    | Some p ->
      let p = with_suffix p in
      write_file p (Wp_sim.Telemetry.vcd_of_trace tr);
      Printf.printf "VCD trace written to %s\n" p);
    (match json with
    | None -> ()
    | Some p ->
      let p = with_suffix p in
      write_file p (Wp_sim.Telemetry.chrome_of_trace tr);
      Printf.printf "Chrome trace written to %s\n" p)

let gc_stats_arg =
  Arg.(value & flag
       & info [ "gc-stats" ]
           ~doc:"Print minor-heap allocation for the command's simulations \
                 (via $(b,Gc.quick_stat) deltas) to stderr.")

let with_gc_stats gc f =
  if not gc then f ()
  else begin
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let seconds = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    let words = g1.Gc.minor_words -. g0.Gc.minor_words in
    Printf.eprintf "gc: %.0f minor words (%.1f MB) in %.3f s, %d minor collections\n%!"
      words
      (words *. float_of_int (Sys.word_size / 8) /. 1e6)
      seconds
      (g1.Gc.minor_collections - g0.Gc.minor_collections);
    r
  end

(* Parallel runner controls, shared by the simulation-sweep commands. *)

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker pool size for simulation sweeps (default: \
                 $(b,WIREPIPE_JOBS) or one per core). Output is \
                 byte-identical for any value.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the content-addressed experiment result cache \
                 (every row is re-simulated).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print runner statistics (tasks, cache hits, wall time) to stderr.")

let make_runner jobs no_cache =
  Wp_core.Runner.create ?jobs ~cache:(not no_cache) ()

let report_stats runner stats =
  if stats then
    Format.eprintf "%a@." Wp_core.Runner.pp_stats (Wp_core.Runner.stats runner)

(* A simulation that raises, e.g. a block derailed by a destructive fault
   on an unprotected link or a program the ISS cannot execute, fails the
   command with one line and exit 1. *)
let or_exit cmd f =
  let fail msg =
    flush stdout;
    Printf.eprintf "wirepipe %s: %s\n%!" cmd msg;
    exit 1
  in
  try f () with
  | Failure msg | Invalid_argument msg | Wp_soc.Iss.Fault msg -> fail msg
  | e -> fail (Printexc.to_string e)

(* --- table1 --------------------------------------------------------- *)

let table1_cmd =
  let workload =
    Arg.(value & opt (enum [ ("sort", `Sort); ("matmul", `Matmul) ]) `Sort
         & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"sort or matmul.")
  in
  let size =
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Workload size (sort length / matrix dimension).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the rows as CSV.")
  in
  let trace_row =
    Arg.(value & opt int 12
         & info [ "trace-row" ] ~docv:"ROW"
             ~doc:"Which row's WP1 trace $(b,--trace)/$(b,--trace-json) \
                   export (default 12, the 'All 1' row).")
  in
  let run workload machine size csv jobs no_cache stats spec trace_vcd
      trace_json trace_row gc =
    (* Table 1 instruments up to 2 x 38 runs, so the implied trace ring
       is kept small; pass --trace-depth to override. *)
    let spec = ensure_trace ~depth:8192 ~vcd:trace_vcd ~json:trace_json spec in
    let runner = make_runner jobs no_cache in
    let rows, _ =
      or_exit "table1" (fun () ->
          with_gc_stats gc (fun () ->
              Wp_core.Runner.timed runner "table1" (fun () ->
                  match workload with
                  | `Sort ->
                    let values =
                      Programs.sort_values ~seed:1 ~n:(Option.value size ~default:16)
                    in
                    Wp_core.Table1.sort_rows ~spec ~values ~runner ~machine ()
                  | `Matmul ->
                    Wp_core.Table1.matmul_rows ~spec ?n:size ~runner ~machine ())))
    in
    let title =
      Printf.sprintf "Table 1 — %s (%s)"
        (match workload with `Sort -> "Extraction Sort" | `Matmul -> "Matrix Multiply")
        (Datapath.machine_name machine)
    in
    print_string (Wp_core.Table1.render ~title rows);
    (match csv with
    | None -> ()
    | Some path ->
      write_file path (Wp_core.Table1.to_csv rows);
      Printf.printf "CSV written to %s\n" path);
    if spec.Wp_core.Run_spec.telemetry.Wp_sim.Telemetry.counters then begin
      print_newline ();
      print_string
        (Wp_core.Table1.render_stall_report ~title:(title ^ " — stall attribution")
           rows);
      (* An unexplained row means the oracle-skip accounting failed the
         paper's cross-check — make the driver fail loudly so CI gates
         on it. *)
      match Wp_core.Table1.attribute rows with
      | None -> ()
      | Some atts ->
        let bad =
          List.filter (fun a -> not a.Wp_core.Table1.explained) atts
        in
        if bad <> [] then begin
          List.iter
            (fun a ->
              Printf.eprintf
                "wirepipe: row %d (%s): WP1-vs-WP2 delta not explained by \
                 the oracle-skip stall class\n"
                a.Wp_core.Table1.att_index a.Wp_core.Table1.att_label)
            bad;
          exit 1
        end
    end;
    (match
       List.find_opt (fun r -> r.Wp_core.Table1.index = trace_row) rows
     with
    | Some row ->
      export_trace ~vcd:trace_vcd ~json:trace_json ~suffix:""
        row.Wp_core.Table1.record.Wp_core.Experiment.wp1.Wp_soc.Cpu.telemetry
    | None ->
      if trace_vcd <> None || trace_json <> None then
        Printf.eprintf "wirepipe: --trace-row %d is not a row of this table\n%!"
          trace_row);
    report_stats runner stats
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1")
    Term.(const run $ workload $ machine_arg $ size $ csv $ jobs_arg $ no_cache_arg $ stats_arg
          $ spec_term $ trace_vcd_arg $ trace_json_arg $ trace_row $ gc_stats_arg)

(* --- run ------------------------------------------------------------ *)

(* A wire-pipelined run's throughput against the golden run; only a
   completed run has one (an unfinished run's cycle count says nothing
   about the program's speed). *)
let throughput_text ~golden (r : Wp_soc.Cpu.result) =
  match r.Wp_soc.Cpu.outcome with
  | Wp_soc.Cpu.Completed -> Printf.sprintf "%.3f" (Wp_soc.Cpu.throughput ~golden r)
  | Wp_soc.Cpu.Deadlocked | Wp_soc.Cpu.Out_of_cycles | Wp_soc.Cpu.Cancelled -> "-"

let run_cmd =
  let mode =
    Arg.(value & opt (enum [ ("wp1", `Wp1); ("wp2", `Wp2); ("both", `Both) ]) `Both
         & info [ "mode" ] ~docv:"MODE" ~doc:"wp1 (plain wrappers), wp2 (oracle) or both.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-block statistics.") in
  let run program machine config mode verbose spec trace_vcd trace_json gc =
    let spec = ensure_trace ~depth:65536 ~vcd:trace_vcd ~json:trace_json spec in
    let engine = spec.Wp_core.Run_spec.engine in
    or_exit "run" @@ fun () ->
    with_gc_stats gc (fun () ->
        let golden = Wp_core.Experiment.golden ~engine ~machine program in
        Printf.printf "program %s on the %s machine; golden run: %d cycles (%s engine)\n"
          program.Wp_soc.Program.name (Datapath.machine_name machine) golden.Wp_soc.Cpu.cycles
          (Wp_sim.Sim.kind_to_string engine);
        Printf.printf "relay stations: %s (static WP1 bound %.3f)\n" (Config.describe config)
          (Wp_core.Analysis.wp1_bound_float config);
        if not (Wp_sim.Fault.is_none spec.Wp_core.Run_spec.fault) then
          Printf.printf "injecting %s\n"
            (Wp_sim.Fault.describe spec.Wp_core.Run_spec.fault);
        if not (Wp_core.Protect.is_none spec.Wp_core.Run_spec.protect) then
          Printf.printf "link protection: %s\n"
            (Wp_core.Protect.describe spec.Wp_core.Run_spec.protect);
        let both = mode = `Both in
        let one label shell_mode =
          let r =
            Wp_core.Run_spec.run_cpu ~mcr_work:golden.Wp_soc.Cpu.cycles ~spec
              ~machine ~mode:shell_mode ~rs:(Config.to_fun config) program
          in
          Printf.printf "%s: %d cycles, throughput %s, result %s%s\n" label r.Wp_soc.Cpu.cycles
            (throughput_text ~golden r)
            (if r.Wp_soc.Cpu.result_ok then "correct" else "WRONG")
            (match r.Wp_soc.Cpu.outcome with
            | Wp_soc.Cpu.Completed -> ""
            | Wp_soc.Cpu.Deadlocked -> " (deadlocked)"
            | Wp_soc.Cpu.Out_of_cycles -> " (out of cycles)"
            | Wp_soc.Cpu.Cancelled -> " (deadline exceeded)");
          if verbose then print_string (Wp_sim.Monitor.to_table r.Wp_soc.Cpu.report);
          (match r.Wp_soc.Cpu.telemetry with
          | Some rep when spec.Wp_core.Run_spec.telemetry.Wp_sim.Telemetry.counters ->
            Printf.printf "%s stall report:\n" label;
            print_string (Wp_sim.Telemetry.to_table rep.Wp_sim.Telemetry.summary)
          | Some _ | None -> ());
          export_trace ~vcd:trace_vcd ~json:trace_json
            ~suffix:(if both then String.lowercase_ascii label else "")
            r.Wp_soc.Cpu.telemetry
        in
        match mode with
        | `Wp1 -> one "WP1" Shell.Plain
        | `Wp2 -> one "WP2" Shell.Oracle
        | `Both ->
          one "WP1" Shell.Plain;
          one "WP2" Shell.Oracle)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload under one RS configuration")
    Term.(const run $ program_arg $ machine_arg $ config_arg $ mode $ verbose $ spec_term
          $ trace_vcd_arg $ trace_json_arg $ gc_stats_arg)

(* --- loops ----------------------------------------------------------- *)

let loops_cmd =
  let run config =
    let module T = Wp_util.Text_table in
    let t =
      T.create
        ~columns:[ ("loop", T.Left); ("m", T.Right); ("n", T.Right); ("m/(m+n)", T.Right) ]
    in
    List.iter
      (fun l ->
        T.add_row t
          [
            String.concat " -> " l.Wp_core.Analysis.loop_blocks;
            string_of_int l.Wp_core.Analysis.processes;
            string_of_int l.Wp_core.Analysis.stations;
            Format.asprintf "%a" Wp_graph.Cycle_ratio.ratio_pp l.Wp_core.Analysis.wp1_ratio;
          ])
      (Wp_core.Analysis.all_loops config);
    T.print t;
    Printf.printf "worst-loop WP1 bound: %.3f\n" (Wp_core.Analysis.wp1_bound_float config)
  in
  Cmd.v (Cmd.info "loops" ~doc:"Enumerate netlist loops and the static throughput bound")
    Term.(const run $ config_arg)

(* --- floorplan -------------------------------------------------------- *)

let floorplan_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let reach =
    Arg.(value & opt float 1.3 & info [ "reach" ] ~docv:"MM" ~doc:"Signal reach per clock (mm).")
  in
  let ablation = Arg.(value & flag & info [ "ablation" ] ~doc:"Compare floorplan objectives.") in
  let show tag (r : Wp_floorplan.Flow.result) =
    Printf.printf "%-24s die %.2f mm^2, wire %.1f mm, WP1 bound %.3f, RS: %s\n" tag
      r.Wp_floorplan.Flow.die_area r.Wp_floorplan.Flow.wirelength r.Wp_floorplan.Flow.wp1_bound
      (Config.describe r.Wp_floorplan.Flow.config)
  in
  let run seed reach ablation =
    let spec =
      { Wp_floorplan.Flow_spec.default with Wp_floorplan.Flow_spec.seed; reach }
    in
    if ablation then
      List.iter (fun (tag, r) -> show tag r) (Wp_floorplan.Flow.objectives_ablation ~spec ())
    else begin
      let r = Wp_floorplan.Flow.run ~spec () in
      show "floorplan" r;
      List.iter
        (fun (name, rect) ->
          Printf.printf "  %-4s at (%.2f, %.2f) size %.2f x %.2f\n" name
            rect.Wp_floorplan.Geometry.origin.Wp_floorplan.Geometry.x
            rect.Wp_floorplan.Geometry.origin.Wp_floorplan.Geometry.y
            rect.Wp_floorplan.Geometry.width rect.Wp_floorplan.Geometry.height)
        r.Wp_floorplan.Flow.placement.Wp_floorplan.Place.rects
    end
  in
  Cmd.v
    (Cmd.info "floorplan" ~doc:"Floorplan the SoC and derive relay-station counts")
    Term.(const run $ seed $ reach $ ablation)

(* --- flow -------------------------------------------------------------- *)

let flow_cmd =
  let module Flow_spec = Wp_floorplan.Flow_spec in
  let module Flow_scale = Wp_floorplan.Flow_scale in
  let topology_arg =
    Arg.(required & opt (some string) None
         & info [ "topology" ] ~docv:"SHAPE"
             ~doc:"Generated netlist to co-optimize: $(b,ring:N), \
                   $(b,mesh:RxC), $(b,torus:RxC) or $(b,rand:N), \
                   optionally suffixed $(b,:seedK).")
  in
  let reach_arg =
    Arg.(value & opt (some float) None
         & info [ "reach" ] ~docv:"CELLS"
             ~doc:"Signal reach per clock, in grid cells (default 1.5).")
  in
  let objective_arg =
    Arg.(value & opt (some string) None
         & info [ "objective" ] ~docv:"OBJ"
             ~doc:"$(b,area), $(b,wire), $(b,aware) or $(b,pareto) \
                   (default $(b,wire); $(b,pareto) gives every walker \
                   its own scalarisation).")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"N"
             ~doc:"Annealing moves, split evenly across the walkers: each \
                   makes max(1, N / pool) (default 4000).")
  in
  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED")
  in
  let pool_arg =
    Arg.(value & opt (some int) None
         & info [ "pool" ] ~docv:"K" ~doc:"Walker population size (default 4).")
  in
  let out_arg =
    Arg.(value & opt string "flow_front.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Pareto-front artifact path.")
  in
  let run topology reach objective budget seed pool out jobs gc =
    with_gc_stats gc @@ fun () ->
    match Flow_spec.of_args ~topology ?reach ?objective ?budget ?seed ?pool () with
    | Error e ->
      Printf.eprintf "wirepipe flow: %s\n" e;
      exit 1
    | Ok { Flow_spec.topology = Flow_spec.Case_study; _ } ->
      Printf.eprintf
        "wirepipe flow: the 5-block case study goes through `wirepipe floorplan' \
         (pass a generated topology: mesh:RxC, ring:N, torus:RxC, rand:N)\n";
      exit 1
    | Ok spec ->
      let r = Flow_scale.run ?jobs ~spec () in
      let best = r.Flow_scale.best in
      Printf.printf "flow: %s\n" (Flow_spec.describe spec);
      Printf.printf
        "search: %d walkers x %d rounds, %d moves, %d evaluations (%d cache hits)\n"
        r.Flow_scale.walkers r.Flow_scale.rounds r.Flow_scale.moves
        r.Flow_scale.evaluations r.Flow_scale.cache_hits;
      Printf.printf "front: %d non-dominated points\n" (List.length r.Flow_scale.front);
      Printf.printf
        "best: die %.0f cells, wire %.0f cells, %d relay stations, WP1 bound %s (%.4f)\n"
        best.Flow_scale.die_area best.Flow_scale.wirelength best.Flow_scale.rs_total
        (Format.asprintf "%a" Wp_graph.Cycle_ratio.ratio_pp best.Flow_scale.wp1_bound)
        (Wp_graph.Cycle_ratio.ratio_to_float best.Flow_scale.wp1_bound);
      (* [Flow_scale.run] has already verified the incremental bound against
         a from-scratch Howard solve of the derived network -- exactly. *)
      Printf.printf "cross-check: incremental bound == from-scratch Howard MCR (exact)\n";
      if Array.length best.Flow_scale.cells <= 256 then begin
        let net = Flow_scale.derived_network spec best in
        let rate = Flow_scale.static_rate net in
        Printf.printf "cross-check: static balanced-word rate %s (%s)\n"
          (Format.asprintf "%a" Wp_graph.Cycle_ratio.ratio_pp rate)
          (if Wp_graph.Cycle_ratio.ratio_compare rate best.Flow_scale.wp1_bound = 0 then
             "matches the WP1 bound"
           else "differs from the WP1 bound")
      end;
      let oc = open_out out in
      output_string oc (Flow_scale.front_to_json ~spec r);
      close_out oc;
      Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:"Floorplan->throughput co-optimization on a generated netlist")
    Term.(const run $ topology_arg $ reach_arg $ objective_arg $ budget_arg $ seed_arg
          $ pool_arg $ out_arg $ jobs_arg $ gc_stats_arg)

(* --- graph ------------------------------------------------------------ *)

let graph_cmd =
  let run () = print_string (Datapath.figure1_dot ()) in
  Cmd.v (Cmd.info "graph" ~doc:"Emit the case-study netlist (Figure 1) as Graphviz DOT")
    Term.(const run $ const ())

(* --- equiv ------------------------------------------------------------ *)

let equiv_cmd =
  let mode =
    Arg.(value & opt (enum [ ("wp1", `Wp1); ("wp2", `Wp2); ("both", `Both) ]) `Both
         & info [ "mode" ] ~docv:"MODE" ~doc:"wp1 (plain wrappers), wp2 (oracle) or both.")
  in
  let run program machine config mode spec =
    let fault = spec.Wp_core.Run_spec.fault in
    if not (Wp_sim.Fault.is_none fault) then
      Printf.printf "injecting %s\n" (Wp_sim.Fault.describe fault);
    if not (Wp_core.Protect.is_none spec.Wp_core.Run_spec.protect) then
      Printf.printf "link protection: %s\n"
        (Wp_core.Protect.describe spec.Wp_core.Run_spec.protect);
    let outcome_tag = function
      | Wp_sim.Engine.Halted _ -> ""
      | Wp_sim.Engine.Deadlocked _ -> " deadlocked"
      | Wp_sim.Engine.Exhausted _ -> " out of cycles"
      | Wp_sim.Engine.Cancelled _ -> " deadline exceeded"
    in
    let any_bad = ref false in
    let one label shell_mode =
      match
        Wp_core.Equiv_check.check_spec ~spec ~machine ~mode:shell_mode ~config
          program
      with
      | v ->
        if not v.Wp_core.Equiv_check.equivalent then any_bad := true;
        Printf.printf "%s: %s (%d ports, %d informative events compared)%s%s\n" label
          (if v.Wp_core.Equiv_check.equivalent then "equivalent" else "NOT EQUIVALENT")
          v.Wp_core.Equiv_check.ports_checked v.Wp_core.Equiv_check.events_compared
          (match v.Wp_core.Equiv_check.first_mismatch with
          | Some port -> " first mismatch at " ^ port
          | None -> "")
          (match outcome_tag v.Wp_core.Equiv_check.wp_outcome with
          | "" -> ""
          | tag -> " (wp run" ^ tag ^ ")");
        (match v.Wp_core.Equiv_check.recovery with
        | None -> ()
        | Some s ->
          Printf.printf
            "  link: %d protected channel%s, %d frames, %d retransmissions \
             (%d timeouts, %d NAKs), %d CRC detections, %d dedups, %d \
             recoveries, max recovery latency %d cycles\n"
            s.Wp_sim.Link.protected_channels
            (if s.Wp_sim.Link.protected_channels = 1 then "" else "s")
            s.Wp_sim.Link.frames_sent s.Wp_sim.Link.retransmissions
            s.Wp_sim.Link.timeouts s.Wp_sim.Link.naks s.Wp_sim.Link.crc_detected
            s.Wp_sim.Link.dedup_drops s.Wp_sim.Link.recoveries
            s.Wp_sim.Link.max_recovery_latency)
      | exception e when not (Wp_sim.Fault.is_none fault) ->
        (* An injected fault that crashes a process outright (e.g. a
           corrupted instruction encoding) is a detection, just a louder
           one than a trace mismatch. *)
        any_bad := true;
        Printf.printf "%s: NOT EQUIVALENT (wp run crashed: %s)\n" label
          (Printexc.to_string e)
    in
    (match mode with
    | `Wp1 -> one "WP1" Shell.Plain
    | `Wp2 -> one "WP2" Shell.Oracle
    | `Both ->
      one "WP1" Shell.Plain;
      one "WP2" Shell.Oracle);
    if !any_bad then exit 1
  in
  Cmd.v
    (Cmd.info "equiv" ~doc:"Check golden-vs-WP trace equivalence on every channel")
    Term.(const run $ program_arg $ machine_arg $ config_arg $ mode $ spec_term)

(* --- area ------------------------------------------------------------- *)

let area_cmd =
  let run () =
    let module T = Wp_util.Text_table in
    let t =
      T.create
        ~columns:
          [
            ("block", T.Left);
            ("plain gates", T.Right);
            ("oracle gates", T.Right);
            ("overhead", T.Right);
          ]
    in
    let plain = Wp_core.Area.case_study_report ~oracle:false in
    let oracle = Wp_core.Area.case_study_report ~oracle:true in
    List.iter2
      (fun (name, p, _) (_, o, pct) ->
        T.add_row t
          [
            name;
            string_of_int p.Wp_core.Area.total_gates;
            string_of_int o.Wp_core.Area.total_gates;
            Printf.sprintf "%.2f%%" pct;
          ])
      plain oracle;
    T.print t;
    let rs = Wp_core.Area.relay_station ~width:32 in
    Printf.printf "relay station (32-bit): %d gates\n" rs.Wp_core.Area.total_gates;
    Printf.printf "(overhead relative to the paper's %d-gate reference IP)\n"
      Wp_core.Area.reference_ip_gates
  in
  Cmd.v (Cmd.info "area" ~doc:"Wrapper and relay-station area estimates")
    Term.(const run $ const ())

(* --- exec: assemble and run a user program ---------------------------- *)

let exec_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly source file.")
  in
  let result_region =
    Arg.(value & opt (pair ~sep:':' int int) (0, 16)
         & info [ "result" ] ~docv:"BASE:LEN" ~doc:"Memory region to print and check.")
  in
  let run file machine config (base, len) =
    let ic = open_in file in
    let n = in_channel_length ic in
    let source = really_input_string ic n in
    close_in ic;
    match Wp_soc.Asm.assemble source with
    | Error e ->
      Format.eprintf "%s: %a@." file Wp_soc.Asm.pp_error e;
      exit 1
    | Ok text ->
      let program =
        {
          Wp_soc.Program.name = Filename.basename file;
          source;
          text;
          mem_size = 4096;
          mem_init = [];
          result_region = (base, len);
        }
      in
      or_exit "exec" @@ fun () ->
      let iss = Wp_soc.Program.reference_run program in
      Printf.printf "ISS: %d instructions\n" iss.Wp_soc.Iss.instructions;
      let golden = Wp_soc.Cpu.run_golden ~machine program in
      Printf.printf "golden: %d cycles\n" golden.Wp_soc.Cpu.cycles;
      let r =
        Wp_soc.Cpu.run ~machine ~mode:Shell.Oracle ~rs:(Config.to_fun config) program
      in
      Printf.printf "WP2 under %s: %d cycles (throughput %s), result %s\n"
        (Config.describe config) r.Wp_soc.Cpu.cycles
        (throughput_text ~golden r)
        (if r.Wp_soc.Cpu.result_ok then "correct" else "WRONG");
      Printf.printf "memory[%d..%d]:" base (base + len - 1);
      Array.iteri
        (fun i v -> if i >= base && i < base + len then Printf.printf " %d" v)
        r.Wp_soc.Cpu.memory;
      print_newline ()
  in
  Cmd.v (Cmd.info "exec" ~doc:"Assemble a file and run it on the wire-pipelined SoC")
    Term.(const run $ file $ machine_arg $ config_arg $ result_region)

(* --- optimal ----------------------------------------------------------- *)

let optimal_cmd =
  let budget = Arg.(value & opt int 9 & info [ "budget" ] ~docv:"N" ~doc:"Total relay stations.") in
  let per_max = Arg.(value & opt int 2 & info [ "max" ] ~docv:"K" ~doc:"Max per connection.") in
  let run budget per_max program machine jobs no_cache stats spec gc =
    let runner = make_runner jobs no_cache in
    let (config, value), _ =
      try
        with_gc_stats gc (fun () ->
            Wp_core.Runner.timed runner "optimal" (fun () ->
                Wp_core.Optimizer.optimal
                  ~search:
                    {
                      Wp_core.Optimizer.default_search with
                      Wp_core.Optimizer.budget;
                      per_connection_max = per_max;
                    }
                  ~map:(Wp_core.Runner.map runner)
                  ~objective:(Wp_core.Runner.objective_spec ~spec runner ~machine ~program)
                  ()))
      with Invalid_argument msg ->
        (* An unreachable, negative or otherwise bad --budget/--max. *)
        Printf.eprintf "wirepipe optimal: %s\n" msg;
        exit 1
    in
    Printf.printf "best placement of %d relay stations (max %d per connection):\n" budget per_max;
    Printf.printf "  %s\n  simulated WP2 throughput %.3f (static WP1 bound %.3f)\n"
      (Config.describe config) value (Wp_core.Analysis.wp1_bound_float config);
    report_stats runner stats
  in
  Cmd.v
    (Cmd.info "optimal" ~doc:"Search for the best relay-station placement under a budget")
    Term.(const run $ budget $ per_max $ program_arg $ machine_arg $ jobs_arg $ no_cache_arg
          $ stats_arg $ spec_term $ gc_stats_arg)

(* --- wave -------------------------------------------------------------- *)

let wave_cmd =
  let cycles = Arg.(value & opt int 40 & info [ "cycles" ] ~docv:"N" ~doc:"Window length.") in
  let from_cycle = Arg.(value & opt int 0 & info [ "from" ] ~docv:"CYCLE") in
  let vcd_out =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc:"Also write a VCD dump.")
  in
  let mode =
    Arg.(value & opt (enum [ ("wp1", Shell.Plain); ("wp2", Shell.Oracle) ]) Shell.Oracle
         & info [ "mode" ] ~docv:"MODE")
  in
  let run program machine config mode cycles from_cycle vcd_out =
    let dp = Datapath.build ~machine ~rs:(Config.to_fun config) program in
    let engine =
      Wp_sim.Engine.create ~record_traces:true ~mode dp.Datapath.network
    in
    ignore (Wp_sim.Engine.run ~max_cycles:(from_cycle + cycles + 10_000) engine);
    let traces = Wp_sim.Waveform.capture engine in
    print_string (Wp_sim.Waveform.ascii ~from_cycle ~cycles traces);
    match vcd_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Wp_sim.Waveform.vcd traces);
      close_out oc;
      Printf.printf "VCD written to %s\n" path
  in
  Cmd.v
    (Cmd.info "wave" ~doc:"Render channel activity as an ASCII timeline (and optional VCD)")
    Term.(const run $ program_arg $ machine_arg $ config_arg $ mode $ cycles $ from_cycle $ vcd_out)

(* --- rtl --------------------------------------------------------------- *)

let rtl_cmd =
  let out_dir =
    Arg.(value & opt string "rtl" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let oracle =
    Arg.(value & flag & info [ "oracle" ] ~doc:"Generate WP2 (oracle) shells instead of plain ones.")
  in
  let run out_dir oracle =
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    List.iter
      (fun (filename, contents) ->
        let path = Filename.concat out_dir filename in
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s\n" path)
      (Wp_rtl.Vhdl.case_study_package ~oracle)
  in
  Cmd.v
    (Cmd.info "rtl" ~doc:"Generate the VHDL wrappers, relay station and testbench")
    Term.(const run $ out_dir $ oracle)

(* --- serve / client ---------------------------------------------------- *)

module Service = Wp_core.Service
module Wire = Wp_core.Wire

let socket_arg =
  Arg.(value & opt string "/tmp/wirepipe.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path of the experiment daemon.")

let serve_cmd =
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Directory for the on-disk experiment cache (default: \
                   $(b,WIREPIPE_CACHE) or $(b,.wirepipe-cache)).")
  in
  let queue_bound =
    Arg.(value & opt int 32
         & info [ "queue-bound" ] ~docv:"N"
             ~doc:"Per-client pending-request cap; a request arriving on a \
                   full queue is answered $(b,Busy) immediately instead of \
                   buffering without bound.")
  in
  let batch_max =
    Arg.(value & opt int 64
         & info [ "batch-max" ] ~docv:"N"
             ~doc:"Requests drained per dispatch round (round robin, at most \
                   one per client per round).")
  in
  let reply_bound =
    Arg.(value & opt int 128
         & info [ "reply-bound" ] ~docv:"N"
             ~doc:"Per-client reply-queue cap; a client that stops reading \
                   overflows it and is disconnected (slow-loris defense).")
  in
  let idle_timeout =
    Arg.(value & opt float 300.0
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Reap a connection that has been idle this long with no \
                   queued, running or unread work.")
  in
  let io_timeout =
    Arg.(value & opt float 10.0
         & info [ "io-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-chunk budget for reading the rest of a started frame \
                   and for writing replies; a peer that trickles or stops \
                   draining is dropped.")
  in
  let shed_limit =
    Arg.(value & opt int 256
         & info [ "shed-limit" ] ~docv:"N"
             ~doc:"Total queued-request backlog at which normal-priority \
                   requests are shed with $(b,Busy) (priority 0 sheds at \
                   half this; priority 2+ only at the per-client bound).")
  in
  let breaker_threshold =
    Arg.(value & opt int 5
         & info [ "breaker-threshold" ] ~docv:"N"
             ~doc:"Consecutive quarantined outcomes for one \
                   (machine, config) key that open its circuit breaker.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 1.0
         & info [ "breaker-cooldown" ] ~docv:"SECONDS"
             ~doc:"How long an open breaker sheds matching requests before \
                   going half-open.")
  in
  let run socket jobs no_cache cache_dir queue_bound batch_max
      reply_bound idle_timeout io_timeout shed_limit breaker_threshold
      breaker_cooldown =
    let runner =
      Wp_core.Runner.create ?jobs ~cache:(not no_cache) ?cache_dir ()
    in
    let svc =
      Service.create ~queue_bound ~batch_max ~reply_bound ~idle_timeout
        ~stall_timeout:io_timeout ~write_timeout:io_timeout ~shed_limit
        ~breaker_threshold ~breaker_cooldown ~runner socket
    in
    Printf.printf "wirepipe serve: listening on %s\n%!" socket;
    (* Block until SIGINT/SIGTERM; the handler only flips a flag — the
       actual teardown (joining service threads, unlinking the socket,
       draining the pool) happens on this thread. *)
    let stopping = ref false in
    let handler = Sys.Signal_handle (fun _ -> stopping := true) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler;
    while not !stopping do Thread.delay 0.1 done;
    Service.stop svc;
    Wp_core.Runner.shutdown runner;
    Printf.printf "wirepipe serve: stopped after %d requests\n%!"
      (Service.served svc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant experiment daemon on a Unix socket"
       ~man:[ `S Manpage.s_description;
              `P "Each dispatch round answers cache hits, expires requests past their \
                  deadline, and runs every other request as one worker-pool task with \
                  bounded retries, on the kernel $(b,wp_cli run) would pick." ])
    Term.(const run $ socket_arg $ jobs_arg $ no_cache_arg $ cache_dir
          $ queue_bound $ batch_max $ reply_bound $ idle_timeout
          $ io_timeout $ shed_limit $ breaker_threshold $ breaker_cooldown)

let client_cmd =
  (* The wire protocol carries the *textual* parameter forms (the daemon
     parses them with the same library grammars the local commands use),
     so these are plain string options, not the parsed converters. *)
  let program_str =
    Arg.(value & opt string "sort"
         & info [ "p"; "program" ] ~docv:"PROG"
             ~doc:"Workload, textual form (same grammar as the local \
                   commands: sort[:n], matmul[:n], random[:seed], ...).")
  in
  let machine_str =
    Arg.(value & opt string "pipelined"
         & info [ "m"; "machine" ] ~docv:"MACHINE"
             ~doc:"CPU fashion: pipelined, btfn or multicycle.")
  in
  let config_str =
    Arg.(value & opt string "none"
         & info [ "rs" ] ~docv:"CONFIG"
             ~doc:"Relay stations, e.g. 'CU-AL=1,DC-RF=2' (or 'none').")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "n"; "repeat" ] ~docv:"N"
             ~doc:"Send the request N times (load generation; after the \
                   first miss the rest are cache hits).")
  in
  let window =
    Arg.(value & opt int 1
         & info [ "window" ] ~docv:"N"
             ~doc:"Pipelining window: requests kept in flight at once.")
  in
  let max_p99 =
    Arg.(value & opt float 0.0
         & info [ "max-p99" ] ~docv:"MS"
             ~doc:"Exit non-zero if the observed p99 latency exceeds MS \
                   milliseconds (0 disables the gate).")
  in
  let ping =
    Arg.(value & flag
         & info [ "ping" ] ~doc:"Round-trip a ping, print the latency, exit.")
  in
  let daemon_stats =
    Arg.(value & flag
         & info [ "daemon-stats" ]
             ~doc:"Print the daemon's runner statistics and exit.")
  in
  let retry_budget =
    Arg.(value & opt int 8
         & info [ "retry-budget" ] ~docv:"N"
             ~doc:"Busy retries allowed per request before giving up with \
                   exit code 3.  Retries back off exponentially with \
                   seeded jitter, never sooner than the daemon's \
                   retry-after hint.")
  in
  let priority =
    Arg.(value & opt int 1
         & info [ "priority" ] ~docv:"P"
             ~doc:"Request priority: 0 = best-effort (shed first under \
                   load), 1 = normal, 2+ = critical (shed last).")
  in
  let run socket program machine config engine capacity max_cycles fault
      fault_seed deadline_ms priority retry_budget repeat window max_p99 ping
      daemon_stats =
    let conn = Service.Client.connect socket in
    if ping then begin
      let t0 = Unix.gettimeofday () in
      (match Service.Client.call conn ~tag:0 Wire.Ping with
      | Wire.Pong ->
        Printf.printf "pong (%.2f ms)\n" ((Unix.gettimeofday () -. t0) *. 1e3)
      | _ -> failwith "unexpected reply to ping");
      Service.Client.close conn
    end
    else if daemon_stats then begin
      (match Service.Client.call conn ~tag:0 Wire.Stats with
      | Wire.Stats_reply
          { st_jobs; st_tasks_run; st_cache_hits; st_cache_misses;
            st_quarantined; st_expired; st_shed; st_breaker_trips;
            st_slow_disconnects; st_stale_reaped; st_cache_corrupt } ->
        Printf.printf
          "jobs %d, tasks run %d, cache %d hits / %d misses, %d quarantined\n\
           deadlines expired %d, shed %d, breaker trips %d, slow-client \
           disconnects %d\nstale temp files reaped %d, corrupt entries \
           quarantined %d\n"
          st_jobs st_tasks_run st_cache_hits st_cache_misses st_quarantined
          st_expired st_shed st_breaker_trips st_slow_disconnects
          st_stale_reaped st_cache_corrupt
      | _ -> failwith "unexpected reply to stats");
      Service.Client.close conn
    end
    else begin
      if repeat < 1 then invalid_arg "--repeat must be >= 1";
      if window < 1 then invalid_arg "--window must be >= 1";
      let args =
        { (Wire.run_defaults ~program ~machine ~config) with
          Wire.rq_engine = engine;
          rq_capacity = capacity;
          rq_max_cycles = max_cycles;
          rq_fault = fault;
          rq_fault_seed = fault_seed;
          rq_deadline_ms = deadline_ms;
          rq_priority = priority;
        }
      in
      let lat = Array.make repeat 0.0 in
      let sent_at = Array.make repeat 0.0 in
      let retries = Array.make repeat 0 in
      let backoff_rng = Random.State.make [| 0x2bad; fault_seed |] in
      let first = ref None in
      let busy = ref 0 and errors = ref 0 and hits = ref 0 and expired = ref 0 in
      let sent = ref 0 and recvd = ref 0 in
      let t_start = Unix.gettimeofday () in
      while !recvd < repeat do
        while !sent < repeat && !sent - !recvd < window do
          sent_at.(!sent) <- Unix.gettimeofday ();
          Service.Client.send conn ~tag:!sent (Wire.Run args);
          incr sent
        done;
        match Service.Client.recv conn with
        | None -> failwith "daemon closed the connection"
        | Some (tag, Wire.Busy { retry_after_ms }) ->
          (* Backpressure: resubmit the same tag after a jittered
             exponential backoff, never sooner than the daemon's hint.
             Latency keeps accumulating from the first send, so a
             saturated daemon shows up in p99 rather than being
             hidden. *)
          if retries.(tag) >= retry_budget then begin
            Printf.eprintf
              "wirepipe client: request %d still Busy after %d retries\n" tag
              retry_budget;
            exit 3
          end;
          incr busy;
          let base = max retry_after_ms (1 lsl retries.(tag)) in
          retries.(tag) <- retries.(tag) + 1;
          let jit = Random.State.int backoff_rng (1 + (base / 2)) in
          Thread.delay (float_of_int (base + jit) /. 1000.);
          Service.Client.send conn ~tag (Wire.Run args)
        | Some (tag, reply) ->
          lat.(tag) <- Unix.gettimeofday () -. sent_at.(tag);
          incr recvd;
          (match reply with
          | Wire.Result s ->
            if s.Wire.rs_from_cache then incr hits;
            if !first = None then first := Some s
          | Wire.Error msg ->
            incr errors;
            Printf.eprintf "wirepipe client: daemon error: %s\n" msg
          | Wire.Quarantined { attempts; last_error; _ } ->
            incr errors;
            Printf.eprintf "wirepipe client: quarantined after %d attempts: %s\n"
              attempts last_error
          | Wire.Deadline_exceeded msg ->
            incr expired;
            Printf.eprintf "wirepipe client: deadline exceeded: %s\n" msg
          | _ -> ())
      done;
      let elapsed = Unix.gettimeofday () -. t_start in
      Service.Client.close conn;
      (match !first with
      | Some s ->
        Printf.printf
          "%s on %s, rs=%s: golden %d, WP1 %d cycles (th %.3f), WP2 %d cycles \
           (th %.3f), gain %.1f%%\n"
          s.Wire.rs_program s.Wire.rs_machine s.Wire.rs_config
          s.Wire.rs_golden_cycles s.Wire.rs_wp1_cycles s.Wire.rs_th_wp1
          s.Wire.rs_wp2_cycles s.Wire.rs_th_wp2 s.Wire.rs_gain_percent
      | None -> ());
      Array.sort compare lat;
      let pct p = lat.(min (repeat - 1) (repeat * p / 100)) *. 1e3 in
      let p50 = pct 50 and p99 = pct 99 in
      if repeat > 1 || max_p99 > 0.0 then
        Printf.printf
          "%d requests in %.3f s (%.1f specs/sec), p50 %.2f ms, p99 %.2f ms, \
           %d busy retries, %d cache hits, %d expired, %d errors\n"
          repeat elapsed
          (float_of_int repeat /. elapsed)
          p50 p99 !busy !hits !expired !errors;
      if !errors > 0 then exit 1;
      if max_p99 > 0.0 && p99 > max_p99 then begin
        Printf.eprintf "wirepipe client: p99 %.2f ms exceeds --max-p99 %.2f ms\n"
          p99 max_p99;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send experiment requests to a running daemon and report latency")
    Term.(const run $ socket_arg $ program_str $ machine_str $ config_str
          $ engine_str_arg $ capacity_arg $ max_cycles_arg $ fault_str_arg
          $ fault_seed_arg $ deadline_ms_arg $ priority $ retry_budget $ repeat
          $ window $ max_p99 $ ping $ daemon_stats)

(* --- chaos ------------------------------------------------------------ *)

(* Self-contained fault-boundary drill against a real daemon: p99
   latency under hostile clients (garbage frames, mid-frame disconnects,
   silent flooders), an fd-leak check and a SIGKILL-and-restart pass
   over a shared disk cache.  Exit 0 iff every scenario holds: p99
   under attack must stay within 3x the unloaded p99, both for cached
   requests and for concurrent clients of distinct uncached programs,
   and those clients must get nothing but results.  Each hostile
   behaviour on its own (garbage, oversized and truncated frames, a
   silent client, a deadline storm) is asserted by the chaos test
   suite. *)
let chaos_cmd =
  let module Frame = Wp_util.Frame in
  let requests_arg =
    Arg.(value & opt int 50
         & info [ "requests" ] ~docv:"N"
             ~doc:"Cached requests per latency measurement (baseline and \
                   under-attack p99 are both over N requests).")
  in
  let u32_be n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.to_string b
  in
  let raw_connect socket =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  let send_raw fd s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let rec go o = if o < n then go (o + Unix.write fd b o (n - o)) in
    go 0
  in
  let fd_count () = Array.length (Sys.readdir "/proc/self/fd") in
  let healthy socket =
    let conn = Service.Client.connect socket in
    Fun.protect ~finally:(fun () -> Service.Client.close conn)
      (fun () -> Service.Client.call conn ~tag:0 Wire.Ping = Wire.Pong)
  in
  let wait_for ?(timeout = 10.0) pred =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if pred () then true
      else if Unix.gettimeofday () > deadline then false
      else (Thread.delay 0.02; go ())
    in
    go ()
  in
  let chaos_args =
    { (Wire.run_defaults ~program:"sort:8" ~machine:"pipelined"
         ~config:"CU-AL=1")
      with Wire.rq_priority = 2 (* the good client is the critical tenant *) }
  in
  (* Well-behaved load: [clients] concurrent connections, each keeping
     up to [window] of its [n] requests in flight and riding out Busy
     shedding; request [k] of client [c] is [args (c * n + k)].  Returns
     the p99 latency (ms, first send to reply) and the number of replies
     that were not a Result. *)
  let load socket ~clients ~window ~n args =
    let lat = Array.make (clients * n) 0.0 in
    let bad = Atomic.make 0 in
    let client c =
      try
        let conn = Service.Client.connect socket in
        Fun.protect ~finally:(fun () -> Service.Client.close conn) @@ fun () ->
        let send k = Service.Client.send conn ~tag:k (Wire.Run (args ((c * n) + k))) in
        let sent_at = Array.make n 0.0 in
        let sent = ref 0 and recvd = ref 0 in
        while !recvd < n do
          while !sent < n && !sent - !recvd < window do
            sent_at.(!sent) <- Unix.gettimeofday ();
            send !sent;
            incr sent
          done;
          match Service.Client.recv conn with
          | None -> failwith "daemon closed a well-behaved client"
          | Some (k, Wire.Busy { retry_after_ms }) ->
            Thread.delay (float_of_int (max 1 retry_after_ms) /. 1000.);
            send k
          | Some (k, reply) ->
            lat.((c * n) + k) <- Unix.gettimeofday () -. sent_at.(k);
            incr recvd;
            (match reply with Wire.Result _ -> () | _ -> Atomic.incr bad)
        done
      with e ->
        Printf.eprintf "chaos: client %d: %s\n%!" c (Printexc.to_string e);
        Atomic.incr bad
    in
    List.iter Thread.join (List.init clients (Thread.create client));
    Array.sort compare lat;
    (lat.(clients * n * 99 / 100) *. 1e3, Atomic.get bad)
  in
  let cached socket n = load socket ~clients:1 ~window:1 ~n (fun _ -> chaos_args) in
  (* Four clients, window 2, 32 distinct random programs each, so every
     request is real simulation work rather than a cache hit. *)
  let uncached socket ~base =
    load socket ~clients:4 ~window:2 ~n:32 (fun k ->
        Wire.run_defaults ~program:(Printf.sprintf "random:%d" (base + k))
          ~machine:"pipelined" ~config:"none")
  in
  (* 3x the unloaded p99, with a floor so a microsecond baseline does not
     turn scheduler noise into a failure. *)
  let limit baseline = Float.max (3.0 *. baseline) (baseline +. 25.0) in
  let run jobs requests =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let failures = ref 0 in
    let scenario name ok detail =
      Printf.printf "%-44s %s%s\n%!" name (if ok then "PASS" else "FAIL")
        (if detail = "" then "" else "  " ^ detail);
      if not ok then incr failures
    in
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "wp_chaos_%d" (Unix.getpid ()))
    in
    Unix.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    @@ fun () ->
    let socket = Filename.concat dir "chaos.sock" in
    let cache = Filename.concat dir "cache" in
    let runner = Wp_core.Runner.create ?jobs ~cache:true ~cache_dir:cache () in
    let fd_before = fd_count () in
    let svc =
      Service.create ~reply_bound:32 ~write_timeout:0.3 ~stall_timeout:0.5
        ~runner socket
    in
    (* Warm the cache so both cached measurements serve hits. *)
    ignore (cached socket 1);
    let baseline, baseline_bad = cached socket requests in
    Printf.printf "baseline p99 over %d cached requests: %.2f ms\n%!" requests
      baseline;
    let clean, clean_bad = uncached socket ~base:40_000 in
    Printf.printf "clean p99 over 4 x 32 uncached requests: %.2f ms\n%!" clean;

    (* Degradation: p99 with hostile clients attacking concurrently. *)
    (let hostile_stop = ref false in
     let garbage_flooder =
       Thread.create
         (fun () ->
           while not !hostile_stop do
             (try
                let fd = raw_connect socket in
                for _ = 1 to 50 do
                  Frame.write fd "garbage!";
                  ignore (Frame.read fd)
                done;
                (* vanish mid-frame on the way out *)
                send_raw fd (u32_be 64);
                send_raw fd "0123";
                Unix.close fd
              with _ -> ());
             Thread.delay 0.005
           done)
         ()
     in
     let silent_flooder =
       Thread.create
         (fun () ->
           let ping = Wire.encode_request ~tag:0 Wire.Ping in
           let frame = u32_be (String.length ping) ^ ping in
           let burst = String.concat "" (List.init 256 (fun _ -> frame)) in
           while not !hostile_stop do
             (try
                let fd = raw_connect socket in
                (try for _ = 1 to 50 do send_raw fd burst done with _ -> ());
                (try Unix.close fd with _ -> ())
              with _ -> ());
             Thread.delay 0.005
           done)
         ()
     in
     let attacked, attacked_bad = cached socket requests in
     let loaded, loaded_bad = uncached socket ~base:50_000 in
     hostile_stop := true;
     Thread.join garbage_flooder;
     Thread.join silent_flooder;
     scenario "p99 under attack within 3x baseline" (attacked <= limit baseline)
       (Printf.sprintf "%.2f ms vs limit %.2f ms" attacked (limit baseline));
     scenario "uncached p99 under attack within 3x clean" (loaded <= limit clean)
       (Printf.sprintf "%.2f ms vs limit %.2f ms" loaded (limit clean));
     let bad = baseline_bad + clean_bad + attacked_bad + loaded_bad in
     scenario "well-behaved clients got only results" (bad = 0)
       (Printf.sprintf "%d other replies" bad));

    Service.stop svc;
    let fd_after = fd_count () in
    scenario "no fd leak" (fd_after <= fd_before)
      (Printf.sprintf "before %d, after %d" fd_before fd_after);
    Wp_core.Runner.shutdown runner;

    (* SIGKILL-and-restart: a murdered daemon's cache directory must be
       fully usable by its successor — stale temp files swept, no
       corruption, prior entries served as hits. *)
    (let sock2 = Filename.concat dir "kill.sock" in
     let spawn () =
       let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
       Fun.protect ~finally:(fun () -> Unix.close devnull)
         (fun () ->
           Unix.create_process Sys.executable_name
             [| Sys.executable_name; "serve"; "--socket"; sock2;
                "--cache-dir"; cache; "--jobs"; "2" |]
             Unix.stdin devnull devnull)
     in
     let ready () =
       wait_for (fun () -> try healthy sock2 with _ -> false)
     in
     let ask () =
       let conn = Service.Client.connect sock2 in
       Fun.protect ~finally:(fun () -> Service.Client.close conn)
         (fun () ->
           match Service.Client.call conn ~tag:0 (Wire.Run chaos_args) with
           | Wire.Result s -> Some s.Wire.rs_from_cache
           | _ -> None)
     in
     let pid = spawn () in
     let first = if ready () then ask () else None in
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     let pid2 = spawn () in
     let second = if ready () then ask () else None in
     let strays =
       Sys.readdir cache |> Array.to_list
       |> List.filter (fun n -> List.mem "tmp" (String.split_on_char '.' n))
     in
     Unix.kill pid2 Sys.sigterm;
     ignore (Unix.waitpid [] pid2);
     scenario "SIGKILL'd daemon restarts onto its cache"
       (first <> None && second = Some true && strays = [])
       (Printf.sprintf "hit after restart: %b, stray temp files: %d"
          (second = Some true) (List.length strays)));

    if !failures > 0 then begin
      Printf.eprintf "chaos: %d scenario(s) failed\n" !failures;
      exit 1
    end;
    Printf.printf "chaos: all scenarios passed\n"
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Drill the daemon's fault boundary with hostile clients and a \
             SIGKILL-restart cycle")
    Term.(const run $ jobs_arg $ requests_arg)

(* --- sweep ------------------------------------------------------------ *)

let sweep_cmd =
  let module Topology = Wp_topo.Topology in
  let module Sweep = Wp_topo.Sweep in
  let topology_conv =
    let parse s =
      match Topology.of_string s with
      | Ok t -> Ok t
      | Error e -> Error (`Msg e)
    in
    let print ppf t = Format.pp_print_string ppf (Topology.to_string t) in
    Arg.conv (parse, print)
  in
  let topology_arg =
    Arg.(non_empty & opt_all topology_conv []
         & info [ "topology" ] ~docv:"SHAPE"
             ~doc:"Topology family to sweep (repeatable): \
                   $(b,ring:N), $(b,mesh:RxC), $(b,torus:RxC) or \
                   $(b,rand:N), each optionally suffixed \
                   $(b,:seedK), $(b,:rsK) (max relay stations per \
                   channel) and $(b,:adapt) (insert mismatched-width \
                   channels bridged by space-time adapter shells).")
  in
  let seeds_arg =
    Arg.(value & opt int 1
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Generator seeds per family: each family is \
                   instantiated with seeds $(i,base..base+N-1).")
  in
  let no_check_arg =
    Arg.(value & flag
         & info [ "no-check" ]
             ~doc:"Skip the cross-engine agreement checks (a solo \
                   table replay with its exact word-rate check, and \
                   reference-interpreter spot checks); only run the \
                   primary engine.")
  in
  let run topos seeds no_check jobs gc spec =
    with_gc_stats gc @@ fun () ->
    let scenarios = Sweep.expand ~topos ~seeds ~spec in
    let results = Sweep.run ?jobs ~check_engines:(not no_check) scenarios in
    print_string (Sweep.render results);
    let failures = List.filter (fun r -> not (Sweep.ok r)) results in
    if failures <> [] then begin
      List.iter
        (fun (r : Sweep.result) ->
          let reason =
            match r.Sweep.r_error with
            | Some e -> e
            | None ->
              match (r.Sweep.r_word_ok, r.Sweep.r_word_rate) with
              | Some false, Some word ->
                let pp = Wp_graph.Cycle_ratio.ratio_pp in
                Format.asprintf "word-rate mismatch (word %a, bound %a)" pp word pp
                  r.Sweep.r_bound
              | _ -> Sweep.summarise_disagreements r.Sweep.r_disagreements
          in
          let path = Sweep.write_repro r.Sweep.r_scenario ~reason in
          Printf.eprintf "FAIL %s: %s\n  repro:  %s\n  replay: %s\n"
            (Topology.digest r.Sweep.r_scenario.Sweep.topo)
            reason path
            (Sweep.replay_command r.Sweep.r_scenario))
        failures;
      Printf.eprintf "sweep: %d/%d scenarios failed\n" (List.length failures)
        (List.length results);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Stress generated topologies across engines and seeds")
    Term.(const run $ topology_arg $ seeds_arg $ no_check_arg $ jobs_arg
          $ gc_stats_arg $ spec_term)

let () =
  let doc = "wire-pipelined SoC design methodology (DATE'05 reproduction)" in
  let info = Cmd.info "wirepipe" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table1_cmd;
            run_cmd;
            loops_cmd;
            floorplan_cmd;
            flow_cmd;
            graph_cmd;
            equiv_cmd;
            area_cmd;
            exec_cmd;
            optimal_cmd;
            wave_cmd;
            rtl_cmd;
            serve_cmd;
            client_cmd;
            chaos_cmd;
            sweep_cmd;
          ]))
