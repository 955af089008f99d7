(* Benchmark harness: regenerates every table and figure of the paper and
   times the kernels behind them with Bechamel.

   Sections:
     1. Figure 1      — the case-study netlist (DOT + loop inventory)
     2. Table 1       — extraction sort, pipelined (13 rows, vs paper)
     3. Table 1       — matrix multiply, pipelined (25 rows, vs paper)
     4. Multicycle    — the supplement the paper discusses but omits
     5. Area          — wrapper/RS overhead (paper section 1 claim)
     6. Equivalence   — golden-vs-WP verdicts across configurations
     7. Ablation      — static bound and WP2 estimator vs simulation
     8. Floorplan     — the methodology flow and its objective ablation
     9. Bechamel      — micro-benchmarks, one per table/figure kernel

   Run with: dune exec bench/main.exe -- [--engine fast|ref] [--gc-stats]
   (set WIREPIPE_BENCH_FAST=1 to shrink workloads for smoke runs;
    --engine picks the simulation kernel for every section, default fast;
    --gc-stats reports minor-heap words per simulated cycle at the end) *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Shell = Wp_lis.Shell
module Config = Wp_core.Config
module Experiment = Wp_core.Experiment
module Table1 = Wp_core.Table1
module Runner = Wp_core.Runner

let fast = Sys.getenv_opt "WIREPIPE_BENCH_FAST" <> None

(* --engine selects the simulation kernel behind every section (also
   settable via WIREPIPE_ENGINE); --gc-stats adds an allocation report. *)
let engine, gc_stats =
  let open Cmdliner in
  let engine =
    let parse s =
      match Wp_sim.Sim.kind_of_string s with
      | Some k -> Ok k
      | None -> Error (`Msg (Printf.sprintf "unknown engine %S (want fast|ref)" s))
    in
    let print ppf k = Format.pp_print_string ppf (Wp_sim.Sim.kind_to_string k) in
    Arg.(value & opt (conv (parse, print)) Wp_sim.Sim.Fast
         & info [ "engine" ] ~docv:"ENGINE" ~env:(Cmd.Env.info "WIREPIPE_ENGINE")
             ~doc:"Simulation kernel behind every section: $(b,fast) (the default) \
                   or $(b,ref).")
  in
  let gc_stats =
    Arg.(value & flag
         & info [ "gc-stats" ] ~doc:"Report minor-heap words allocated by each section.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "main" ~doc:"Regenerate the paper's tables and time the kernels behind them")
      Term.(const (fun e g -> (e, g)) $ engine $ gc_stats)
  in
  match Cmd.eval_value cmd with
  | Ok (`Ok flags) -> flags
  | Ok (`Help | `Version) -> exit 0
  | Error _ -> exit Cmd.Exit.cli_error

(* One runner for the whole harness: WIREPIPE_JOBS workers, shared result
   cache.  Later sections (ablation, depth sweep) re-request rows the
   Table 1 sections already simulated, so the cache-hit counters below are
   live observability, not decoration. *)
let runner = Runner.create ()

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Run a section on the runner's wall clock and report it immediately.
   (The tables themselves are byte-identical for any WIREPIPE_JOBS; only
   these bracketed stats lines vary run to run.) *)
let timed name f =
  let g0 = if gc_stats then (Gc.quick_stat ()).Gc.minor_words else 0.0 in
  let result, s = Runner.timed runner name f in
  if gc_stats then
    let dw = (Gc.quick_stat ()).Gc.minor_words -. g0 in
    Printf.printf "[%s: %.3f s wall, %d tasks, %d cache hits, %.1f M minor words]\n" name
      s.Runner.wall_seconds s.Runner.section_tasks s.Runner.section_cache_hits (dw /. 1e6)
  else
    Printf.printf "[%s: %.3f s wall, %d tasks, %d cache hits]\n" name
      s.Runner.wall_seconds s.Runner.section_tasks s.Runner.section_cache_hits;
  result

(* ------------------------------------------------------------------ *)
(* 1. Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  heading "Figure 1 — case-study netlist (Graphviz DOT)";
  print_string (Datapath.figure1_dot ());
  print_endline "netlist loops (the throughput-limiting structures):";
  let module T = Wp_util.Text_table in
  let t =
    T.create ~columns:[ ("loop", T.Left); ("m", T.Right); ("Th with 1 RS/channel", T.Right) ]
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let key = String.concat "->" l.Wp_core.Analysis.loop_blocks in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let m = l.Wp_core.Analysis.processes in
        T.add_row t
          [
            String.concat " -> " l.Wp_core.Analysis.loop_blocks;
            string_of_int m;
            Printf.sprintf "%d/%d" m (2 * m);
          ]
      end)
    (Wp_core.Analysis.all_loops Config.zero);
  T.print t

(* ------------------------------------------------------------------ *)
(* 2-3. Table 1 with paper side-by-side                               *)
(* ------------------------------------------------------------------ *)

let side_by_side ~title ~workload rows =
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("#", T.Right);
          ("RS Configuration", T.Left);
          ("WP2 cycles", T.Right);
          ("Th WP1 paper", T.Right);
          ("Th WP1 ours", T.Right);
          ("Th WP2 paper", T.Right);
          ("Th WP2 ours", T.Right);
          ("gain paper", T.Right);
          ("gain ours", T.Right);
        ]
  in
  T.add_span_row t title;
  T.add_separator t;
  let reference = Table1.paper_reference ~workload in
  List.iter
    (fun (row : Table1.row) ->
      let r = row.Table1.record in
      let paper_wp1, paper_wp2 =
        match List.find_opt (fun (i, _, _, _) -> i = row.Table1.index) reference with
        | Some (_, _, wp1, wp2) -> (wp1, wp2)
        | None -> (nan, nan)
      in
      let paper_gain = Wp_util.Stats.percent_gain paper_wp1 paper_wp2 in
      T.add_row t
        [
          string_of_int row.Table1.index;
          row.Table1.label;
          string_of_int r.Experiment.wp2.Wp_soc.Cpu.cycles;
          Printf.sprintf "%.3f" paper_wp1;
          Printf.sprintf "%.3f" r.Experiment.th_wp1;
          Printf.sprintf "%.2f" paper_wp2;
          Printf.sprintf "%.2f" r.Experiment.th_wp2;
          Printf.sprintf "%+.0f%%" paper_gain;
          Printf.sprintf "%+.0f%%" r.Experiment.gain_percent;
        ])
    rows;
  T.print t

let table1_sort () =
  heading "Table 1 — Extraction Sort, pipelined (paper vs this reproduction)";
  let values = Programs.sort_values ~seed:1 ~n:(if fast then 10 else 16) in
  let rows =
    timed "table1-sort" (fun () ->
        Table1.sort_rows
          ~spec:(Wp_core.Run_spec.v ~engine ())
          ~values ~runner ~machine:Datapath.Pipelined ())
  in
  side_by_side ~title:"Extraction Sort (pipelined)" ~workload:`Sort rows

let table1_matmul () =
  heading "Table 1 — Matrix Multiply, pipelined (paper vs this reproduction)";
  let rows =
    timed "table1-matmul" (fun () ->
        Table1.matmul_rows
          ~spec:(Wp_core.Run_spec.v ~engine ())
          ~n:(if fast then 3 else 5) ~runner ~machine:Datapath.Pipelined ())
  in
  side_by_side ~title:"Matrix Multiply (pipelined)" ~workload:`Matmul rows

(* ------------------------------------------------------------------ *)
(* 4. Multicycle supplement                                           *)
(* ------------------------------------------------------------------ *)

let multicycle () =
  heading "Multicycle supplement (the case the paper describes but omits for space)";
  print_endline
    "the CU-IC loop is exercised once per ~5 cycles in the multicycle machine,\n\
     so the oracle recovers most of the relay-station penalty there (the paper\n\
     reports ~60% on this loop):";
  let program =
    Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:(if fast then 8 else 12))
  in
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("RS Configuration", T.Left);
          ("Th WP1", T.Right);
          ("Th WP2", T.Right);
          ("WP2 vs WP1", T.Right);
        ]
  in
  let specs =
    [ ("Only CU-IC", Config.only Datapath.CU_IC 1) ]
    @ List.map
        (fun conn ->
          (Printf.sprintf "Only %s" (Datapath.connection_name conn), Config.only conn 1))
        [ Datapath.CU_AL; Datapath.ALU_CU; Datapath.RF_DC ]
    @ [ ("All 1 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 1) ]
  in
  let records =
    timed "multicycle" (fun () ->
        Runner.experiments_spec ~spec:(Wp_core.Run_spec.v ~engine ()) runner ~machine:Datapath.Multicycle ~program
          (List.map snd specs))
  in
  List.iter2
    (fun (label, _) r ->
      T.add_row t
        [
          label;
          Printf.sprintf "%.3f" r.Experiment.th_wp1;
          Printf.sprintf "%.3f" r.Experiment.th_wp2;
          Printf.sprintf "%+.0f%%" r.Experiment.gain_percent;
        ])
    specs records;
  T.print t

(* ------------------------------------------------------------------ *)
(* 5. Area                                                            *)
(* ------------------------------------------------------------------ *)

let area () =
  heading "Area overhead (paper: wrapper < 1% of a 100 kgate IP)";
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("block", T.Left);
          ("plain wrapper", T.Right);
          ("oracle wrapper", T.Right);
          ("overhead vs 100 kgates", T.Right);
        ]
  in
  List.iter2
    (fun (name, p, _) (_, o, pct) ->
      T.add_row t
        [
          name;
          Printf.sprintf "%d gates" p.Wp_core.Area.total_gates;
          Printf.sprintf "%d gates" o.Wp_core.Area.total_gates;
          Printf.sprintf "%.2f%%" pct;
        ])
    (Wp_core.Area.case_study_report ~oracle:false)
    (Wp_core.Area.case_study_report ~oracle:true);
  T.print t;
  Printf.printf "relay station (32-bit channel): %d gates\n"
    (Wp_core.Area.relay_station ~width:32).Wp_core.Area.total_gates

(* ------------------------------------------------------------------ *)
(* 6. Equivalence                                                     *)
(* ------------------------------------------------------------------ *)

let equivalence () =
  heading "Formal equivalence (golden vs wire-pipelined, all channels)";
  let program =
    Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:(if fast then 8 else 12))
  in
  let checks =
    [
      ( "pipelined WP1, All 1 (no CU-IC)",
        Datapath.Pipelined,
        Shell.Plain,
        Config.uniform ~except:[ Datapath.CU_IC ] 1 );
      ( "pipelined WP2, All 1 (no CU-IC)",
        Datapath.Pipelined,
        Shell.Oracle,
        Config.uniform ~except:[ Datapath.CU_IC ] 1 );
      ( "pipelined WP2, All 2 (no CU-IC)",
        Datapath.Pipelined,
        Shell.Oracle,
        Config.uniform ~except:[ Datapath.CU_IC ] 2 );
      ( "multicycle WP2, Only CU-IC",
        Datapath.Multicycle,
        Shell.Oracle,
        Config.only Datapath.CU_IC 1 );
    ]
  in
  let verdicts =
    timed "equivalence" (fun () ->
        Runner.map runner
          (fun (_, machine, mode, config) ->
            Wp_core.Equiv_check.check_spec
              ~spec:(Wp_core.Run_spec.v ~engine ())
              ~machine ~mode ~config program)
          checks)
  in
  List.iter2
    (fun (label, _, _, _) v ->
      Printf.printf "%-44s %s (%d ports, %d events)\n" label
        (if v.Wp_core.Equiv_check.equivalent then "equivalent" else "NOT EQUIVALENT")
        v.Wp_core.Equiv_check.ports_checked v.Wp_core.Equiv_check.events_compared)
    checks verdicts

(* ------------------------------------------------------------------ *)
(* 7. Ablation: analytics vs simulation                               *)
(* ------------------------------------------------------------------ *)

let ablation () =
  heading "Ablation — static bound and oracle estimator vs simulation";
  let program =
    Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:(if fast then 8 else 12))
  in
  (* Utilisation profile measured once on the relay-free oracle system. *)
  let profile =
    Wp_soc.Cpu.run ~engine ~machine:Datapath.Pipelined ~mode:Shell.Oracle
      ~rs:Wp_soc.Cpu.no_relay_stations program
  in
  let utilization = Wp_core.Analysis.utilization_of_report profile.Wp_soc.Cpu.report in
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("config", T.Left);
          ("WP1 bound", T.Right);
          ("WP1 sim", T.Right);
          ("WP2 estimate", T.Right);
          ("WP2 sim", T.Right);
        ]
  in
  let specs =
    List.map
      (fun conn ->
        (Printf.sprintf "Only %s" (Datapath.connection_name conn), Config.only conn 1))
      Datapath.all_connections
    @ [ ("All 1 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 1) ]
  in
  let records =
    timed "ablation" (fun () ->
        Runner.experiments_spec ~spec:(Wp_core.Run_spec.v ~engine ()) runner ~machine:Datapath.Pipelined ~program
          (List.map snd specs))
  in
  List.iter2
    (fun (label, config) r ->
      T.add_row t
        [
          label;
          Printf.sprintf "%.3f" r.Experiment.wp1_bound;
          Printf.sprintf "%.3f" r.Experiment.th_wp1;
          Printf.sprintf "%.3f" (Wp_core.Analysis.wp2_estimate config ~utilization);
          Printf.sprintf "%.3f" r.Experiment.th_wp2;
        ])
    specs records;
  T.print t;
  print_endline
    "(the estimator is first-order: it ignores dependency chaining through the\n\
     CU, so it overshoots on ctrl-side loops; the bound column is exact for WP1)"

(* ------------------------------------------------------------------ *)
(* 7b. Buffer sizing (extension)                                      *)
(* ------------------------------------------------------------------ *)

let buffer_sizing () =
  heading "Extension — shell FIFO sizing vs the static bound";
  print_endline
    "capacity-2 FIFOs leave a small gap to the marked-graph bound on long\n\
     loops; deeper FIFOs close it (the relay stations themselves never\n\
     limit throughput):";
  let program =
    Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:(if fast then 8 else 12))
  in
  let golden = Experiment.golden ~engine ~machine:Datapath.Pipelined program in
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("config", T.Left);
          ("bound", T.Right);
          ("cap 2", T.Right);
          ("cap 3", T.Right);
          ("cap 4", T.Right);
          ("unbounded", T.Right);
        ]
  in
  List.iter
    (fun (label, config) ->
      let th capacity =
        let r =
          Wp_soc.Cpu.run ~engine ~capacity ~machine:Datapath.Pipelined ~mode:Shell.Plain
            ~rs:(Config.to_fun config) program
        in
        Printf.sprintf "%.3f" (Wp_soc.Cpu.throughput ~golden r)
      in
      T.add_row t
        [
          label;
          Printf.sprintf "%.3f" (Wp_core.Analysis.wp1_bound_float config);
          th 2;
          th 3;
          th 4;
          th 0;
        ])
    [
      ("Only CU-DC", Config.only Datapath.CU_DC 1);
      ("Only CU-RF", Config.only Datapath.CU_RF 1);
      ("Only ALU-DC", Config.only Datapath.ALU_DC 1);
      ("All 1 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 1);
    ];
  T.print t

(* ------------------------------------------------------------------ *)
(* 5b. System-level overhead                                          *)
(* ------------------------------------------------------------------ *)

let system_overhead () =
  heading "Extension — whole-system added hardware per configuration";
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [ ("config", T.Left); ("added gates", T.Right); ("vs 5 x 100 kgate IPs", T.Right) ]
  in
  List.iter
    (fun (label, config) ->
      let e = Wp_core.Area.system_overhead ~oracle:true config in
      T.add_row t
        [
          label;
          string_of_int e.Wp_core.Area.total_gates;
          Printf.sprintf "%.2f%%" (Wp_core.Area.system_overhead_percent ~oracle:true config);
        ])
    [
      ("wrappers only", Config.zero);
      ("All 1 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 1);
      ("All 2 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 2);
      ("All 2 + CU-IC 2", Config.uniform 2);
    ];
  T.print t

(* ------------------------------------------------------------------ *)
(* 7c. Throughput vs pipeline depth (extension figure)                *)
(* ------------------------------------------------------------------ *)

let depth_sweep () =
  heading "Extension — throughput vs relay stations on one connection (series)";
  let program =
    Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:(if fast then 8 else 12))
  in
  let depths = [ 0; 1; 2; 3; 4 ] in
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        (("connection / RS", T.Left)
        :: List.concat_map
             (fun d -> [ (Printf.sprintf "WP1 n=%d" d, T.Right); (Printf.sprintf "WP2 n=%d" d, T.Right) ])
             depths)
  in
  let conns = [ Datapath.CU_IC; Datapath.ALU_CU; Datapath.RF_DC; Datapath.CU_RF ] in
  let configs =
    List.concat_map (fun conn -> List.map (Config.only conn) depths) conns
  in
  let records =
    timed "depth-sweep" (fun () ->
        Runner.experiments_spec ~spec:(Wp_core.Run_spec.v ~engine ()) runner ~machine:Datapath.Pipelined ~program configs)
  in
  let cells =
    List.map
      (fun (r : Experiment.record) ->
        [
          Printf.sprintf "%.2f" r.Experiment.th_wp1;
          Printf.sprintf "%.2f" r.Experiment.th_wp2;
        ])
      records
  in
  let rec rows conns cells =
    match conns with
    | [] -> ()
    | conn :: rest ->
      let here, remaining =
        let n = List.length depths in
        (List.filteri (fun i _ -> i < n) cells, List.filteri (fun i _ -> i >= n) cells)
      in
      T.add_row t (Datapath.connection_name conn :: List.concat here);
      rows rest remaining
  in
  rows conns cells;
  T.print t;
  print_endline
    "(each WP1 column follows the worst loop m/(m+n); the oracle columns decay\n\
     far more slowly on the sparsely used flags and store-data wires)"

(* ------------------------------------------------------------------ *)
(* 7d. Branch prediction ablation (extension)                         *)
(* ------------------------------------------------------------------ *)

let prediction_ablation () =
  heading "Extension — static BTFN branch prediction (future-work CU variant)";
  let countdown =
    Wp_soc.Program.of_source ~name:"countdown"
      {|
        ldi r1, 60
        ldi r2, 0
loop:   addi r1, r1, -1
        cmp r1, r2
        br.gt loop
        halt
      |}
  in
  let programs =
    [
      countdown;
      Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:(if fast then 8 else 12));
    ]
  in
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("program", T.Left);
          ("golden plain", T.Right);
          ("golden btfn", T.Right);
          ("speedup", T.Right);
          ("WP2 All-1 plain", T.Right);
          ("WP2 All-1 btfn", T.Right);
        ]
  in
  let all1 = Config.uniform ~except:[ Datapath.CU_IC ] 1 in
  List.iter
    (fun program ->
      let g m = (Experiment.golden ~engine ~machine:m program).Wp_soc.Cpu.cycles in
      let wp2 m =
        (Runner.experiment_spec ~spec:(Wp_core.Run_spec.v ~engine ()) runner ~machine:m ~program all1).Experiment.wp2
          .Wp_soc.Cpu.cycles
      in
      let plain = g Datapath.Pipelined and btfn = g Datapath.Pipelined_btfn in
      T.add_row t
        [
          program.Wp_soc.Program.name;
          string_of_int plain;
          string_of_int btfn;
          Printf.sprintf "%.2fx" (float_of_int plain /. float_of_int btfn);
          string_of_int (wp2 Datapath.Pipelined);
          string_of_int (wp2 Datapath.Pipelined_btfn);
        ])
    programs;
  T.print t;
  print_endline
    "(BTFN helps code whose loops close on a backward conditional branch; the\n\
     paper's workloads close loops with br.al, which the CU already redirects\n\
     at dispatch, so Table 1 is unaffected by the predictor)"

(* ------------------------------------------------------------------ *)
(* 8. Floorplan flow                                                  *)
(* ------------------------------------------------------------------ *)

let floorplan () =
  heading "Methodology flow — floorplan-derived relay stations";
  List.iter
    (fun (tag, r) ->
      Printf.printf "%-24s die %.2f mm^2 | wire %.1f mm | WP1 bound %.3f | RS: %s\n" tag
        r.Wp_floorplan.Flow.die_area r.Wp_floorplan.Flow.wirelength
        r.Wp_floorplan.Flow.wp1_bound
        (Config.describe r.Wp_floorplan.Flow.config))
    (Wp_floorplan.Flow.objectives_ablation
       ~spec:
         {
           Wp_floorplan.Flow_spec.default with
           Wp_floorplan.Flow_spec.seed = 9;
           reach = 1.3;
         }
       ())

(* ------------------------------------------------------------------ *)
(* 9. Bechamel micro-benchmarks                                       *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  heading "Bechamel micro-benchmarks (kernel behind each table/figure)";
  let open Bechamel in
  let sort_program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:8) in
  let matmul_program =
    Programs.matrix_multiply ~n:3 ~a:(Programs.matrix_values ~seed:2 ~n:3)
      ~b:(Programs.matrix_values ~seed:3 ~n:3)
  in
  let config = Config.uniform ~except:[ Datapath.CU_IC ] 1 in
  let run_row machine mode program () =
    ignore (Wp_soc.Cpu.run ~engine ~machine ~mode ~rs:(Config.to_fun config) program)
  in
  let tests =
    [
      Test.make ~name:"table1-sort-row (WP2 sim)"
        (Staged.stage (run_row Datapath.Pipelined Shell.Oracle sort_program));
      Test.make ~name:"table1-matmul-row (WP2 sim)"
        (Staged.stage (run_row Datapath.Pipelined Shell.Oracle matmul_program));
      Test.make ~name:"multicycle-row (WP2 sim)"
        (Staged.stage (run_row Datapath.Multicycle Shell.Oracle sort_program));
      Test.make ~name:"figure1 (netlist + DOT)"
        (Staged.stage (fun () -> ignore (Datapath.figure1_dot ())));
      Test.make ~name:"loop-analysis (min cycle ratio)"
        (Staged.stage (fun () -> ignore (Wp_core.Analysis.wp1_bound config)));
      Test.make ~name:"floorplan-pack (slicing + curves)"
        (Staged.stage (fun () ->
             ignore
               (Wp_floorplan.Place.pack_expression
                  ~blocks:Wp_floorplan.Flow.case_study_blocks
                  (Wp_floorplan.Slicing.initial ~block_count:5))));
      Test.make ~name:"equivalence-check (sort, All 1)"
        (Staged.stage (fun () ->
             ignore
               (Wp_core.Equiv_check.check_spec
                  ~spec:(Wp_core.Run_spec.v ~engine ())
                  ~machine:Datapath.Pipelined ~mode:Shell.Oracle ~config sort_program)));
      Test.make ~name:"area-model (case study)"
        (Staged.stage (fun () -> ignore (Wp_core.Area.case_study_report ~oracle:true)));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second (if fast then 0.1 else 0.4)) ~kde:None ()
  in
  let module T = Wp_util.Text_table in
  let t = T.create ~columns:[ ("kernel", T.Left); ("time/run", T.Right) ] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            let cell =
              if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            T.add_row t [ name; cell ]
          | Some _ | None -> T.add_row t [ name; "n/a" ])
        analyzed)
    tests;
  T.print t

let () =
  print_endline "Wire-Pipelined SoC — benchmark harness (DATE'05 reproduction)";
  if fast then print_endline "(fast mode: shrunken workloads)";
  Printf.printf "(parallel runner: %d jobs; set WIREPIPE_JOBS to override)\n"
    (Runner.jobs runner);
  figure1 ();
  table1_sort ();
  table1_matmul ();
  multicycle ();
  area ();
  system_overhead ();
  equivalence ();
  ablation ();
  buffer_sizing ();
  depth_sweep ();
  prediction_ablation ();
  floorplan ();
  bechamel_section ();
  heading "Runner observability";
  Format.printf "%a@." Runner.pp_stats (Runner.stats runner);
  print_endline "\ndone."
