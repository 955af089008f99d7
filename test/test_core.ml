(* Tests for Wp_core: configurations, static analysis, optimiser,
   experiments, Table 1 driver, area model and equivalence checking. *)

open Wp_core
module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Shell = Wp_lis.Shell

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_basics () =
  checki "zero everywhere" 0 (Config.get Config.zero Datapath.CU_IC);
  let c = Config.only Datapath.ALU_RF 2 in
  checki "set" 2 (Config.get c Datapath.ALU_RF);
  checki "others zero" 0 (Config.get c Datapath.CU_RF);
  checki "total connections" 2 (Config.total_connections c);
  checki "total channels" 2 (Config.total_channels c);
  Alcotest.(check string) "describe" "ALU-RF=2" (Config.describe c);
  Alcotest.(check string) "describe zero" "none" (Config.describe Config.zero)

let test_config_uniform () =
  let c = Config.uniform ~except:[ Datapath.CU_IC ] 1 in
  checki "CU-IC excluded" 0 (Config.get c Datapath.CU_IC);
  checki "others 1" 1 (Config.get c Datapath.DC_RF);
  checki "total connections" 9 (Config.total_connections c);
  (* RF-ALU is a 2-channel bundle. *)
  checki "total channels" 10 (Config.total_channels c)

let test_config_bundles () =
  checki "CU-IC counts twice" 2 (Config.total_channels (Config.only Datapath.CU_IC 1));
  checki "RF-ALU counts twice" 4 (Config.total_channels (Config.only Datapath.RF_ALU 2))

let test_config_set_negative () =
  checkb "negative rejected" true
    (match Config.set Config.zero Datapath.CU_RF (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_config_alist_roundtrip () =
  let c = Config.of_alist [ (Datapath.CU_AL, 3); (Datapath.DC_RF, 1) ] in
  checkb "functional view" true (Config.to_fun c Datapath.CU_AL = 3);
  let alist = Config.to_alist c in
  checki "all connections listed" 10 (List.length alist);
  checkb "equal to itself" true (Config.equal c (Config.of_alist alist))

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

let ratio_testable =
  Alcotest.testable Wp_graph.Cycle_ratio.ratio_pp (fun a b ->
      Wp_graph.Cycle_ratio.ratio_compare a b = 0)

let test_analysis_known_bounds () =
  let bound c = Analysis.wp1_bound c in
  Alcotest.check ratio_testable "ideal" (Wp_graph.Cycle_ratio.make_ratio 1 1)
    (bound Config.zero);
  (* CU->ALU->CU loop with one RS. *)
  Alcotest.check ratio_testable "CU-AL" (Wp_graph.Cycle_ratio.make_ratio 2 3)
    (bound (Config.only Datapath.CU_AL 1));
  (* CU-IC is a bundle: one RS each way. *)
  Alcotest.check ratio_testable "CU-IC" (Wp_graph.Cycle_ratio.make_ratio 1 2)
    (bound (Config.only Datapath.CU_IC 1));
  (* CU-RF sits only in 3+-loops. *)
  Alcotest.check ratio_testable "CU-RF" (Wp_graph.Cycle_ratio.make_ratio 3 4)
    (bound (Config.only Datapath.CU_RF 1));
  (* CU->DC only appears in the 4-loop through RF and ALU. *)
  Alcotest.check ratio_testable "CU-DC" (Wp_graph.Cycle_ratio.make_ratio 4 5)
    (bound (Config.only Datapath.CU_DC 1));
  Alcotest.check ratio_testable "all 1 no CU-IC" (Wp_graph.Cycle_ratio.make_ratio 1 2)
    (bound (Config.uniform ~except:[ Datapath.CU_IC ] 1))

let test_analysis_loops () =
  let loops = Analysis.all_loops Config.zero in
  checkb "several loops" true (List.length loops >= 6);
  let critical = Analysis.critical_loop (Config.only Datapath.CU_IC 2) in
  Alcotest.(check (list string)) "fetch loop is critical" [ "CU"; "IC" ]
    (List.sort compare critical.Analysis.loop_blocks);
  checki "m" 2 critical.Analysis.processes;
  checki "n" 4 critical.Analysis.stations

let test_analysis_wp2_estimate () =
  let config = Config.only Datapath.ALU_CU 1 in
  let full ~node:_ ~port:_ = 1.0 in
  checkf "u=1 reduces to wp1 bound" (Analysis.wp1_bound_float config)
    (Analysis.wp2_estimate config ~utilization:full);
  let never ~node:_ ~port:_ = 0.0 in
  checkf "u=0 removes all constraints" 1.0 (Analysis.wp2_estimate config ~utilization:never);
  let half ~node:_ ~port:_ = 0.5 in
  let est = Analysis.wp2_estimate config ~utilization:half in
  checkb "monotone in utilisation" true
    (est > Analysis.wp1_bound_float config && est < 1.0)

(* ------------------------------------------------------------------ *)
(* Optimizer                                                          *)
(* ------------------------------------------------------------------ *)

let test_optimizer_enumerate () =
  (* budget 2 over 9 slots, max 1 each: C(9,2) = 36. *)
  let configs = Optimizer.enumerate ~budget:2 ~per_connection_max:1 () in
  checki "36 placements" 36 (List.length configs);
  List.iter
    (fun c ->
      checki "budget respected" 2 (Config.total_connections c);
      checki "CU-IC excluded" 0 (Config.get c Datapath.CU_IC))
    configs

let test_optimizer_enumerate_bounds () =
  (* Both failure directions must name the offending numbers. *)
  Alcotest.check_raises "unreachable budget names the numbers"
    (Invalid_argument
       "Optimizer.enumerate: budget 100 exceeds capacity 9 (9 connections x 1 per connection)")
    (fun () -> ignore (Optimizer.enumerate ~budget:100 ~per_connection_max:1 ()));
  Alcotest.check_raises "negative budget names the budget"
    (Invalid_argument "Optimizer.enumerate: negative budget -3") (fun () ->
      ignore (Optimizer.enumerate ~budget:(-3) ~per_connection_max:1 ()));
  Alcotest.check_raises "negative max names the max"
    (Invalid_argument "Optimizer.enumerate: negative per-connection max -1") (fun () ->
      ignore (Optimizer.enumerate ~budget:0 ~per_connection_max:(-1) ()));
  Alcotest.check_raises "annealer rejects a negative budget"
    (Invalid_argument "Optimizer.anneal_placement: negative budget -3") (fun () ->
      ignore
        (Optimizer.anneal_placement
           ~search:{ Optimizer.default_search with Optimizer.budget = -3 }
           ()));
  checki "budget zero" 1 (List.length (Optimizer.enumerate ~budget:0 ~per_connection_max:1 ()))

let test_optimizer_best_static () =
  (* With budget 1 the best placement avoids every 2-loop: CU-RF or CU-DC
     (3- and 4-loops only). *)
  let config, bound = Optimizer.best_static ~budget:1 ~per_connection_max:1 () in
  checkb "bound is 3/4 or better" true (bound >= 0.75 -. 1e-9);
  checkb "placement on a long loop" true
    (Config.get config Datapath.CU_RF = 1 || Config.get config Datapath.CU_DC = 1)

let test_optimizer_optimal_calls_objective () =
  let calls = ref 0 in
  let objective c =
    incr calls;
    (* Prefer relay stations on DC-RF for the sake of the test. *)
    float_of_int (Config.get c Datapath.DC_RF)
  in
  let config, value =
    Optimizer.optimal
      ~search:
        { Optimizer.default_search with Optimizer.budget = 1; per_connection_max = 1; candidates = 9 }
      ~objective ()
  in
  checkb "objective evaluated" true (!calls > 0 && !calls <= 9);
  checkb "winner maximises objective among shortlist" true
    (value >= 0.0 && Config.total_connections config = 1)

(* The ranking [Optimizer.optimal]'s shortlist must equal: every
   placement scored by its worst-loop bound, then fewer physical
   channels, stably sorted (ties keep enumeration order), first
   [candidates] kept. *)
let ranked_shortlist ~budget ~per_connection_max ~exclude ~candidates =
  let score c = (Analysis.wp1_bound_float c, -Config.total_channels c) in
  Optimizer.enumerate ~budget ~per_connection_max ~exclude ()
  |> List.map (fun c -> (score c, c))
  |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
  |> List.filteri (fun i _ -> i < candidates)
  |> function
  | [] -> invalid_arg "Optimizer.optimal: empty search space"
  | shortlist -> List.map snd shortlist

(* The shortlist [Optimizer.optimal] hands to its objective, captured
   through [~map]. *)
let optimal_shortlist ~budget ~per_connection_max ~exclude ~candidates =
  let seen = ref [] in
  let map f configs =
    seen := configs;
    List.map f configs
  in
  ignore
    (Optimizer.optimal
       ~search:
         {
           Optimizer.default_search with
           Optimizer.budget;
           per_connection_max;
           exclude;
           candidates;
         }
       ~map ~objective:(fun _ -> 0.0) ());
  !seen

let same_shortlist ~budget ~per_connection_max ~exclude ~candidates =
  let outcome f =
    match f ~budget ~per_connection_max ~exclude ~candidates with
    | configs -> Ok (List.map Config.describe configs)
    | exception Invalid_argument msg -> Error msg
  in
  outcome ranked_shortlist = outcome optimal_shortlist

let test_optimizer_table1_shortlists () =
  let exclude = Optimizer.default_search.Optimizer.exclude in
  List.iter
    (fun (budget, per_connection_max) ->
      checkb
        (Printf.sprintf "budget %d, max %d" budget per_connection_max)
        true
        (same_shortlist ~budget ~per_connection_max ~exclude ~candidates:24))
    [ (9, 2); (18, 4) ];
  for budget = 0 to 12 do
    let config, bound = Optimizer.best_static ~budget ~per_connection_max:2 () in
    let head = ranked_shortlist ~budget ~per_connection_max:2 ~exclude ~candidates:1 in
    Alcotest.(check (list string))
      (Printf.sprintf "best static, budget %d" budget)
      (List.map Config.describe head) [ Config.describe config ];
    checkf "its bound" (Analysis.wp1_bound_float config) bound
  done

let prop_optimizer_shortlist_matches_ranking =
  let gen =
    QCheck2.Gen.(
      quad (int_range 0 14) (int_range 0 4)
        (array_size (return (List.length Datapath.all_connections)) bool)
        (oneofl [ 0; 1; 5; 24; 100_000 ]))
  in
  let print (budget, per_connection_max, excluded, candidates) =
    Printf.sprintf "budget %d, max %d, exclude [%s], candidates %d" budget per_connection_max
      (String.concat " " (Array.to_list (Array.map string_of_bool excluded)))
      candidates
  in
  QCheck2.Test.make ~count:300 ~print ~name:"optimal shortlist = exhaustive ranking" gen
    (fun (budget, per_connection_max, excluded, candidates) ->
      let exclude = List.filteri (fun i _ -> excluded.(i)) Datapath.all_connections in
      same_shortlist ~budget ~per_connection_max ~exclude ~candidates)

let test_optimizer_anneal_matches_exhaustive () =
  (* Small budgets: the annealer must find the same static optimum the
     exhaustive search does. *)
  List.iter
    (fun budget ->
      let _, exhaustive = Optimizer.best_static ~budget ~per_connection_max:2 () in
      let _, annealed =
        Optimizer.anneal_placement
          ~search:
            { Optimizer.default_search with Optimizer.budget; per_connection_max = 2; seed = 31 }
          ()
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "budget %d" budget)
        exhaustive annealed)
    [ 1; 2; 3 ]

let test_optimizer_anneal_respects_budget () =
  let config, _ =
    Optimizer.anneal_placement
      ~search:
        { Optimizer.default_search with Optimizer.budget = 7; per_connection_max = 3; seed = 32 }
      ()
  in
  checki "budget preserved" 7 (Config.total_connections config);
  checki "CU-IC untouched" 0 (Config.get config Datapath.CU_IC);
  List.iter
    (fun (_, n) -> checkb "per-connection cap" true (n <= 3))
    (Config.to_alist config)

(* ------------------------------------------------------------------ *)
(* Experiment                                                         *)
(* ------------------------------------------------------------------ *)

let small_sort = Programs.extraction_sort ~values:(Programs.sort_values ~seed:11 ~n:8)

let test_experiment_consistency () =
  let record =
    Experiment.run_spec ~spec:(Run_spec.default ()) ~machine:Datapath.Pipelined
      ~program:small_sort
      (Config.only Datapath.ALU_CU 1)
  in
  checkb "wp1 at least as slow as golden" true
    (record.Experiment.wp1.Wp_soc.Cpu.cycles >= record.Experiment.golden_cycles);
  checkb "wp2 at most wp1" true
    (record.Experiment.wp2.Wp_soc.Cpu.cycles <= record.Experiment.wp1.Wp_soc.Cpu.cycles);
  checkf "th_wp1 consistent"
    (float_of_int record.Experiment.golden_cycles
    /. float_of_int record.Experiment.wp1.Wp_soc.Cpu.cycles)
    record.Experiment.th_wp1;
  checkb "gain non-negative here" true (record.Experiment.gain_percent >= 0.0);
  checkf "bound for ALU-CU" (2.0 /. 3.0) record.Experiment.wp1_bound

let test_experiment_failure_text () =
  (* One outcome check words every failure: an exhausted budget names
     the program and the configuration. *)
  let spec = Run_spec.v ~engine:Wp_sim.Sim.Fast ~max_cycles:5 () in
  let config = Config.only Datapath.ALU_CU 1 in
  let solo =
    match
      Experiment.run_spec ~spec ~machine:Datapath.Pipelined ~program:small_sort config
    with
    | _ -> Alcotest.fail "a 5-cycle budget completed"
    | exception Failure m -> m
  in
  Alcotest.(check string)
    "solo message" "Experiment: cycle budget exhausted (extraction_sort, ALU-CU=1)"
    solo

let test_experiment_golden_memoised () =
  let a = Experiment.golden ~machine:Datapath.Pipelined small_sort in
  let b = Experiment.golden ~machine:Datapath.Pipelined small_sort in
  checkb "same result object" true (a == b)

(* ------------------------------------------------------------------ *)
(* Table1                                                             *)
(* ------------------------------------------------------------------ *)

let test_table1_sort_structure () =
  let rows =
    Table1.sort_rows ~values:(Programs.sort_values ~seed:1 ~n:8) ~machine:Datapath.Pipelined ()
  in
  checki "13 rows" 13 (List.length rows);
  let row i = List.nth rows (i - 1) in
  Alcotest.(check string) "row 1" "All 0 (ideal)" (row 1).Table1.label;
  Alcotest.(check string) "row 5" "Only CU-IC" (row 5).Table1.label;
  Alcotest.(check string) "row 12" "All 1 (no CU-IC)" (row 12).Table1.label;
  checkf "ideal throughput" 1.0 (row 1).Table1.record.Experiment.th_wp1;
  checkb "CU-IC halves throughput" true
    (abs_float ((row 5).Table1.record.Experiment.th_wp1 -. 0.5) < 0.01);
  checkb "CU-IC oracle-immune" true
    (abs_float ((row 5).Table1.record.Experiment.gain_percent) < 1.0);
  (* Optimal row must be at least as good as All 1. *)
  checkb "optimal beats all-1" true
    ((row 13).Table1.record.Experiment.th_wp2
    >= (row 12).Table1.record.Experiment.th_wp2 -. 1e-9);
  let rendered = Table1.render ~title:"test" rows in
  checkb "render mentions config" true
    (let needle = "Only RF-DC" in
     let n = String.length needle and h = String.length rendered in
     let rec scan i = i + n <= h && (String.sub rendered i n = needle || scan (i + 1)) in
     scan 0)

let test_table1_csv () =
  (* A tiny synthetic row list exercises the CSV writer without another
     simulation sweep. *)
  let record =
    Experiment.run_spec ~spec:(Run_spec.default ()) ~machine:Datapath.Pipelined
      ~program:small_sort
      (Config.only Datapath.DC_RF 1)
  in
  let rows =
    [
      { Table1.index = 1; label = "Only DC-RF"; record };
      { Table1.index = 2; label = "has,comma \"q\""; record };
    ]
  in
  let csv = Table1.to_csv rows in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  checki "header + 2 rows" 3 (List.length lines);
  checkb "header" true
    (List.hd lines = "index,configuration,wp2_cycles,wp1_bound,th_wp1,th_wp2,gain_percent");
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  checkb "quoting" true (contains csv "\"has,comma \"\"q\"\"\"")

let test_table1_paper_reference () =
  checki "sort reference rows" 13 (List.length (Table1.paper_reference ~workload:`Sort));
  checki "matmul reference rows" 25 (List.length (Table1.paper_reference ~workload:`Matmul));
  let _, label, wp1, wp2 = List.nth (Table1.paper_reference ~workload:`Sort) 6 in
  Alcotest.(check string) "row 7 label" "Only RF-DC" label;
  checkf "row 7 wp1" 0.667 wp1;
  checkf "row 7 wp2" 0.99 wp2

(* Any RS configuration (counts 0..2 on all ten connections): the
   oracle never loses to the plain wrapper, and the measured WP1
   throughput never beats the static worst-loop bound.  The 0.02
   slack on the bound absorbs finite-run startup/drain effects; the
   1e-9 on the oracle side is pure float noise (cycle counts are
   integers and WP2 <= WP1 exactly). *)
let prop_throughput_ordering =
  let gen =
    QCheck2.Gen.(array_size (return 10) (int_range 0 2))
  in
  QCheck2.Test.make ~count:25 ~name:"th_wp2 >= th_wp1 and th_wp1 <= static bound" gen
    (fun budgets ->
      let config =
        Config.of_alist
          (List.mapi (fun i conn -> (conn, budgets.(i))) Datapath.all_connections)
      in
      let r =
        Experiment.run_spec ~spec:(Run_spec.default ()) ~machine:Datapath.Pipelined
          ~program:small_sort config
      in
      r.Experiment.th_wp2 >= r.Experiment.th_wp1 -. 1e-9
      && r.Experiment.th_wp1 <= r.Experiment.wp1_bound +. 0.02)

(* Regression pin against the paper's own Table 1 numbers.  The
   reproduction uses a reimplemented ISA, programs and micro-
   architecture, so cycle-exact agreement is impossible; empirically
   the largest deviation across both workloads is ~0.11 (sort row 13
   WP2: 0.69 vs the paper's 0.80), so 0.12 absolute is the documented
   tolerance (see EXPERIMENTS.md).  A regression that moves any
   throughput by more than that against the paper trips this test. *)
let paper_pin_tolerance = 0.12

let check_rows_against_paper ~workload rows =
  let reference = Table1.paper_reference ~workload in
  checki "row count matches the paper" (List.length reference) (List.length rows);
  List.iter2
    (fun (index, label, p_wp1, p_wp2) row ->
      checki "index" index row.Table1.index;
      Alcotest.(check string) "label" label row.Table1.label;
      let o_wp1 = row.Table1.record.Experiment.th_wp1 in
      let o_wp2 = row.Table1.record.Experiment.th_wp2 in
      if abs_float (o_wp1 -. p_wp1) > paper_pin_tolerance then
        Alcotest.failf "%s WP1: ours %.3f vs paper %.3f (tol %.2f)" label o_wp1 p_wp1
          paper_pin_tolerance;
      if abs_float (o_wp2 -. p_wp2) > paper_pin_tolerance then
        Alcotest.failf "%s WP2: ours %.3f vs paper %.3f (tol %.2f)" label o_wp2 p_wp2
          paper_pin_tolerance)
    reference rows

let test_table1_matches_paper_sort () =
  check_rows_against_paper ~workload:`Sort
    (Table1.sort_rows ~machine:Datapath.Pipelined ())

let test_table1_matches_paper_matmul () =
  check_rows_against_paper ~workload:`Matmul
    (Table1.matmul_rows ~machine:Datapath.Pipelined ())

(* ------------------------------------------------------------------ *)
(* Area                                                               *)
(* ------------------------------------------------------------------ *)

let test_area_model () =
  List.iter
    (fun oracle ->
      List.iter
        (fun (name, e, pct) ->
          checkb
            (Printf.sprintf "%s wrapper under 1%% (oracle=%b)" name oracle)
            true (pct < 1.0);
          checki
            (name ^ " total consistent")
            e.Area.total_gates
            ((e.Area.flop_bits * Area.gates_per_flop_bit) + e.Area.logic_gates))
        (Area.case_study_report ~oracle))
    [ false; true ];
  let plain = Area.shell ~input_widths:[ 32 ] ~output_count:1 ~fifo_depth:2 ~oracle:false in
  let oracle = Area.shell ~input_widths:[ 32 ] ~output_count:1 ~fifo_depth:2 ~oracle:true in
  checkb "oracle adds hardware" true (oracle.Area.total_gates > plain.Area.total_gates);
  let rs = Area.relay_station ~width:32 in
  checkb "relay station small" true (rs.Area.total_gates < 400);
  checki "relay station bits" 66 rs.Area.flop_bits

let test_area_system_overhead () =
  let wrappers_only = Area.system_overhead ~oracle:true Config.zero in
  let with_rs =
    Area.system_overhead ~oracle:true (Config.uniform ~except:[ Datapath.CU_IC ] 1)
  in
  checkb "relay stations add gates" true
    (with_rs.Area.total_gates > wrappers_only.Area.total_gates);
  (* All ten connections covered by the width table. *)
  checki "width table complete" 10 (List.length Area.connection_widths);
  (* System overhead stays low: the whole point of the approach. *)
  checkb "under 2% of the SoC" true
    (Area.system_overhead_percent ~oracle:true (Config.uniform 2) < 2.0);
  (* A doubled budget costs exactly the relay-station difference. *)
  let one = Area.system_overhead ~oracle:false (Config.only Datapath.DC_RF 1) in
  let two = Area.system_overhead ~oracle:false (Config.only Datapath.DC_RF 2) in
  let rs32 = Area.relay_station ~width:32 in
  checki "linear in count" rs32.Area.total_gates (two.Area.total_gates - one.Area.total_gates)

(* ------------------------------------------------------------------ *)
(* Equiv_check                                                        *)
(* ------------------------------------------------------------------ *)

let test_equiv_check_pipelined () =
  let config = Config.uniform ~except:[ Datapath.CU_IC ] 1 in
  List.iter
    (fun mode ->
      let v =
        Equiv_check.check_spec ~spec:(Run_spec.default ()) ~machine:Datapath.Pipelined ~mode
          ~config small_sort
      in
      checkb "equivalent" true v.Equiv_check.equivalent;
      checki "12 ports" 12 v.Equiv_check.ports_checked;
      checkb "events compared" true (v.Equiv_check.events_compared > 1000);
      checkb "no mismatch" true (v.Equiv_check.first_mismatch = None))
    [ Shell.Plain; Shell.Oracle ]

let test_equiv_check_multicycle () =
  let config = Config.only Datapath.CU_IC 1 in
  let v =
    Equiv_check.check_spec ~spec:(Run_spec.default ()) ~machine:Datapath.Multicycle
      ~mode:Shell.Oracle ~config small_sort
  in
  checkb "multicycle equivalent" true v.Equiv_check.equivalent

let test_n_equivalence () =
  let config = Config.only Datapath.DC_RF 2 in
  checkb "100-equivalent" true
    (Equiv_check.check_n_equivalence_spec ~spec:(Run_spec.default ()) ~n:100
       ~machine:Datapath.Pipelined ~mode:Shell.Oracle ~config small_sort)

(* ------------------------------------------------------------------ *)
(* Equiv_check negative paths: destructive faults must flip the        *)
(* verdict and blame a concrete BLOCK.port                             *)
(* ------------------------------------------------------------------ *)

module Fault = Wp_sim.Fault
module Network = Wp_sim.Network

(* The network channel carrying ALU writeback values into RF — a data
   channel whose every token matters, so breaking it is maximally
   visible. *)
let alu_rf_channel () =
  let dp =
    Datapath.build ~machine:Datapath.Pipelined ~rs:(fun _ -> 0) small_sort
  in
  let net = dp.Datapath.network in
  let name_of n = (Network.node_process net n).Wp_lis.Process.name in
  List.find
    (fun c ->
      name_of (fst (Network.channel_src net c)) = "ALU"
      && name_of (fst (Network.channel_dst net c)) = "RF")
    (Network.channels net)

let break_fault kind nth =
  { Fault.seed = 0; clauses = [ Fault.Break { kind; chan = alu_rf_channel (); nth } ] }

let neg_config = Config.only Datapath.DC_RF 1

let neg_check fault =
  Equiv_check.check_spec ~spec:(Run_spec.v ~fault ()) ~machine:Datapath.Pipelined
    ~mode:Shell.Plain ~config:neg_config small_sort

let blamed v =
  match v.Equiv_check.first_mismatch with
  | Some port -> port
  | None -> Alcotest.fail "no mismatch port named"

let test_negative_corrupt_blames_consumer () =
  (* Writeback #4 is the first architecturally {e live} one in this
     workload (earlier results are overwritten before being read, so
     corrupting them is invisible — checked below).  The corrupted value
     surfaces as a wrong token on a register-file output: the
     earliest-divergence rule must blame an RF port, not some unrelated
     block. *)
  let v = neg_check (break_fault Fault.Corrupt 4) in
  checkb "corrupt detected" false v.Equiv_check.equivalent;
  let port = blamed v in
  checkb (Printf.sprintf "blames RF (got %s)" port) true
    (String.length port > 3 && String.sub port 0 3 = "RF.")

let test_negative_corrupt_dead_value_invisible () =
  (* The converse sanity check: corrupting a result that is overwritten
     before any instruction reads it changes nothing observable, and the
     checker must NOT cry wolf. *)
  let v = neg_check (break_fault Fault.Corrupt 0) in
  checkb "dead-value corruption is absorbed" true v.Equiv_check.equivalent

let test_negative_drop_detected () =
  let v = neg_check (break_fault Fault.Drop 0) in
  checkb "drop detected" false v.Equiv_check.equivalent;
  ignore (blamed v)

let test_negative_dup_detected () =
  let v = neg_check (break_fault Fault.Dup 0) in
  checkb "dup detected" false v.Equiv_check.equivalent;
  ignore (blamed v)

let test_negative_detected_on_both_engines () =
  List.iter
    (fun engine ->
      let v =
        Equiv_check.check_spec
          ~spec:(Run_spec.v ~engine ~fault:(break_fault Fault.Corrupt 4) ())
          ~machine:Datapath.Pipelined ~mode:Shell.Plain ~config:neg_config small_sort
      in
      checkb
        (Wp_sim.Sim.kind_to_string engine ^ " detects corruption")
        false v.Equiv_check.equivalent)
    [ Wp_sim.Sim.Reference; Wp_sim.Sim.Fast ]

(* ------------------------------------------------------------------ *)
(* MCR solver agreement on the Table 1 networks                       *)
(* ------------------------------------------------------------------ *)

(* The library's minimum-cycle-ratio solver (Howard's policy iteration)
   must agree exactly with the two test-side oracles (Lawler's
   parametric search and brute-force enumeration over elementary cycles)
   on every Table 1 netlist, and the Fast kernel's throughput bound must
   be that same number. *)
let test_mcr_solvers_agree_on_table1 () =
  let configs =
    (Config.zero :: List.map (fun conn -> Config.only conn 1) Datapath.all_connections)
    @ [ Config.uniform ~except:[ Datapath.CU_IC ] 1; Config.uniform 2 ]
  in
  List.iter
    (fun machine ->
      List.iter
        (fun config ->
          let dp = Datapath.build ~machine ~rs:(Config.to_fun config) small_sort in
          let net = dp.Datapath.network in
          let g, edge_chan = Network.to_digraph net in
          let cost _ = 1 in
          let time e = 1 + Network.relay_stations net (edge_chan e) in
          let ctx =
            Printf.sprintf "%s / %s" (Datapath.machine_name machine)
              (Config.describe config)
          in
          match
            ( Wp_graph.Cycle_ratio.minimum g ~cost ~time,
              Wp_oracle.Lawler.minimum g ~cost ~time,
              Wp_oracle.Enumeration.minimum g ~cost ~time )
          with
          | Some (r1, _), Some (r2, _), Some (r3, _) ->
            checkb (ctx ^ ": howard = lawler") true
              (Wp_graph.Cycle_ratio.ratio_compare r1 r2 = 0);
            checkb (ctx ^ ": howard = enumeration") true
              (Wp_graph.Cycle_ratio.ratio_compare r1 r3 = 0);
            let tb = Wp_sim.Static.throughput_bound net in
            checkb (ctx ^ ": fast throughput bound matches") true
              (Float.abs (tb -. Wp_graph.Cycle_ratio.ratio_to_float r1) < 1e-12)
          | _ -> Alcotest.fail (ctx ^ ": datapath should be cyclic"))
        configs)
    [ Datapath.Pipelined; Datapath.Multicycle ]

let () =
  Alcotest.run "wp_core"
    [
      ( "config",
        [
          Alcotest.test_case "basics" `Quick test_config_basics;
          Alcotest.test_case "uniform" `Quick test_config_uniform;
          Alcotest.test_case "bundles" `Quick test_config_bundles;
          Alcotest.test_case "negative" `Quick test_config_set_negative;
          Alcotest.test_case "alist roundtrip" `Quick test_config_alist_roundtrip;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "known bounds" `Quick test_analysis_known_bounds;
          Alcotest.test_case "loops" `Quick test_analysis_loops;
          Alcotest.test_case "wp2 estimate" `Quick test_analysis_wp2_estimate;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "enumerate" `Quick test_optimizer_enumerate;
          Alcotest.test_case "enumerate bounds" `Quick test_optimizer_enumerate_bounds;
          Alcotest.test_case "best static" `Quick test_optimizer_best_static;
          Alcotest.test_case "objective shortlist" `Quick test_optimizer_optimal_calls_objective;
          Alcotest.test_case "table1 shortlists = exhaustive ranking" `Quick
            test_optimizer_table1_shortlists;
          QCheck_alcotest.to_alcotest prop_optimizer_shortlist_matches_ranking;
          Alcotest.test_case "anneal matches exhaustive" `Quick test_optimizer_anneal_matches_exhaustive;
          Alcotest.test_case "anneal respects budget" `Quick test_optimizer_anneal_respects_budget;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "consistency" `Quick test_experiment_consistency;
          Alcotest.test_case "golden memoised" `Quick test_experiment_golden_memoised;
          Alcotest.test_case "budget failure text" `Quick test_experiment_failure_text;
        ] );
      ( "table1",
        [
          Alcotest.test_case "sort structure" `Slow test_table1_sort_structure;
          Alcotest.test_case "paper reference" `Quick test_table1_paper_reference;
          Alcotest.test_case "csv export" `Quick test_table1_csv;
          Alcotest.test_case "sort matches paper (±0.12)" `Slow
            test_table1_matches_paper_sort;
          Alcotest.test_case "matmul matches paper (±0.12)" `Slow
            test_table1_matches_paper_matmul;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_throughput_ordering ] );
      ( "area",
        [
          Alcotest.test_case "model" `Quick test_area_model;
          Alcotest.test_case "system overhead" `Quick test_area_system_overhead;
        ] );
      ( "equiv_check",
        [
          Alcotest.test_case "pipelined" `Quick test_equiv_check_pipelined;
          Alcotest.test_case "multicycle" `Quick test_equiv_check_multicycle;
          Alcotest.test_case "n-equivalence" `Quick test_n_equivalence;
          Alcotest.test_case "corrupt blames consumer" `Quick
            test_negative_corrupt_blames_consumer;
          Alcotest.test_case "dead-value corruption invisible" `Quick
            test_negative_corrupt_dead_value_invisible;
          Alcotest.test_case "drop detected" `Quick test_negative_drop_detected;
          Alcotest.test_case "dup detected" `Quick test_negative_dup_detected;
          Alcotest.test_case "negative on both engines" `Quick
            test_negative_detected_on_both_engines;
          Alcotest.test_case "mcr solvers agree on table1" `Quick
            test_mcr_solvers_agree_on_table1;
        ] );
    ]
