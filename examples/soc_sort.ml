(* The paper's case study, scenario 1: run extraction sort on the 5-block
   processor, compare classic latency-insensitive wrappers (WP1) against
   the oracle wrappers (WP2) on the configurations that matter.

   Run with: dune exec examples/soc_sort.exe *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Config = Wp_core.Config

let () =
  let values = Programs.sort_values ~seed:1 ~n:16 in
  let program = Programs.extraction_sort ~values in
  Printf.printf "sorting %d values on the pipelined 5-block processor\n\n"
    (Array.length values);
  (* Golden reference: no relay stations. *)
  let golden = Wp_core.Experiment.golden ~machine:Datapath.Pipelined program in
  Printf.printf "golden system: %d cycles (throughput 1.0 by definition)\n\n"
    golden.Wp_soc.Cpu.cycles;
  let scenarios =
    [
      ("one RS on the fetch interface (CU-IC)", Config.only Datapath.CU_IC 1);
      ("one RS on the branch-flags wire (ALU-CU)", Config.only Datapath.ALU_CU 1);
      ("one RS on the store-data wire (RF-DC)", Config.only Datapath.RF_DC 1);
      ("one RS everywhere but CU-IC", Config.uniform ~except:[ Datapath.CU_IC ] 1);
    ]
  in
  List.iter
    (fun (what, config) ->
      let r = Wp_core.Experiment.run_spec ~spec:(Wp_core.Run_spec.default ())
          ~machine:Datapath.Pipelined ~program config in
      Printf.printf "%s:\n" what;
      Printf.printf "  WP1 %.3f | WP2 %.3f | oracle gain %+.0f%% | static bound %.3f\n\n"
        r.Wp_core.Experiment.th_wp1 r.Wp_core.Experiment.th_wp2
        r.Wp_core.Experiment.gain_percent r.Wp_core.Experiment.wp1_bound)
    scenarios;
  print_endline
    "note how the fetch loop is oracle-immune (the CU reads every response)\n\
     while rarely-used wires (flags, store data) recover most of the loss —\n\
     exactly the trend of the paper's Table 1."
