(* The paper's case study, scenario 2: matrix multiply under deeper wire
   pipelining (the "All 1 and 2 X" family of Table 1), plus a check that
   the computed product is bit-exact in every configuration.

   Run with: dune exec examples/soc_matmul.exe *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Config = Wp_core.Config

let () =
  let n = 4 in
  let a = Programs.matrix_values ~seed:2 ~n and b = Programs.matrix_values ~seed:3 ~n in
  let program = Programs.matrix_multiply ~n ~a ~b in
  Printf.printf "C = A x B for %dx%d matrices, pipelined machine\n\n" n n;
  let all1 = Config.uniform ~except:[ Datapath.CU_IC ] 1 in
  let scenarios =
    [
      ("All 1 (no CU-IC)", all1);
      ("All 1 and 2 CU-AL", Config.set all1 Datapath.CU_AL 2);
      ("All 1 and 2 RF-ALU", Config.set all1 Datapath.RF_ALU 2);
      ("All 2 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 2);
    ]
  in
  List.iter
    (fun (label, config) ->
      let r = Wp_core.Experiment.run_spec ~spec:(Wp_core.Run_spec.default ())
          ~machine:Datapath.Pipelined ~program config in
      Printf.printf "%-20s WP1 %.3f | WP2 %.3f | gain %+.0f%% | WP2 cycles %d\n" label
        r.Wp_core.Experiment.th_wp1 r.Wp_core.Experiment.th_wp2
        r.Wp_core.Experiment.gain_percent r.Wp_core.Experiment.wp2.Wp_soc.Cpu.cycles;
      (* Experiment.run already verified the product against the ISS; do
         it once more explicitly for show. *)
      let expected = Wp_soc.Program.expected_result program in
      let base, len = program.Wp_soc.Program.result_region in
      let got = Array.sub r.Wp_core.Experiment.wp2.Wp_soc.Cpu.memory base len in
      assert (got = expected))
    scenarios;
  print_endline "\nevery configuration computed the exact same product \xe2\x9c\x93"
