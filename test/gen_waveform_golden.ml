(* Golden-output generator for the channel waveform export: the first
   24 cycles of the paper's case study (pipelined machine, a 3-element
   extraction sort, one relay station on CU-AL) on the reference
   interpreter with recorded traces, dumped with [Waveform.vcd].  The
   committed expectation [waveform.expected] freezes the VCD
   character-for-character — header, identifiers, value changes and
   timestamps — so any change to the shared VCD emitter shows up as a
   readable diff in `dune runtest`.

   Keep this program deterministic: fixed program, pinned engine,
   no wall-clock or environment dependence. *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Engine = Wp_sim.Engine
module Waveform = Wp_sim.Waveform

let () =
  let program = Programs.extraction_sort ~values:[| 3; 1; 2 |] in
  let rs = function Datapath.CU_AL -> 1 | _ -> 0 in
  let dp = Datapath.build ~machine:Datapath.Pipelined ~rs program in
  let engine =
    Engine.create ~record_traces:true ~mode:Wp_lis.Shell.Plain dp.Datapath.network
  in
  ignore (Engine.run ~max_cycles:24 engine);
  print_string (Waveform.vcd (Waveform.capture engine))
