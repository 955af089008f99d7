(* Where does the WP2 oracle gain come from?  This example opens the
   hood: it profiles the channel utilisations of the case-study blocks
   (how often each input port is actually required) and relates them to
   the measured per-connection oracle gains — the paper's "advantage
   depends on the features of the communication channel at stake".

   Run with: dune exec examples/oracle_gain.exe *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Shell = Wp_lis.Shell
module Monitor = Wp_sim.Monitor
module Config = Wp_core.Config

let () =
  let program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:16) in
  (* Profile: run the golden system with oracle wrappers; the monitor
     reports, per input port, the fraction of firings that required it. *)
  let profile =
    Wp_soc.Cpu.run ~machine:Datapath.Pipelined ~mode:Shell.Oracle
      ~rs:Wp_soc.Cpu.no_relay_stations program
  in
  let report = profile.Wp_soc.Cpu.report in
  print_endline "channel utilisation (fraction of consumer firings that need the token):";
  List.iter
    (fun node ->
      Array.iter
        (fun (port, u) ->
          if u < 0.999 then
            Printf.printf "  %-3s.%-10s %5.1f%%\n" node.Monitor.node_name port (100.0 *. u))
        node.Monitor.port_utilization)
    report.Monitor.nodes;
  print_endline "\nper-connection oracle gain with one relay station (simulated):";
  List.iter
    (fun conn ->
      let record =
        Wp_core.Experiment.run_spec ~spec:(Wp_core.Run_spec.default ())
          ~machine:Datapath.Pipelined ~program (Config.only conn 1)
      in
      let estimate =
        Wp_core.Analysis.wp2_estimate (Config.only conn 1)
          ~utilization:(Wp_core.Analysis.utilization_of_report report)
      in
      Printf.printf "  %-7s WP1 %.3f -> WP2 %.3f (gain %+3.0f%%)   heuristic estimate %.3f\n"
        (Datapath.connection_name conn)
        record.Wp_core.Experiment.th_wp1 record.Wp_core.Experiment.th_wp2
        record.Wp_core.Experiment.gain_percent estimate)
    Datapath.all_connections;
  print_endline
    "\nthe busy channels (ctrl, cmd, fetch) show no gain; the sparse ones\n\
     (flags, store data, load writeback) recover almost everything."
