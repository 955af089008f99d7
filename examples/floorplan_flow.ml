(* The "new system design methodology" end to end: floorplan the SoC,
   derive relay-station counts from wire lengths, analyse the loops, and
   show what a throughput-aware floorplan objective buys.

   Run with: dune exec examples/floorplan_flow.exe *)

module Flow = Wp_floorplan.Flow
module Place = Wp_floorplan.Place
module Geometry = Wp_floorplan.Geometry

let show_placement (p : Place.placement) =
  List.iter
    (fun (name, r) ->
      Printf.printf "    %-4s at (%.2f, %.2f)  %.2f x %.2f mm\n" name
        r.Geometry.origin.Geometry.x r.Geometry.origin.Geometry.y r.Geometry.width
        r.Geometry.height)
    p.Place.rects

let () =
  print_endline "wire-pipelining methodology: floorplan -> RS budget -> loop analysis\n";
  let reach = 1.3 in
  let spec = { Wp_floorplan.Flow_spec.default with Wp_floorplan.Flow_spec.seed = 9; reach } in
  Printf.printf "signal reach per clock: %.1f mm\n\n" reach;
  List.iter
    (fun (tag, r) ->
      Printf.printf "objective: %s\n" tag;
      Printf.printf "  die %.2f mm^2, total wire %.1f mm\n" r.Flow.die_area r.Flow.wirelength;
      Printf.printf "  relay stations from geometry: %s\n"
        (Wp_core.Config.describe r.Flow.config);
      Printf.printf "  worst-loop throughput bound: %.3f\n" r.Flow.wp1_bound;
      show_placement r.Flow.placement;
      print_newline ())
    (Flow.objectives_ablation ~spec ());
  (* Close the loop: simulate the processor under the best floorplan's RS
     budget and confirm the bound. *)
  let results = Flow.objectives_ablation ~spec () in
  let aware = List.assoc "area + loop throughput" results in
  let program = Wp_soc.Programs.extraction_sort ~values:(Wp_soc.Programs.sort_values ~seed:1 ~n:12) in
  let record =
    Wp_core.Experiment.run_spec ~spec:(Wp_core.Run_spec.default ())
      ~machine:Wp_soc.Datapath.Pipelined ~program aware.Flow.config
  in
  Printf.printf
    "simulated under the throughput-aware floorplan: WP1 %.3f (bound %.3f), WP2 %.3f\n"
    record.Wp_core.Experiment.th_wp1 aware.Flow.wp1_bound record.Wp_core.Experiment.th_wp2
