(* Golden generator for the scaled co-optimization flow: pins the
   flow_front.json artifact of four single-job runs (two annealing seeds
   on rand:1000, plus mesh:8x8 and torus:6x6:adapt with default
   settings) and, for each best point, the critical cycle a cold
   minimum-cycle-ratio solve finds on the point's derived capacity
   graph.  Any change to the placement moves, the scoring, the
   evaluation cache or the solver's policy sequence shows up as a diff
   against flow_front.expected. *)

module Topology = Wp_topo.Topology
module Static = Wp_sim.Static
module Digraph = Wp_graph.Digraph
module Cycle_ratio = Wp_graph.Cycle_ratio
module Flow_spec = Wp_floorplan.Flow_spec
module Flow_scale = Wp_floorplan.Flow_scale

let pin ?budget ?seed name =
  let topo =
    match Topology.of_string name with
    | Ok t -> t
    | Error e -> failwith (Printf.sprintf "%s: %s" name e)
  in
  let spec = Flow_spec.v ~topology:(Flow_spec.Generated topo) ?budget ?seed () in
  let r = Flow_scale.run ~jobs:1 ~spec () in
  Printf.printf "== %s ==\n" (Flow_spec.digest spec);
  print_string (Flow_scale.front_to_json ~spec r);
  let net = Flow_scale.derived_network spec r.Flow_scale.best in
  let g, tokens, time = Static.capacity_graph ~capacity:2 net in
  (match Cycle_ratio.minimum g ~cost:tokens ~time with
  | None -> print_string "critical cycle: none\n"
  | Some (ratio, cycle) ->
    Printf.printf "critical cycle %s (%d edges):"
      (Format.asprintf "%a" Cycle_ratio.ratio_pp ratio)
      (List.length cycle);
    List.iter (fun e -> Printf.printf " %s" (Digraph.edge_label g e)) cycle;
    print_newline ());
  print_newline ()

let () =
  pin ~budget:1000 ~seed:0 "rand:1000";
  pin ~budget:1000 ~seed:3 "rand:1000";
  pin "mesh:8x8";
  pin "torus:6x6:adapt"
