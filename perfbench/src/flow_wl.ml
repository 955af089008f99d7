(* flow: a closed loop.  One op is a single-job Flow_scale.run on
   rand:1000 with a Flow_spec fixed for the run (annealing seed from the
   workload seed, budget 1000 moves, 4 walkers).  Flow_scale has no
   process-wide memo, so every op repeats the same work; its front must
   be byte-identical to the first op's. *)

module Flow_scale = Wp_floorplan.Flow_scale
module Flow_spec = Wp_floorplan.Flow_spec
module Topology = Wp_topo.Topology
module Static = Wp_sim.Static
module Network = Wp_sim.Network
module Incremental = Wp_graph.Cycle_ratio.Incremental

let topology = "rand:1000"
let budget = 1000

(* Flow_scale.run does not return for some annealing seeds (seed 409 on
   this topology and budget runs for minutes, with one job or several),
   so the workload seed picks one of the annealing seeds 0 to 31, each
   checked to finish in under half a second. *)
let anneal_seeds = 32

type ctx = { spec : Flow_spec.t; mutable result : Flow_scale.result option }

let setup ~seed _i =
  let topo =
    match Topology.of_string topology with Ok t -> t | Error e -> failwith e
  in
  let seed = ((seed mod anneal_seeds) + anneal_seeds) mod anneal_seeds in
  { spec = Flow_spec.v ~topology:(Flow_spec.Generated topo) ~budget ~seed (); result = None }

(* The first op's front; every later op must reproduce it. *)
let reference = ref None

let check ~spec r =
  let json = Flow_scale.front_to_json ~spec r in
  match !reference with
  | None ->
    reference := Some json;
    true
  | Some first -> String.equal first json

let op ctx =
  (* [run] re-solves the winner from scratch and raises on any
     disagreement; that exception fails the op. *)
  let r = Trace.span "flow_scale.run" (fun () -> Flow_scale.run ~jobs:1 ~spec:ctx.spec ()) in
  ctx.result <- Some r;
  Trace.span "flow.check" (fun () -> check ~spec:ctx.spec r)

(* ------------------------------------------------------------------ *)
(* Traced layer probe                                                   *)
(* ------------------------------------------------------------------ *)

let perturbations = 200

type counts = {
  mutable moves : int;
  mutable evaluations : int;
  mutable cache_hits : int;
  mutable solves : int;
}

let counts = { moves = 0; evaluations = 0; cache_hits = 0; solves = 0 }

(* The winning placement's network, then its capacity graph, a cold
   Howard solve, and a seeded sequence of relay-station perturbations
   replayed through the incremental solver the search uses.  Channel
   [c] owns edges [2c] (forward, time 1 + rs) and [2c + 1] (reverse,
   capacity + 2 rs - 1 tokens). *)
let probe ctx =
  let r = Option.get ctx.result in
  let net =
    Trace.span "flow_scale.derived_network" (fun () ->
        Flow_scale.derived_network ctx.spec r.Flow_scale.best)
  in
  let capacity = 2 in
  let g, tokens, time =
    Trace.span "static.capacity_graph" (fun () -> Static.capacity_graph ~capacity net)
  in
  ignore (Trace.span "howard.cold" (fun () -> Flow_scale.scratch_bound ~capacity net));
  let inc = Incremental.create g ~cost:tokens ~time in
  let rng = Wp_util.Prng.create ~seed:ctx.spec.Flow_spec.seed in
  let channels = Network.channel_count net in
  for _ = 1 to perturbations do
    let c = Wp_util.Prng.int rng channels and k = Wp_util.Prng.int rng 4 in
    Incremental.set_time inc (2 * c) (1 + k);
    Incremental.set_cost inc ((2 * c) + 1) (capacity + (2 * k) - 1);
    ignore (Trace.span "incremental.solve" (fun () -> Incremental.solve inc))
  done;
  counts.moves <- r.Flow_scale.moves;
  counts.evaluations <- r.Flow_scale.evaluations;
  counts.cache_hits <- r.Flow_scale.cache_hits;
  counts.solves <- Incremental.solves inc

let reset () = reference := None

let exact_counts () =
  [ ("flow_scale.evaluations", counts.evaluations); ("incremental.solves", counts.solves) ]

let layer_metrics () =
  let med name = Report.median (Trace.durations name) in
  [
    ("flow_scale.moves", float_of_int counts.moves);
    ("flow_scale.evaluations", float_of_int counts.evaluations);
    ( "flow_scale.eval_hit_ratio",
      float_of_int counts.cache_hits
      /. float_of_int (max 1 (counts.cache_hits + counts.evaluations)) );
    ("incremental.solve_us", med "incremental.solve" *. 1e6);
    ("incremental.solves", float_of_int counts.solves);
    ("howard.cold_ms", med "howard.cold" *. 1e3);
    ("static.capacity_graph_ms", med "static.capacity_graph" *. 1e3);
  ]

let workload ~seed = { Report.name = "flow"; setup = setup ~seed; op; probe; teardown = ignore }
