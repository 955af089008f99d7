(* sweep: a closed loop.  One op is one single-job Sweep.run with engine
   checks on, over 4 fresh seeds each of mesh:8x8, ring:64 and rand:64.
   Op [i] draws seeds [base + 4i, base + 4i + 4) with [base] taken from
   the workload seed, so Batch's schedule memo stays cold, as in a real
   sweep; each op holds exactly one seed per family that is a multiple of
   4, which is the one Sweep replays on the reference interpreter. *)

module Sweep = Wp_topo.Sweep
module Topology = Wp_topo.Topology
module Run_spec = Wp_core.Run_spec
module Batch = Wp_sim.Batch
module Static = Wp_sim.Static
module Sim = Wp_sim.Sim
module Shell = Wp_lis.Shell

let families = [ "mesh:8x8"; "ring:64"; "rand:64" ]
let seeds_per_family = 4

(* Sweep's default cycle budget per scenario. *)
let budget = 2048

type ctx = { scenarios : Sweep.scenario list; mutable results : Sweep.result list }

let setup ~seed i =
  let base = (seed * 100_003) + (seeds_per_family * i) in
  let spec = Run_spec.v ~engine:Sim.Fast () in
  let topos =
    List.map
      (fun f ->
        match Topology.of_string f with
        | Ok t -> Topology.with_seed t base
        | Error e -> failwith e)
      families
  in
  { scenarios = Sweep.expand ~topos ~seeds:seeds_per_family ~spec; results = [] }

let check results = results <> [] && List.for_all Sweep.ok results

let op (ctx : ctx) =
  ctx.results <-
    Trace.span "sweep.run" (fun () -> Sweep.run ~jobs:1 ~check_engines:true ctx.scenarios);
  check ctx.results

(* ------------------------------------------------------------------ *)
(* Traced layer probe                                                   *)
(* ------------------------------------------------------------------ *)

(* Counts are those of the first probed op, so they repeat exactly for a
   seed whatever the run's length; the lane rate sums every probe. *)
type counts = {
  mutable probed : bool;
  mutable scenarios : int;
  mutable disagreements : int;
  mutable lanes : int;
  mutable signatures : int;
  mutable lane_cycles : int;
  mutable run_s : float;
}

let counts =
  {
    probed = false;
    scenarios = 0;
    disagreements = 0;
    lanes = 0;
    signatures = 0;
    lane_cycles = 0;
    run_s = 0.;
  }

(* The op's scenarios again, layer by layer: build and Howard bound per
   scenario, one batch over all of them, then the static and reference
   cross-checks Sweep performs. *)
let probe (ctx : ctx) =
  let nets =
    List.map
      (fun (sc : Sweep.scenario) ->
        let net = Trace.span "topology.build" (fun () -> Topology.build sc.Sweep.topo) in
        ignore (Trace.span "topology.mcr" (fun () -> Topology.mcr ~capacity:2 net));
        (sc, net))
      ctx.scenarios
  in
  let lanes =
    Array.of_list
      (List.map
         (fun ((sc : Sweep.scenario), net) ->
           {
             Batch.net;
             mode = Shell.Plain;
             capacity = sc.Sweep.spec.Run_spec.capacity;
             fault = sc.Sweep.spec.Run_spec.fault;
             max_cycles = budget;
             cancel = Wp_util.Cancel.never;
           })
         nets)
  in
  let b = Trace.span "batch.create" (fun () -> Batch.create lanes) in
  let t0 = Trace.now () in
  ignore (Trace.span "batch.run" (fun () -> Batch.run b));
  counts.run_s <- counts.run_s +. (Trace.now () -. t0);
  for lane = 0 to Batch.n_lanes b - 1 do
    counts.lane_cycles <- counts.lane_cycles + Batch.lane_cycles b ~lane
  done;
  List.iter
    (fun ((sc : Sweep.scenario), net) ->
      Trace.span "static.replay" (fun () ->
          let st = Static.create ~capacity:2 ~mode:Shell.Plain net in
          ignore (Static.run ~max_cycles:budget st));
      if sc.Sweep.topo.Topology.seed mod 4 = 0 then
        Trace.span "engine.reference" (fun () ->
            let sim = Sim.create ~engine:Sim.Reference ~capacity:2 ~mode:Shell.Plain net in
            ignore (Sim.run ~max_cycles:budget sim)))
    nets;
  if not counts.probed then begin
    counts.probed <- true;
    counts.lanes <- Batch.n_lanes b;
    counts.signatures <-
      List.length (List.sort_uniq compare (List.map (fun (_, n) -> Batch.signature n) nets));
    counts.scenarios <- List.length ctx.results;
    counts.disagreements <-
      List.fold_left
        (fun a (r : Sweep.result) -> a + List.length r.Sweep.r_disagreements)
        0 ctx.results
  end

let reset () = counts.probed <- false

let exact_counts () =
  [ ("sweep.scenarios", counts.scenarios); ("batch.lanes", counts.lanes) ]

let layer_metrics () =
  let ms name = Report.median (Trace.durations name) *. 1e3 in
  [
    ("topology.build_ms", ms "topology.build");
    ("topology.mcr_ms", ms "topology.mcr");
    ("batch.create_ms", ms "batch.create");
    ("batch.run_ms", ms "batch.run");
    ("batch.lane_cycles_per_s", float_of_int counts.lane_cycles /. counts.run_s);
    ("batch.signatures", float_of_int counts.signatures);
    ("batch.lanes", float_of_int counts.lanes);
    ("static.replay_ms", ms "static.replay");
    ("engine.reference_ms", ms "engine.reference");
    ("sweep.scenarios", float_of_int counts.scenarios);
    ("sweep.disagreements", float_of_int counts.disagreements);
  ]

let workload ~seed =
  { Report.name = "sweep"; setup = setup ~seed; op; probe; teardown = ignore }

let scenarios_per_op = float_of_int (List.length families * seeds_per_family)
