module Engine = Wp_sim.Engine
module Sim = Wp_sim.Sim
module Static = Wp_sim.Static
module Monitor = Wp_sim.Monitor

type outcome =
  | Completed
  | Deadlocked
  | Out_of_cycles
  | Cancelled

type result = {
  cycles : int;
  outcome : outcome;
  memory : int array;
  registers : int array;
  result_ok : bool;
  report : Monitor.report;
  telemetry : Wp_sim.Telemetry.report option;
}

let no_relay_stations (_ : Datapath.connection) = 0

let default_max_cycles = 2_000_000

(* The cycle budget of one run.  An explicit [max_cycles] wins.
   Otherwise [mcr_work] (typically the golden run's cycle count) bounds
   the run at [Static.cycle_bound], provable from the marked-graph
   throughput plus engineering slack.  Injected stalls, ARQ recovery
   episodes and credit stalls ([perturbed]) push throughput below that
   bound, so the MCR budget would routinely exhaust and force a double
   run: go straight to the full budget. *)
let budget ?max_cycles ?mcr_work ~perturbed (dp : Datapath.t) =
  match max_cycles, mcr_work with
  | Some m, _ -> m
  | None, Some work when not perturbed ->
    min (Static.cycle_bound ~work_cycles:work dp.Datapath.network)
      default_max_cycles
  | None, _ -> default_max_cycles

let perturbed ?protect fault = Option.is_some protect || not (Wp_sim.Fault.is_none fault)

(* A run that exhausted a tight MCR bound (the slack makes it rare) is
   retried at the full budget, so outcomes stay identical to the
   unbounded configuration. *)
let retry ?max_cycles bound result =
  result.outcome = Out_of_cycles
  && Option.is_none max_cycles
  && bound < default_max_cycles

(* The observable result of a finished run: the taps' final memory and
   registers, checked against the ISS reference. *)
let result_of ~program (dp : Datapath.t) out ~report ~telemetry =
  let outcome, cycles =
    match out with
    | Engine.Halted c -> (Completed, c)
    | Engine.Deadlocked c -> (Deadlocked, c)
    | Engine.Exhausted c -> (Out_of_cycles, c)
    | Engine.Cancelled c -> (Cancelled, c)
  in
  let memory =
    match !(dp.Datapath.memory_tap) with Some get -> get () | None -> [||]
  in
  let registers =
    match !(dp.Datapath.register_tap) with Some get -> get () | None -> [||]
  in
  let result_ok =
    outcome = Completed
    &&
    let base, len = program.Program.result_region in
    let expected = Program.expected_result program in
    len = 0
    || (Array.length memory >= base + len
       && Array.for_all2 ( = ) expected (Array.sub memory base len))
  in
  { cycles; outcome; memory; registers; result_ok; report; telemetry }

let run ?engine ?(capacity = 2) ?cancel ?max_cycles ?mcr_work ?fault ?protect
    ?telemetry ~machine ~mode ~rs (program : Program.t) =
  (* [Process.make] allocates every piece of mutable state afresh and
     re-seats the taps, so one built datapath serves any number of
     engine creations: the full-budget retry does not rebuild it. *)
  let dp = Datapath.build ?protect ~machine ~rs program in
  let attempt max_cycles =
    let sim =
      Sim.create ?engine ~capacity ?fault ?telemetry ~mode dp.Datapath.network
    in
    let out = Sim.run ?cancel ~max_cycles sim in
    result_of ~program dp out ~report:(Monitor.collect_sim sim)
      ~telemetry:(Sim.telemetry_report sim)
  in
  let perturbed = perturbed ?protect (Option.value fault ~default:Wp_sim.Fault.none) in
  let bound = budget ?max_cycles ?mcr_work ~perturbed dp in
  let result = attempt bound in
  if retry ?max_cycles bound result then attempt default_max_cycles
  else result

let run_golden ?engine ~machine program =
  run ?engine ~machine ~mode:Wp_lis.Shell.Plain ~rs:no_relay_stations program

let throughput ~golden result =
  if result.cycles = 0 then 0.0
  else float_of_int golden.cycles /. float_of_int result.cycles
