(** Top-level runner: execute a program on a wire-pipelined machine.

    This ties everything together: build the datapath, run the engine,
    check the architectural result against the instruction-set simulator,
    and report cycle counts — the primitive behind every Table 1 entry. *)

type outcome =
  | Completed
  | Deadlocked
  | Out_of_cycles
  | Cancelled
      (** the run's {!Wp_util.Cancel} token fired (deadline expired or
          caller abandoned); the engine stopped cooperatively *)

type result = {
  cycles : int;
  outcome : outcome;
  memory : int array;        (** final data memory *)
  registers : int array;     (** final architectural registers *)
  result_ok : bool;          (** result region matches the ISS reference *)
  report : Wp_sim.Monitor.report;
  telemetry : Wp_sim.Telemetry.report option;
      (** stall attribution and optional event trace; [None] unless the
          run was created with a non-{!Wp_sim.Telemetry.off} spec *)
}

val run :
  ?engine:Wp_sim.Sim.kind ->
  ?capacity:int ->
  ?cancel:Wp_util.Cancel.t ->
  ?max_cycles:int ->
  ?mcr_work:int ->
  ?fault:Wp_sim.Fault.spec ->
  ?protect:(Datapath.connection -> Wp_sim.Network.protection option) ->
  ?telemetry:Wp_sim.Telemetry.spec ->
  machine:Datapath.machine ->
  mode:Wp_lis.Shell.mode ->
  rs:(Datapath.connection -> int) ->
  Program.t ->
  result
(** The one SoC run path.  [engine] selects the simulation kernel
    (default {!Wp_sim.Sim.default_kind}); a [Fast] run is routed by
    {!Wp_sim.Sim.create}: an unfaulted, uninstrumented run replays
    ({!Wp_sim.Static}) where the replay admits it, and any other run
    steps the handshake ({!Wp_sim.Fast}), with identical results.
    [capacity] is the shell FIFO bound (default 2); [max_cycles]
    defaults to 2_000_000.  When [max_cycles] is absent and [mcr_work]
    is given (typically the golden run's cycle count), the run is first
    bounded at [Wp_sim.Static.cycle_bound ~work_cycles:mcr_work], the
    marked-graph MCR budget; an [Out_of_cycles] at that bound falls
    back to the full budget, so results never depend on the bound.
    [fault] injects the given {!Wp_sim.Fault} spec into the WP run;
    since injected stalls invalidate the MCR bound, a non-empty fault
    disables the [mcr_work] fast path and uses the full budget.
    [protect] enables the self-healing {!Wp_sim.Link} layer on the
    channels of the connections it names (see {!Datapath.build}); link
    latency and credit stalls also invalidate the MCR bound, so a
    protection policy likewise disables the [mcr_work] fast path.
    [telemetry] (default {!Wp_sim.Telemetry.off}) enables cycle-accurate
    stall attribution; the report lands in the result's [telemetry]
    field.

    Callers above the SoC layer should prefer the spec-driven
    [Wp_core.Run_spec.run_cpu], which carries all of these knobs in one
    record with a single cache digest. *)

val run_golden : ?engine:Wp_sim.Sim.kind -> machine:Datapath.machine -> Program.t -> result
(** Zero relay stations everywhere, plain wrappers: the reference system
    whose cycle count defines throughput 1.0. *)

val throughput : golden:result -> result -> float
(** [golden.cycles / wp.cycles]. *)

val no_relay_stations : Datapath.connection -> int
(** The all-zero RS budget. *)
