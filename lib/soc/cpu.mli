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
(** [engine] selects the simulation kernel (default
    {!Wp_sim.Sim.default_kind}, i.e. the compiled [Fast] engine);
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

type batch_item = {
  b_mode : Wp_lis.Shell.mode;
  b_rs : Datapath.connection -> int;
  b_capacity : int;          (** 0 = unbounded, as in {!run} *)
  b_max_cycles : int option;
  b_mcr_work : int option;
  b_fault : Wp_sim.Fault.spec;
  b_protect : (Datapath.connection -> Wp_sim.Network.protection option) option;
      (** {!run}'s [?protect] *)
  b_cancel : Wp_util.Cancel.t;  (** {!Wp_util.Cancel.never} when unused *)
  b_program : Program.t;
}
(** One lane of a batched run: everything {!run} takes except the
    engine and telemetry, which {!Wp_sim.Batch} lanes do not carry (use
    {!run} for those specs). *)

val run_batch : machine:Datapath.machine -> batch_item array -> result array
(** Run all items as lanes of one {!Wp_sim.Batch} and return the
    results in item order.  Each result is byte-identical to the
    corresponding sequential {!run} with [engine = Fast]: per-item cycle
    budgets follow the same rules (explicit [b_max_cycles] wins; a fault
    or a protection policy disables the MCR fast path; an
    [Out_of_cycles] at a tight MCR bound is retried at the full budget —
    retries are themselves batched).  A process closure that raises
    (only a destructive fault can make one) aborts the call. *)

val run_golden : ?engine:Wp_sim.Sim.kind -> machine:Datapath.machine -> Program.t -> result
(** Zero relay stations everywhere, plain wrappers: the reference system
    whose cycle count defines throughput 1.0. *)

val throughput : golden:result -> result -> float
(** [golden.cycles / wp.cycles]. *)

val no_relay_stations : Datapath.connection -> int
(** The all-zero RS budget. *)
