(** One record describing {e how} to run a simulation — engine kind,
    FIFO capacity, cycle budget, fault injection, link protection and
    telemetry — with a single content digest.

    Before this module, every layer of the stack ({!Wp_soc.Cpu.run},
    [Experiment.run], [Equiv_check.check], {!Runner}, {!Table1} and
    the CLI) re-declared the same [?engine ?fault ?protect ?max_cycles]
    optional-argument sprawl, and the {!Runner} cache key concatenated
    the fields by hand.  A [Run_spec.t] carries them all at once:

    - the spec-taking functions ([Experiment.run_spec],
      [Runner.experiment_spec], …) are the {e only} API — the legacy
      optional-argument bridge wrappers have been removed; build specs
      with {!v} or {!of_args};
    - {!digest} is the {e only} source of cache-key material for the
      run-parameter component — a field added here is automatically
      keyed everywhere.

    The CLI builds specs through {!of_args}, so [run], [equiv] and
    [table1] parse [--engine]/[--fault]/[--protect]/… identically. *)

type t = {
  engine : Wp_sim.Sim.kind;  (** simulation kernel (default {!Wp_sim.Sim.default_kind}) *)
  capacity : int;  (** shell FIFO bound; 0 = unbounded (default 2) *)
  max_cycles : int option;
      (** explicit cycle budget; [None] = MCR-guided bound with
          full-budget fallback (the {!Wp_soc.Cpu.run} default) *)
  fault : Wp_sim.Fault.spec;  (** injected faults (default {!Wp_sim.Fault.none}) *)
  protect : Protect.t;  (** link-protection policy (default {!Protect.none}) *)
  telemetry : Wp_sim.Telemetry.spec;
      (** stall attribution / event trace (default {!Wp_sim.Telemetry.off}) *)
  deadline_ms : int option;
      (** wall-clock latency budget: the run auto-cancels once this many
          milliseconds elapse and finishes [Cancelled].  Deliberately
          {e not} part of {!digest} — a deadline never changes what a
          run computes, so cached results satisfy any deadline *)
}

val default : unit -> t
(** Every field at its default, the engine {!Wp_sim.Sim.default_kind}.
    @raise Invalid_argument as {!Wp_sim.Sim.default_kind} does. *)

val v :
  ?engine:Wp_sim.Sim.kind ->
  ?capacity:int ->
  ?max_cycles:int ->
  ?fault:Wp_sim.Fault.spec ->
  ?protect:Protect.t ->
  ?telemetry:Wp_sim.Telemetry.spec ->
  ?deadline_ms:int ->
  unit ->
  t
(** Build a spec from optional arguments; omitted fields take their
    {!default} values (and raise as it does). *)

val digest : t -> string
(** Stable content digest covering every result-affecting field, e.g.
    ["fast|cap2|mcr|nofault|noprot|notel"].  {!Runner} cache keys embed
    it verbatim; two specs with equal digests are observably
    interchangeable.  [deadline_ms] is excluded: it bounds latency, not
    results, so any cached record satisfies any deadline. *)

val equal : t -> t -> bool

val describe : t -> string
(** Human-readable one-liner (only non-default fields). *)

val of_args :
  ?engine:string ->
  ?capacity:int ->
  ?max_cycles:int ->
  ?fault:string ->
  ?fault_seed:int ->
  ?protect:string ->
  ?link_window:int ->
  ?link_timeout:int ->
  ?stall_report:bool ->
  ?trace_depth:int ->
  ?deadline_ms:int ->
  unit ->
  (t, string) result
(** The single CLI parser: every subcommand maps its flags onto these
    string/int arguments.  [engine] accepts ["fast"]/["ref"] (default:
    {!Wp_sim.Sim.default_kind}); there is no ["static"], because a
    batchable ["fast"] spec already replays its firing table wherever
    one exists (see {!run_cpu}).  [fault] uses the {!Wp_sim.Fault}
    grammar seeded with [fault_seed]; [protect] uses the {!Protect}
    grammar with [link_window]/[link_timeout] (0 = auto) as defaults;
    [stall_report] enables telemetry counters; [trace_depth > 0]
    additionally enables the bounded event trace.  Any syntax error in
    any field comes back as [Error msg] — no exceptions, no [exit]. *)

val batchable : t -> bool
(** Whether a spec runs as a {!Wp_sim.Batch} lane: engine [Fast], a
    benign (stall-only) fault, telemetry off — what a lane can carry,
    and no destructive fault that could make a closure raise and abort
    the lanes after it.  The one admission rule: {!run_cpu}, [Runner]'s
    batched requests and [Sweep]'s shards all route on it, so a spec
    gets the same kernel whether it runs alone or in a batch. *)

val protect_fun :
  t -> (Wp_soc.Datapath.connection -> Wp_sim.Network.protection option) option
(** [protect] in {!Wp_soc.Cpu}'s form: [None] when nothing is
    protected. *)

val run_cpu :
  ?cancel:Wp_util.Cancel.t ->
  ?mcr_work:int ->
  spec:t ->
  machine:Wp_soc.Datapath.machine ->
  mode:Wp_lis.Shell.mode ->
  rs:(Wp_soc.Datapath.connection -> int) ->
  Wp_soc.Program.t ->
  Wp_soc.Cpu.result
(** Run one simulation under a spec, so callers above the SoC layer
    never touch {!Wp_soc.Cpu}'s optional-argument form.  A {!batchable}
    spec runs as a one-lane {!Wp_soc.Cpu.run_batch}: an unfaulted lane
    replays ({!Wp_sim.Static}) where the replay admits it, and any other
    lane steps the handshake ({!Wp_sim.Fast}).  Every other spec
    ([ref], destructive faults, telemetry) runs on {!Wp_soc.Cpu.run},
    which for engine [fast] is the [Fast] kernel.  For a batchable spec
    both paths return structurally equal results.  An explicit [cancel]
    token (e.g. the serve daemon's, stamped at request arrival so
    queueing counts against the budget) takes precedence over the spec's
    own [deadline_ms]. *)
