(** Scenario-sweep harness over generated topologies.

    A sweep expands a scenario grammar — a list of {!Topology.spec}
    families times a seed count times one {!Wp_core.Run_spec.t} — into
    concrete scenarios, shards them across the {!Wp_util.Pool}, rides
    the {!Wp_sim.Batch} kernel wherever {!Wp_core.Run_spec.batchable}
    admits the spec (the topology-generic signature grouping means one
    batch call covers a heterogeneous shard), and cross-checks engines
    against each other:

    - every statically schedulable scenario is replayed on
      {!Wp_sim.Static} and must agree with the primary engine on
      outcome, cycle count, block firings and delivered tokens;
    - seed-0 scenarios of each family are additionally replayed on the
      {!Wp_sim.Engine} reference interpreter;
    - under [--engine static] the measured steady-state throughput of
      block 0 is checked {e exactly} (integer arithmetic, one full
      period against the next) against the balanced firing word's rate
      — the Millo–de Simone sustained-rate claim at generated-topology
      scale.

    The report compares measured throughput per topology family against
    the Howard-MCR bound of the capacity-extended marked graph and, when
    telemetry is on, merges per-family stall attribution.  Failing
    scenarios become one-line repro files ({!write_repro}) with a
    replay command. *)

type scenario = { topo : Topology.spec; spec : Wp_core.Run_spec.t }

type result = {
  r_scenario : scenario;
  r_blocks : int;  (** nodes incl. adapter halves *)
  r_channels : int;
  r_outcome : Wp_sim.Engine.outcome;
  r_cycles : int;
  r_firings : int;  (** block 0 firings *)
  r_bound : Wp_graph.Cycle_ratio.ratio;  (** Howard-MCR throughput bound *)
  r_word_rate : Wp_graph.Cycle_ratio.ratio option;
      (** static engine only: the firing word's ones-per-period *)
  r_word_ok : bool option;
      (** static engine only: measured steady-state throughput equals
          the word rate, exactly *)
  r_disagreements : string list;  (** cross-engine mismatches, [] = agree *)
  r_telemetry : Wp_sim.Telemetry.summary option;
  r_error : string option;  (** scenario died with this exception *)
}

val expand :
  topos:Topology.spec list ->
  seeds:int ->
  spec:Wp_core.Run_spec.t ->
  scenario list
(** The grammar product: for each family, seeds [base, base + seeds)
    where [base] is the family spec's own seed.  @raise Invalid_argument
    when [seeds < 1]. *)

val run : ?jobs:int -> ?check_engines:bool -> scenario list -> result list
(** Execute the sweep, [shard]-wise parallel, results in input order.
    [check_engines] (default [true]) enables the static / reference
    cross-checks; the primary engine comes from each scenario's spec.
    Never raises on a per-scenario failure — see [r_error]. *)

val ok : result -> bool
(** No error, no disagreement, and the word-rate check (when performed)
    passed. *)

val replay_command : scenario -> string
(** A [wp_cli sweep] invocation reproducing exactly this scenario. *)

val write_repro : ?dir:string -> scenario -> reason:string -> string
(** Write a [.sexp] repro (topology, spec digest, reason, replay
    command) via {!Wp_util.Shrink.write_repro}; returns the path. *)

val render : result list -> string
(** Per-family report: blocks/channels/scenarios, Howard-MCR bound,
    mean measured throughput, agreement and word-rate tallies, then
    merged stall-attribution tables when telemetry was on. *)
