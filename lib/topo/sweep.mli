(** Scenario-sweep harness over generated topologies.

    A sweep expands a scenario grammar — a list of {!Topology.spec}
    families times a seed count times one {!Wp_core.Run_spec.t} — into
    concrete scenarios, runs each as one {!Wp_util.Pool} task on the
    {!Wp_sim.Sim} its spec names (a [fast] scenario routed as
    {!Wp_sim.Sim.create} says), and cross-checks engines against each
    other:

    - every statically schedulable scenario (capacity >= 1, no fault,
      no protection, telemetry off) is replayed solo on
      {!Wp_sim.Static} and must agree with the primary engine on
      outcome, cycle count, block firings and delivered tokens.  A
      [fast] primary of such a scenario already ran on the same table
      replay, so for it this pins the routing, not the kernel; under
      [ref] it is an independent check;
    - the same replay measures block 0's steady-state throughput
      {e exactly} (integer arithmetic, one full period against the
      next) against the balanced firing word's rate, and that rate
      against the Howard-MCR bound — the Millo–de Simone sustained-rate
      claim at generated-topology scale;
    - a deterministic quarter of the seeds (those [= 0 mod 4]) on nets
      of at most 128 blocks is also run on the {!Wp_sim.Engine}
      reference interpreter.

    The report compares measured throughput per topology family against
    the Howard-MCR bound of the capacity-extended marked graph and, when
    telemetry is on, merges per-family stall attribution.  Failing
    scenarios become one-line repro files ({!write_repro}) with a
    replay command. *)

type scenario = { topo : Topology.spec; spec : Wp_core.Run_spec.t }

type disagreement = {
  d_checker : string;  (** the checking engine: ["static"] or ["ref"] *)
  d_kind : string;  (** ["outcome"], ["cycles"], ["firings"] or ["delivered"] *)
  d_text : string;  (** the whole entry, e.g. ["ref: node 3 firings 9 vs 10"] *)
}
(** One observable on which a checking engine differs from the
    primary. *)

type result = {
  r_scenario : scenario;
  r_blocks : int;  (** nodes incl. adapter halves *)
  r_channels : int;
  r_outcome : Wp_sim.Engine.outcome;
  r_cycles : int;
  r_firings : int;  (** block 0 firings *)
  r_bound : Wp_graph.Cycle_ratio.ratio;  (** Howard-MCR throughput bound *)
  r_word_rate : Wp_graph.Cycle_ratio.ratio option;
      (** the firing word's ones-per-period; [None] when the scenario is
          not schedulable or the checks are off *)
  r_word_ok : bool option;
      (** as [r_word_rate]: measured steady-state throughput equals the
          word rate, and the word rate equals [r_bound], exactly
          ({!word_rate_ok}) *)
  r_disagreements : disagreement list;
      (** cross-engine mismatches, one per differing observable, [] =
          agree *)
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
(** Execute the sweep, one scenario per pool task, results in input
    order.
    [check_engines] (default [true]) enables the replay / reference
    cross-checks and the word-rate check; the primary engine comes from
    each scenario's spec.
    Never raises on a per-scenario failure — see [r_error]. *)

val word_rate_ok :
  bound:Wp_graph.Cycle_ratio.ratio ->
  rate:Wp_graph.Cycle_ratio.ratio ->
  sustained:bool ->
  bool
(** The replay's word check: block 0 fired exactly its word's ones
    count over one full period against the next ([sustained]), and the
    word's [rate] equals the MCR [bound]. *)

val ok : result -> bool
(** No error, no disagreement, and the word-rate check (when performed)
    passed. *)

val summarise_disagreements : disagreement list -> string
(** A failing scenario's [r_disagreements] in one line: how many per
    checker and per kind, in the order they first appear, then the
    first three entries' texts and ["..."] when there are more, e.g.
    [115 disagreements (static: 2 firings, 113 delivered): <first
    three>; ...].  The entries themselves would run to one per channel
    on a net whose checker disagrees everywhere. *)

val replay_command : scenario -> string
(** A [wp_cli sweep] invocation reproducing exactly this scenario. *)

val write_repro : ?dir:string -> scenario -> reason:string -> string
(** Write a [.sexp] repro (topology, spec digest, reason, replay
    command) via {!Wp_util.Shrink.write_repro}; returns the path. *)

val render : result list -> string
(** Per-family report: blocks/channels/scenarios, Howard-MCR bound,
    mean measured throughput, agreement and word-rate tallies, then
    merged stall-attribution tables when telemetry was on. *)
