(** One Table 1 measurement: a (program, machine, configuration) triple
    simulated under both wrapper disciplines and compared to golden. *)

type record = {
  program_name : string;
  machine : Wp_soc.Datapath.machine;
  config : Config.t;
  golden_cycles : int;
  wp1 : Wp_soc.Cpu.result;
  wp2 : Wp_soc.Cpu.result;
  th_wp1 : float;          (** golden_cycles / wp1.cycles *)
  th_wp2 : float;
  gain_percent : float;    (** 100 * (th_wp2 - th_wp1) / th_wp1 *)
  wp1_bound : float;       (** static worst-loop bound *)
}

val program_digest : Wp_soc.Program.t -> string
(** Stable hex digest of the full workload content (text, initial memory,
    memory size) — the program component of cache keys here and in
    {!Runner}. *)

val golden :
  ?engine:Wp_sim.Sim.kind ->
  machine:Wp_soc.Datapath.machine ->
  Wp_soc.Program.t ->
  Wp_soc.Cpu.result
(** Run (and memoise per program content, machine and engine kind) the
    reference system.  The memo table is thread-safe: worker domains of
    the parallel {!Runner} may call this concurrently. *)

val run_spec :
  ?cancel:Wp_util.Cancel.t ->
  spec:Run_spec.t ->
  machine:Wp_soc.Datapath.machine ->
  program:Wp_soc.Program.t ->
  Config.t ->
  record
(** Simulate WP1 and WP2 under one {!Run_spec.t}.  Unless
    [spec.max_cycles] overrides it, each run is capped by the MCR-guided
    bound derived from the golden cycle count ({!Wp_soc.Cpu.run}'s
    [mcr_work]).  [spec.fault] is injected into both WP runs (never the
    golden reference); a benign spec must leave both runs correct — only
    slower.  [spec.protect] applies a {!Protect} policy to both WP runs
    (never the golden reference): protected connections get the
    self-healing {!Wp_sim.Link} layer, which must keep even destructive
    fault specs architecturally invisible.  [spec.telemetry] turns on
    stall attribution for both WP runs; the reports land in
    [wp1.telemetry] / [wp2.telemetry].
    [cancel] (default: a token built from [spec.deadline_ms], or
    {!Wp_util.Cancel.never}) cooperatively aborts the WP runs — never
    the memoized golden reference, which other requests share.
    @raise Failure if any run fails to complete or corrupts the
    architectural result — equivalence is an invariant here, not a
    statistic.
    @raise Wp_util.Cancel.Cancelled when the token fires mid-run; the
    partial result is discarded and never cached. *)


val run_batch_spec :
  ?cancels:Wp_util.Cancel.t array ->
  machine:Wp_soc.Datapath.machine ->
  (Run_spec.t * Wp_soc.Program.t * Config.t) array ->
  (record, string) result array
(** Batched {!run_spec}: all requests become lanes (WP1 + WP2 each) of
    one {!Wp_soc.Cpu.run_batch}.  Results are in request order and each
    record is identical to the corresponding {!run_spec}, [spec.protect]
    included.  A request whose run deadlocks, exhausts its budget,
    exceeds its deadline or corrupts the result comes back as [Error]
    with {!run_spec}'s failure message, without disturbing the other
    lanes.  [cancels] (one token per request, both of a request's lanes
    share it) overrides each spec's own [deadline_ms]; its length must
    equal the request count.  Specs should satisfy
    {!Run_spec.batchable}.
    @raise Invalid_argument if any spec's engine is not [Fast]. *)

val wp2_cycles_objective_spec :
  spec:Run_spec.t ->
  machine:Wp_soc.Datapath.machine ->
  program:Wp_soc.Program.t ->
  Config.t ->
  float
(** Objective for the optimiser: the WP2 throughput of the configuration
    (higher is better). *)

