(** Parallel, cache-aware experiment runner.

    Every Table 1 regeneration simulates 13 + 25 (program, configuration)
    rows under golden, WP1 and WP2; the optimiser's objective adds a
    shortlist of WP2 sweeps per "Optimal k" row; the randomized
    equivalence battery adds hundreds more.  All of these are
    embarrassingly parallel and heavily overlapping, so the runner
    provides two things on top of {!Wp_util.Pool}:

    - a {b worker pool} ([WIREPIPE_JOBS] or
      [Domain.recommended_domain_count] workers) with order-preserving
      fan-out, so parallel output is byte-identical to sequential output;
    - a {b content-addressed result cache} keyed by
      [(program content digest, machine, Config.digest, max_cycles)] that
      memoises {!Experiment.record}s and optimiser objective values across
      Table 1, the optimiser and the equivalence sweeps.

    Determinism contract: all cached computations are pure, keys cover
    every input that can change the result, and batch results are
    reassembled in submission order — so for any [jobs] count (including
    the [WIREPIPE_JOBS=1] sequential fallback) and any cache state,
    {!Table1.render}/{!Table1.to_csv} output is byte-identical. *)

type t

type section = {
  section_name : string;
  wall_seconds : float;       (** wall-clock time inside {!timed} *)
  section_tasks : int;        (** tasks executed during the section *)
  section_cache_hits : int;   (** cache hits during the section *)
  section_telemetry : Wp_sim.Telemetry.summary option;
      (** merged stall/channel telemetry of the records consumed during
          the section (counters and histograms summed pointwise);
          [None] when the section's specs had telemetry off *)
}

type stats = {
  jobs : int;                 (** pool width *)
  tasks_run : int;            (** pool tasks actually executed *)
  cache_hits : int;           (** experiment + objective cache hits *)
  cache_misses : int;         (** lookups that had to simulate *)
  cache_corrupt : int;        (** disk entries rejected by digest check *)
  quarantined : int;          (** guarded tasks that exhausted retries *)
  expired : int;              (** requests abandoned at their deadline *)
  stale_reaped : int;         (** dead writers' temp files swept at startup *)
  telemetry : Wp_sim.Telemetry.summary option;
      (** running merge of every record's WP1+WP2 telemetry since the
          last {!reset_stats}; mixed-topology sweeps keep the first
          topology seen *)
  sections : section list;    (** chronological *)
}

val create : ?jobs:int -> ?cache:bool -> ?cache_dir:string -> unit -> t
(** [jobs] defaults to {!Wp_util.Pool.default_jobs} (the [WIREPIPE_JOBS]
    environment variable, else every core); [cache] defaults to [true].
    With [cache:false] every lookup misses — results are still correct
    and deterministic, just recomputed.

    [cache_dir] adds a persistent layer under the in-memory cache: each
    entry is stored as a digest-guarded file (magic + MD5 of the
    marshalled payload + payload, written atomically via rename).  The
    digest is validated on every read; a truncated or bit-flipped entry
    is logged, counted in [cache_corrupt], moved into a [quarantine/]
    subdirectory for post-mortem, treated as a miss and replaced by the
    recomputed value — corruption can cost time, never correctness, and
    never raises.

    Crash safety: entries are only ever published by an atomic rename of
    a [*.tmp.<pid>.<domain>] file, so a crashed or SIGKILLed writer can
    strand temp files but never tear an entry.  [create] sweeps the
    directory for temp files whose writer PID is dead and deletes them
    (counted in [stale_reaped]), under an advisory [.wpcache.lock] file
    lock so concurrent daemons sharing the directory do not race the
    sweep (if the lock is busy, the other process is already
    sweeping). *)

val default : unit -> t
(** A lazily created process-wide runner with default parameters; used
    when no explicit runner is passed to {!Table1}. *)

val jobs : t -> int
val cache_enabled : t -> bool

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map on the runner's pool (counted in
    {!stats}).  The exception of the lowest-index task that raised is
    re-raised in the caller, as in {!Wp_util.Pool.map}. *)

val experiment_spec :
  ?cancel:Wp_util.Cancel.t ->
  spec:Run_spec.t ->
  t ->
  machine:Wp_soc.Datapath.machine ->
  program:Wp_soc.Program.t ->
  Config.t ->
  Experiment.record
(** Cached {!Experiment.run_spec}.  [cancel] (and the spec's own
    [deadline_ms]) bound wall-clock, not results: a cache hit satisfies
    any deadline, a cancelled compute raises
    {!Wp_util.Cancel.Cancelled} before anything is stored, and
    [deadline_ms] is deliberately excluded from the cache key.  The
    cache key is
    [(program content digest, machine, Config.digest, Run_spec.digest)]
    — every run parameter (engine kind, cycle budget, FIFO capacity,
    fault, protection, telemetry) enters through {!Run_spec.digest}, so
    a faulted, link-protected or instrumented record never satisfies a
    lookup for a different spec and vice versa.  The record's WP1/WP2
    telemetry summaries (if any) are folded into the runner's running
    aggregate ({!stats}), cache hits included. *)

val experiments_spec :
  spec:Run_spec.t ->
  t ->
  machine:Wp_soc.Datapath.machine ->
  program:Wp_soc.Program.t ->
  Config.t list ->
  Experiment.record list
(** Parallel batch of {!experiment_spec} over one program: the golden
    reference is pre-warmed once, then configurations fan out across the
    pool.  Results are in input order.  A task exception kills
    the batch (map {!experiment_guarded_spec} for a quarantining
    sweep). *)

type failure = {
  failed_key : string;     (** the full cache key of the failed task *)
  attempts_made : int;
  last_error : string;     (** [Printexc.to_string] of the final attempt *)
  repro : string;          (** one-line parameter dump to rerun it *)
}

type outcome =
  | Completed of Experiment.record
  | Failed of failure
  | Expired of string
      (** the request's deadline passed (before or during a run); the
          payload says where it stopped.  Deadlines are not faults:
          expiry burns no retries and is counted in [stats.expired],
          not [quarantined]. *)

val experiment_guarded_spec :
  spec:Run_spec.t ->
  ?attempts:int ->
  ?retry_seed:int ->
  ?cancel:Wp_util.Cancel.t ->
  t ->
  machine:Wp_soc.Datapath.machine ->
  program:Wp_soc.Program.t ->
  Config.t ->
  outcome
(** {!experiment_spec} behind a quarantine: an exception (deadlock,
    exhausted budget, violated invariant) is retried up to [attempts]
    times (default 3) with a deterministic seeded exponential backoff;
    when the spec carries an explicit [max_cycles] budget, attempt [i]
    runs with [max_cycles * 2^(i-1)], so a too-tight per-experiment
    timeout escalates instead of failing identically (each escalated
    budget is its own cache key, via the spec digest).  A task that
    still fails returns [Failed] with its repro line — it never
    raises.

    [cancel] is checked before every attempt and polled inside the run:
    a cancelled or deadline-expired task returns [Expired] immediately,
    with no retries (the budget that ran out is wall-clock) and no
    quarantine. *)

type request = {
  req_spec : Run_spec.t;
  req_machine : Wp_soc.Datapath.machine;
  req_program : Wp_soc.Program.t;
  req_config : Config.t;
  req_cancel : Wp_util.Cancel.t;
      (** per-request cancellation/deadline token
          ({!Wp_util.Cancel.never} for no bound); the service cancels it
          when the client disconnects *)
}
(** One experiment request of a heterogeneous batch (the unit of work
    the [wp_cli serve] daemon receives). *)

val experiments_batch_spec :
  ?attempts:int ->
  ?retry_seed:int ->
  t ->
  request list ->
  (outcome * bool) list
(** Serve a heterogeneous request batch, results in request order.
    First every request is probed against the cache (the [bool] is
    [true] for requests answered from cache); then a miss whose
    [req_cancel] has already fired returns [Expired] without compute;
    then every other miss runs through {!experiment_guarded_spec} (its
    bounded retries, quarantine and mid-run expiry) as one task of the
    runner's pool.  Each request's cache key is computed once.  Computed
    records are stored under the same keys as {!experiment_spec}. *)

val objective_spec :
  spec:Run_spec.t ->
  t ->
  machine:Wp_soc.Datapath.machine ->
  program:Wp_soc.Program.t ->
  Config.t ->
  float
(** Cached {!Experiment.wp2_cycles_objective_spec}, in a table of its
    own.  It shares {!experiment_spec}'s key scheme and, mapped with
    {!map}, the runner's pool, but not its entries: a probe for a
    configuration whose full record is cached still runs, and a probed
    objective fills no record. *)

val timed : t -> string -> (unit -> 'a) -> 'a * section
(** Run a section under the wall clock and record it in {!stats},
    attributing the tasks and cache hits that occur inside it. *)

val stats : t -> stats
val reset_stats : t -> unit
(** Zero the counters and section log (the cache is kept). *)

val clear_cache : t -> unit
(** Forget the in-memory tables.  Disk entries (if [cache_dir] was
    given) are kept: they revalidate through the digest check on the
    next lookup. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line per section plus a totals line — what the bench harness
    prints after each run. *)

val shutdown : t -> unit
(** Join the worker domains.  The {!default} runner is never shut down. *)
