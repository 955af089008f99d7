(** Compiled, allocation-free handshake kernel.

    Same observable semantics as {!Engine} — identical outcomes,
    delivered-token counts, per-shell statistics and (when requested)
    output traces — but the network is compiled once into contiguous
    integer arrays (CSR adjacency for outgoing channels, a flat relay
    slot pool, preallocated FIFO rings with head/length cursors and a
    validity bitmask instead of boxed tokens), so each {!step} performs
    zero heap allocation in the steady state.  The only remaining
    per-cycle allocations happen inside user-supplied
    [Process.instance] closures when a node fires, and trace conses when
    [record_traces] is set.

    This is the library's only compiled handshake kernel.  One kernel
    steps several independent {e lanes} sharing a topology signature,
    structure-of-arrays: a solo {!create} is a one-lane kernel, and
    {!Batch} runs its Oracle-mode and faulted lanes as one many-lane
    kernel ({!create_lanes}).  Table replay lives in {!Static}. *)

type lane = {
  net : Network.t;
  mode : Wp_lis.Shell.mode;
  capacity : int;
  fault : Fault.spec;
  max_cycles : int;  (** read by {!Batch.run}, not by {!create_lanes} *)
  cancel : Wp_util.Cancel.t;  (** likewise *)
}
(** One lane of a many-lane kernel; {!Batch.lane} re-exports it. *)

type t

val create :
  ?capacity:int ->
  ?record_traces:bool ->
  ?fault:Fault.spec ->
  ?telemetry:Telemetry.spec ->
  mode:Wp_lis.Shell.mode ->
  Network.t ->
  t
(** Compile the network as a one-lane kernel.  [capacity] is each shell
    FIFO's bound (default 2; 0 = unbounded).  [record_traces] enables
    per-output token traces (costs one cons per output per cycle).
    [fault] perturbs delivery and backpressure exactly as in
    {!Engine.create} (the two engines share {!Fault}'s policy code and
    stay byte-identical under a given spec); when absent the kernel
    keeps its zero-allocation steady state, as it does on protected
    channels.  [telemetry] (default {!Telemetry.off}) enables stall
    attribution and channel telemetry — the counters are flat
    preallocated arrays, but the oracle-readiness probe allocates inside
    the process closure, so the zero-words guarantee only holds with
    telemetry off.
    @raise Invalid_argument if the network fails {!Network.validate} or
    the fault spec fails {!Fault.validate}. *)

val create_lanes : ?record_traces:bool -> lane array -> t
(** One kernel over lanes that agree on {!Batch.signature}, each with
    its own processes, relay-station counts, capacity and faults.
    Lanes are not validated here: {!Batch.create} does it. *)

val step : t -> unit
(** Advance every lane whose state is at the current clock by one cycle
    (three phases: stop propagation, firing, simultaneous shift — in the
    same order as {!Engine.step}). *)

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> Engine.outcome
(** Step a one-lane kernel until a process halts, a deadlock is
    detected, [max_cycles] (default 1_000_000) elapses or [cancel]
    fires.  Outcomes are shared with the reference engine so callers
    can compare them directly.  A later call with a larger budget
    resumes the run. *)

val run_lanes :
  t -> budgets:int array -> cancels:Wp_util.Cancel.t array -> Engine.outcome array
(** {!run} for every lane at once, with per-lane budgets and
    cancellation tokens: the same termination check, lane by lane, on
    one shared clock.  A finished lane leaves the running set without
    disturbing the others. *)

(** {1 Observables}

    [?lane] defaults to 0, the only lane of a solo kernel. *)

val cycles : ?lane:int -> t -> int
(** The cycle at which the lane finished, or the current clock while it
    runs. *)

val outcome : t -> lane:int -> Engine.outcome option
val network : ?lane:int -> t -> Network.t

val delivered : ?lane:int -> t -> Network.channel -> int
(** Valid tokens delivered end-to-end on a channel so far. *)

val fault_injections : ?lane:int -> t -> int
(** Destructive fault events actually performed so far ({!Fault.injections});
    0 when no fault spec was given. *)

val link_summary : t -> Link.summary option
(** Aggregate link-layer statistics of lane 0; [None] when nothing is
    protected. *)

val telemetry_report : t -> Telemetry.report option
(** Stall-attribution summary and event trace collected so far; [None]
    when the kernel was compiled with {!Telemetry.off}.  Byte-identical
    to the reference engine's {!Engine.telemetry_report} on the same
    run. *)

val node_stats : ?lane:int -> t -> Network.node -> Wp_lis.Shell.stats
(** Per-shell statistics, identical field-for-field to
    [Shell.stats (Engine.shell e n)] on the reference engine. *)

val output_trace : ?lane:int -> t -> Network.node -> int -> int Wp_lis.Token.t list
(** Recorded token stream of one output port, oldest first.  Empty
    unless [record_traces] was set. *)

(** {1 MCR-guided cycle bounds}

    The reset marking places exactly one token on every channel, so the
    network is a marked graph whose sustainable throughput is
    [min over loops m / (m + n)] for [m] processes and [n] relay
    stations on the loop — the minimum cycle ratio with cost [1] and
    time [1 + rs] per edge. *)

val throughput_bound : Network.t -> float
(** Exact marked-graph throughput upper bound: {!Static.mcr} at
    capacity 0 (unbounded FIFOs, so no slot edges) as a float; [1.0]
    for acyclic networks. *)

val cycle_bound : ?slack_num:int -> ?slack_den:int -> work_cycles:int -> Network.t -> int
(** [cycle_bound ~work_cycles net] is a provable-with-margin cycle
    budget for a run that needs [work_cycles] firings of the critical
    process: [ceil (work / Th)] plus [slack_num/slack_den] relative
    slack (default 1/4) plus absolute headroom for pipeline fill and a
    quiescence window.  Callers treat [Exhausted] at this bound as
    "re-run with the full budget". *)
