(** Compiled, allocation-free simulation kernel.

    Same observable semantics as {!Engine} — identical outcomes,
    delivered-token counts, per-shell statistics and (when requested)
    output traces — but the network is compiled once into contiguous
    integer arrays (CSR adjacency for outgoing channels, a flat relay
    slot pool, preallocated FIFO buffers with head/length cursors and a
    validity bitmask instead of boxed tokens), so each {!step} performs
    zero heap allocation in the steady state.  The only remaining
    per-cycle allocations happen inside user-supplied
    [Process.instance] closures when a node fires, and trace conses when
    [record_traces] is set. *)

type t

val create :
  ?capacity:int ->
  ?record_traces:bool ->
  ?fault:Fault.spec ->
  ?telemetry:Telemetry.spec ->
  mode:Wp_lis.Shell.mode ->
  Network.t ->
  t
(** Compile the network.  [capacity] is each shell FIFO's bound
    (default 2; 0 = unbounded).  [record_traces] enables per-output
    token traces (costs one cons per output per cycle).  [fault]
    perturbs delivery and backpressure exactly as in {!Engine.create}
    (the two engines share {!Fault}'s policy code and stay
    byte-identical under a given spec); when absent the kernel keeps its
    zero-allocation steady state.  [telemetry] (default
    {!Telemetry.off}) enables stall attribution and channel telemetry —
    the counters are flat preallocated arrays, but the oracle-readiness
    probe allocates inside the process closure, so the zero-words
    guarantee only holds with telemetry off.
    @raise Invalid_argument if the network fails {!Network.validate} or
    the fault spec fails {!Fault.validate}. *)

val step : t -> unit
(** Advance one clock cycle (three phases: stop propagation, firing,
    simultaneous shift — in the same order as {!Engine.step}). *)

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> Engine.outcome
(** Step until a process halts, a deadlock is detected, or [max_cycles]
    (default 1_000_000) elapses.  Outcomes are shared with the
    reference engine so callers can compare them directly. *)

val cycles : t -> int
val mode : t -> Wp_lis.Shell.mode
val network : t -> Network.t

val delivered : t -> Network.channel -> int
(** Valid tokens delivered end-to-end on a channel so far. *)

val fired_last_cycle : t -> bool

val quiescence_window : t -> int
(** Cycles without any firing after which {!run} declares deadlock. *)

val fault_injections : t -> int
(** Destructive fault events actually performed so far ({!Fault.injections});
    0 when no fault spec was given. *)

val link_stats : t -> Link.chan_stats list
(** Per-protected-channel ARQ statistics; [[]] when nothing is protected. *)

val link_summary : t -> Link.summary option
(** Aggregate link-layer statistics; [None] when nothing is protected. *)

val telemetry_report : t -> Telemetry.report option
(** Stall-attribution summary and event trace collected so far; [None]
    when the kernel was compiled with {!Telemetry.off}.  Byte-identical
    to the reference engine's {!Engine.telemetry_report} on the same
    run. *)

val buffered : t -> Network.node -> int -> int
(** Occupancy of one shell input FIFO. *)

val node_stats : t -> Network.node -> Wp_lis.Shell.stats
(** Per-shell statistics, identical field-for-field to
    [Shell.stats (Engine.shell e n)] on the reference engine. *)

val output_trace : t -> Network.node -> int -> int Wp_lis.Token.t list
(** Recorded token stream of one output port, oldest first.  Empty
    unless [record_traces] was set. *)

val any_halted : t -> bool

(** {1 MCR-guided cycle bounds}

    The reset marking places exactly one token on every channel, so the
    network is a marked graph whose sustainable throughput is
    [min over loops m / (m + n)] for [m] processes and [n] relay
    stations on the loop — the minimum cycle ratio with cost [1] and
    time [1 + rs] per edge. *)

val throughput_bound : Network.t -> float
(** Exact marked-graph throughput upper bound,
    {!Wp_graph.Cycle_ratio.throughput_bound} of the network's digraph;
    [1.0] for acyclic networks. *)

val cycle_bound : ?slack_num:int -> ?slack_den:int -> work_cycles:int -> Network.t -> int
(** [cycle_bound ~work_cycles net] is a provable-with-margin cycle
    budget for a run that needs [work_cycles] firings of the critical
    process: [ceil (work / Th)] plus [slack_num/slack_den] relative
    slack (default 1/4) plus absolute headroom for pipeline fill and a
    quiescence window.  Callers treat [Exhausted] at this bound as
    "re-run with the full budget". *)
