(** Table-driven static-schedule simulation kernel.

    In {!Shell.Plain} mode with no faults and no link protection, a
    wire-pipelined network is a marked graph: whether a shell fires at
    a given cycle depends only on token counts, never on data.  The
    whole stop/valid handshake can therefore be played once, on counts
    alone, until the state (FIFO occupancies plus relay-station fills)
    revisits itself — yielding a transient prefix and a periodic
    steady-state firing word per shell, exactly the balanced binary
    words of {!Wp_graph.Schedule}.  After that prepass, {!step} is a
    table lookup: fire the scheduled shells (real process closures,
    real data, so outputs and halting behave exactly as in {!Fast}),
    bump the scheduled stall and delivery counters, and advance the
    clock — no per-cycle stop propagation, readiness scan or FIFO
    shuffling.

    Observable behaviour (outcome, cycle count, delivered counts,
    per-shell statistics, traces, buffered occupancies) is
    byte-identical to {!Engine} and {!Fast}; the differential battery
    asserts it.

    Configurations whose firing pattern is {e not} statically
    determined — {!Shell.Oracle} mode (data-dependent input masks),
    fault injection, link-layer protection, telemetry instrumentation,
    unbounded ([capacity = 0]) FIFOs — are rejected at {!create} time
    with {!Unschedulable}.  A static engine must refuse loudly rather
    than mis-simulate. *)

exception Unschedulable of string
(** Raised by {!create} when no static firing word can reproduce the
    requested configuration.  The payload names the offending feature
    (oracle mode, fault spec, protection, telemetry, unbounded
    capacity, or a prepass that found no periodic steady state). *)

type t

val create :
  ?capacity:int ->
  ?record_traces:bool ->
  ?fault:Fault.spec ->
  ?telemetry:Telemetry.spec ->
  mode:Wp_lis.Shell.mode ->
  Network.t ->
  t
(** Compile the network and precompute its firing table.  Arguments
    mirror {!Fast.create}.
    @raise Unschedulable on any configuration listed above.
    @raise Invalid_argument if the network fails {!Network.validate}
    or [capacity] is negative. *)

val step : t -> unit
(** Advance one cycle by table lookup. *)

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> Engine.outcome
(** Same loop and outcomes as {!Fast.run}, including the
    {!Engine.cancel_interval} cancellation poll. *)

val cycles : t -> int
val mode : t -> Wp_lis.Shell.mode
val network : t -> Network.t
val delivered : t -> Network.channel -> int
val fired_last_cycle : t -> bool
val quiescence_window : t -> int

val fault_injections : t -> int
(** Always [0]: faulted configurations are unschedulable. *)

val link_stats : t -> Link.chan_stats list
val link_summary : t -> Link.summary option
val telemetry_report : t -> Telemetry.report option

val node_stats : t -> Network.node -> Wp_lis.Shell.stats
val output_trace : t -> Network.node -> int -> int Wp_lis.Token.t list
val buffered : t -> Network.node -> int -> int

val any_halted : t -> bool
(** Whether some process reports [halted].  A sticky flag, seeded from
    the fresh instances at {!create} and probed right after each firing:
    [halted] depends only on process state, which only [fire] advances. *)

(** {1 Count-only prepass}

    The raw firing table, exposed so the batch kernel can replay one
    schedule across every lane of a group of topology-identical lanes. *)

type table_cycle = {
  tc_fired : int array;  (** shells firing this cycle, ascending *)
  tc_starved : int array;  (** stalled, missing an input *)
  tc_blocked : int array;  (** stalled, ready but backpressured *)
  tc_deliver : int array;  (** channels delivering a token *)
  tc_any : bool;  (** did any shell fire *)
}

val tables : capacity:int -> Network.t -> int * int * table_cycle array
(** [(transient, period, table)] for a Plain, unfaulted, unprotected
    network: [table] has length [transient + period] and row [i]
    describes cycle [i] (cycles beyond the table repeat with the
    period).  Depends only on the topology, per-channel relay-station
    counts and [capacity] — never on process data — so one table serves
    every simulation sharing those.

    Memoised process-wide under a mutex, keyed by exactly those inputs.
    {!create} and the batch kernel's replay groups read the same memo,
    so a network replayed on both pays for one prepass, and a repeated
    call returns the physically same tables while they stay cached.  The
    memo holds at most 256 tables and 2M heap words of them: an insert
    that would cross either bound empties it first, and a table larger
    than the word budget is returned without being cached.
    @raise Unschedulable as for {!create}. *)

(** {1 The schedule itself} *)

val transient : t -> int
(** Cycles before the firing pattern becomes periodic. *)

val period : t -> int
(** Length of the steady-state firing word. *)

val word : t -> Network.node -> bool array
(** One shell's steady-state firing word (length {!period}). *)

val rate : t -> Network.node -> Wp_graph.Cycle_ratio.ratio
(** Ones-per-period of one shell's word, in lowest terms — the shell's
    exact sustained throughput in firings per cycle. *)

(** {1 Capacity-extended marked graph}

    The handshake's backpressure is itself a token constraint: a
    channel with [k] relay stations and FIFO capacity [C] can hold at
    most [C + 2k] tokens in flight, one of which is occupied by the
    reset token.  Adding a reverse edge carrying the [C + 2k - 1] free
    slots (latency 1: a slot freed by the consumer is visible to the
    producer next cycle) turns the bounded-buffer network into a pure
    marked graph whose minimum cycle ratio is the sustained throughput
    of every shell — including rate 0 for configurations that deadlock
    at reset. *)

val capacity_graph :
  ?capacity:int ->
  Network.t ->
  Wp_graph.Digraph.t
  * (Wp_graph.Digraph.edge -> int)
  * (Wp_graph.Digraph.edge -> int)
(** [(g, tokens, time)]: vertices are node ids; each channel [c]
    contributes a forward edge (label [Network.channel_label], tokens
    1, time [1 + rs]) and a reverse edge (label suffixed ['],
    tokens [capacity + 2 rs - 1], time 1).  [capacity] defaults to 2
    and must be positive. *)

val schedule : ?capacity:int -> Network.t -> Wp_graph.Schedule.t
(** {!Wp_graph.Schedule.build} over {!capacity_graph}: the analytic
    balanced-word schedule whose rate the prepass table provably
    sustains (the test suite pins word-rate equality on the paper's
    networks). *)
