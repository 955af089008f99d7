(** Table-replay simulation kernel.

    In {!Shell.Plain} mode with no faults and no link protection, a
    wire-pipelined network is a marked graph: whether a shell fires at
    a given cycle depends only on token counts, never on data.  The
    whole stop/valid handshake can therefore be played once, by
    {!Fast}'s kernel on placeholder processes ({!Fast.record}), until
    the state (FIFO occupancies plus relay-station fills) revisits
    itself — yielding a transient prefix and a periodic steady-state
    firing word per shell, exactly the balanced binary words of
    {!Wp_graph.Schedule}.  After that, {!step} is a table lookup: fire
    the scheduled shells (real process closures, real data, so outputs
    and halting behave exactly as in {!Fast}) and advance the clock — no
    per-cycle stop propagation, readiness scan, FIFO shuffling or stall
    counting.  Values need no FIFO cursors either: a shell's [f]-th
    firing reads slot [f] and writes slot [f + 1] of its channels'
    rings, so one firing counter per shell addresses every value.
    Statistics are reconstructed on demand from cumulative schedule
    tables built once per schedule.

    In {!Shell.Oracle} mode a shell fires on the masks its process's
    oracle returns, which depend on data, so no table exists up front.
    The handshake is still a finite automaton over the occupancy state
    (with pending drops) and every shell's masks, and runs revisit its
    transitions again and again.  Each cycle an Oracle replay reads
    every shell's masks, and only a (state, masks) pair not met yet
    costs a {!Fast.transition}; every other cycle is a lookup plus the
    firings the row lists, and statistics are visit counts times rows.
    Transitions depend on the structure alone, so replays of one
    structure share them, one replay at a time, in a memo bounded like
    the schedules' (2M words) but to 16 structures.

    This is the library's only table-replay kernel, and one replay is
    one run.  {!Sim.create} is what selects it: it routes each
    unfaulted [Fast] run with telemetry off here, and a run the replay
    refuses ({!Unschedulable}) to {!Fast}.  No engine kind names the
    replay.  The sweep's word-rate check, the tests and the benches
    call {!create} directly.
    The handshake, and the run loop the replay runs in ({!Fast.roster}),
    live in {!Fast}.

    Observable behaviour (outcome, cycle count, delivered counts,
    per-shell statistics, traces) is byte-identical to {!Engine} and
    {!Fast}; the differential batteries assert it.

    A replay takes no fault or telemetry spec: those runs go to {!Fast}.
    Link-layer protection and unbounded ([capacity = 0]) FIFOs have no
    finite occupancy state to key on, and are rejected with
    {!Unschedulable}.  The replay refuses loudly rather than
    mis-simulate. *)

exception Unschedulable of string
(** Raised by {!create} and {!tables} when no replay can reproduce the
    requested configuration.  The payload names the offending feature
    (protection, unbounded capacity, or a Plain recording that found no
    periodic steady state). *)

type t

val create : ?capacity:int -> ?record_traces:bool -> mode:Wp_lis.Shell.mode -> Network.t -> t
(** Compile the network and look up its firing table (Plain) or start
    learning its transitions (Oracle).  [capacity] (default 2) and
    [record_traces] mirror {!Fast.create}.
    @raise Unschedulable on any configuration listed above.
    @raise Invalid_argument if the network fails {!Network.validate}
    or [capacity] is negative. *)

val step : t -> unit
(** Advance by one cycle, by table lookup. *)

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> Engine.outcome
(** Same loop and outcomes as {!Fast.run}, including the
    {!Engine.cancel_interval} cancellation poll.  A later call with a
    larger budget resumes the run. *)

(** {1 Observables} *)

val cycles : t -> int
val delivered : t -> Network.channel -> int
val node_stats : t -> Network.node -> Wp_lis.Shell.stats
val output_trace : t -> Network.node -> int -> int Wp_lis.Token.t list

(** {1 The firing table}

    The raw table {!Fast.record} produces, memoised so every replay of
    one schedule shares it. *)

type table_cycle = Fast.table_cycle = {
  tc_fired : int array;  (** shells firing this cycle, ascending *)
  tc_starved : int array;  (** stalled, missing an input *)
  tc_blocked : int array;  (** stalled, ready but backpressured *)
  tc_deliver : int array;  (** channels delivering a token *)
  tc_consumed : int array;  (** global input ports the firing shells read *)
  tc_dropped : int array;  (** global input ports that discarded a token *)
  tc_any : bool;  (** did any shell fire *)
}

val tables : capacity:int -> Network.t -> int * int * table_cycle array
(** [(transient, period, table)] for a Plain, unfaulted, unprotected
    network: [table] has length [transient + period] and row [i]
    describes cycle [i] (cycles beyond the table repeat with the
    period).  Depends only on the topology, per-channel relay-station
    counts and [capacity] — never on process data — so one table serves
    every simulation sharing those.

    Memoised process-wide under a mutex, keyed by exactly those inputs,
    together with the replay's cumulative count tables.  Every replay
    reads the same memo, so a network replayed twice pays for one
    recording, and a repeated call returns the physically same tables
    while they stay cached.  The memo holds at most 256 schedules and
    2M heap words of them: an insert that would cross either bound
    empties it first, and a schedule larger than the word budget is
    returned without being cached.
    @raise Unschedulable as for {!create}, including when no state
    repeats within 65,536 cycles. *)

(** {1 The schedule itself}

    Plain replays only: an Oracle replay has no periodic table, and
    these raise [Invalid_argument] on one. *)

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
    at reset.  Unbounded FIFOs ([C = 0]) never push back, so their
    graph has the forward edges only. *)

val capacity_graph :
  ?capacity:int ->
  Network.t ->
  Wp_graph.Digraph.t
  * (Wp_graph.Digraph.edge -> int)
  * (Wp_graph.Digraph.edge -> int)
(** [(g, tokens, time)]: vertices are node ids; each channel [c]
    contributes a forward edge (label [Network.channel_label], tokens
    1, time [1 + rs]) and, when [capacity > 0], a reverse edge (label
    suffixed ['], tokens [capacity + 2 rs - 1], time 1).  [capacity]
    defaults to 2 and must not be negative. *)

val mcr : ?capacity:int -> Network.t -> Wp_graph.Cycle_ratio.ratio
(** {!Wp_graph.Cycle_ratio.throughput_bound} of {!capacity_graph}: its
    minimum cycle ratio clamped at [1/1] — the sustained-throughput
    bound every shell of a strongly connected network attains. *)

val schedule : ?capacity:int -> Network.t -> Wp_graph.Schedule.t
(** {!Wp_graph.Schedule.build} over {!capacity_graph}: the analytic
    balanced-word schedule whose rate the recorded table provably
    sustains (the test suite pins word-rate equality on the paper's
    networks). *)

(** {1 MCR-guided cycle bounds}

    The reset marking places exactly one token on every channel, so the
    network is a marked graph whose sustainable throughput is
    [min over loops m / (m + n)] for [m] processes and [n] relay
    stations on the loop — the minimum cycle ratio with cost [1] and
    time [1 + rs] per edge. *)

val throughput_bound : Network.t -> float
(** Exact marked-graph throughput upper bound: {!mcr} at capacity 0
    (unbounded FIFOs, so no slot edges) as a float; [1.0] for acyclic
    networks. *)

val cycle_bound : ?slack_num:int -> ?slack_den:int -> work_cycles:int -> Network.t -> int
(** [cycle_bound ~work_cycles net] is a provable-with-margin cycle
    budget for a run that needs [work_cycles] firings of the critical
    process: [ceil (work / Th)] plus [slack_num/slack_den] relative
    slack (default 1/4) plus absolute headroom for pipeline fill and a
    quiescence window.  Callers treat [Exhausted] at this bound as
    "re-run with the full budget". *)
