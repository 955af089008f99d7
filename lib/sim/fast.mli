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
    {!Batch} runs its faulted lanes as one many-lane kernel
    ({!create_lanes}).  The same kernel steps every transition
    {!Static} replays ({!transition}), and {!Static}'s replay runs in
    this module's lane loop ({!roster}). *)

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

(** {1 Shared layout}

    The flattened port and channel layout both compiled kernels use:
    global input port [in_base.(node) + port] (output ports likewise),
    each channel's producer port, consumer port and slice
    [chan_rs_base.(c) ..< chan_rs_base.(c + 1)] of a relay-slot pool, and
    each node's outgoing channels, in increasing channel order, at
    [out_chan_ids.(out_chan_base.(n) ..< out_chan_base.(n + 1))]. *)

type meta = {
  m_n_nodes : int;
  m_n_chans : int;
  m_in_base : int array;  (** n_nodes + 1 *)
  m_out_base : int array;  (** n_nodes + 1 *)
  m_chan_src_op : int array;
  m_chan_dst_ip : int array;
  m_chan_rs_base : int array;  (** n_chans + 1 *)
  m_out_chan_base : int array;  (** n_nodes + 1 *)
  m_out_chan_ids : int array;
  m_ip_chan : int array;  (** global input port -> feeding channel *)
  m_op_chan : int array;  (** global output port -> driven channel *)
}

val meta_of : Network.t -> meta

(** {1 The lane loop}

    What both compiled kernels share: the running set, the clock, each
    lane's sticky halt flag, quiet counter and finish, and the
    termination check.  A kernel's [advance] steps every running lane
    by one cycle: it sets [halt_flag] right after a firing that halts,
    resets or bumps each running lane's [quiet] and bumps [clock]. *)

type roster = {
  mutable clock : int;
  act : int array;  (** running lane ids, first [n_act] entries *)
  mutable n_act : int;
  halt_flag : Bytes.t;  (** per lane, ['\001'] once a process halted *)
  quiet : int array;  (** per lane: cycles since a shell last fired *)
  quiescence : int array;  (** per lane: the deadlock window *)
  finished : Engine.outcome option array;  (** per lane *)
  lane_end : int array;  (** per lane: the clock at its finish *)
}

val roster : quiescence:int array -> Wp_lis.Process.instance array -> roster
(** Lanes [0 ..< Array.length quiescence], all running at clock 0.  The
    instances are laid out [node * L + lane]; a lane with an instance
    halted at reset starts with its halt flag set. *)

val reopen : roster -> unit
(** Put every lane whose state is at the current clock back in the
    running set: all of them before a first step, those that finished at
    this clock after a run, so a larger budget resumes it. *)

val run_roster :
  roster ->
  ('k -> unit) ->
  'k ->
  budgets:int array ->
  cancels:Wp_util.Cancel.t array ->
  Engine.outcome array
(** [run_roster r advance k] reopens, then runs [advance k] until every
    lane finished: halt, quiescence window, its budget, then its
    cancellation token (polled every {!Engine.cancel_interval} cycles),
    checked in {!Engine.run}'s order before each cycle. *)

val lane_cycles : roster -> int -> int
(** The cycle at which a lane finished, or the clock while it runs. *)

(** {1 Table recorder}

    FIFO lengths, relay-station fills and pending oracle drops are all
    the state a firing decision reads, and in Oracle mode the masks
    {!Wp_lis.Process.instance.required} returns are the rest.  So one
    cycle of this kernel on placeholder processes (no user closure runs)
    from a given state under given masks yields that cycle's row and the
    next state: {!transition}.  {!record} chains it for Plain tables;
    {!Static}'s Oracle replay calls it for each transition no replay
    has met yet. *)

type table_cycle = {
  tc_fired : int array;  (** shells firing this cycle, ascending *)
  tc_starved : int array;  (** stalled, missing an input *)
  tc_blocked : int array;  (** stalled, ready but backpressured *)
  tc_deliver : int array;  (** channels delivering a token *)
  tc_consumed : int array;  (** global input ports the firing shells read, ascending *)
  tc_dropped : int array;
      (** global input ports that discarded a token, at a firing that
          skipped it or on its arrival, ascending *)
  tc_any : bool;  (** did any shell fire *)
}

type recorder

val recorder : capacity:int -> Network.t -> recorder
(** A one-lane kernel of placeholder processes over an unfaulted,
    unprotected network at [capacity >= 1], at reset. *)

val state : recorder -> string
(** The recorder's current occupancy state: every FIFO length,
    relay-station fill and pending drop, as a compact string, so equal
    states are equal strings and [Hashtbl.hash] reads all of it. *)

val transition : recorder -> masks:Bytes.t -> string -> table_cycle * string
(** [transition r ~masks s] restores state [s], steps one cycle in which
    every shell requires the global input ports whose byte in [masks] is
    not ['\000'], and returns the cycle's row and the next state. *)

val record :
  max_cycles:int -> capacity:int -> Network.t -> (int * int * table_cycle array) option
(** [(transient, period, rows)] of a Plain, unfaulted, unprotected
    network at [capacity >= 1]: {!transition} under all-true masks from
    reset until a state repeats, with row [i] describing cycle [i].
    [None] when no state repeats within [max_cycles] cycles.
    {!Static.tables} memoises it. *)
