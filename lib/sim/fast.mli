(** Compiled handshake kernel.

    Same observable semantics as {!Engine} — identical outcomes,
    delivered-token counts, per-shell statistics and (when requested)
    output traces — but the network is compiled once into contiguous
    integer arrays (CSR adjacency for outgoing channels, a flat relay
    slot pool, preallocated FIFO rings with head/length cursors and a
    validity bitmask instead of boxed tokens), so a {!step} in which no
    shell fires allocates nothing.  A firing allocates: the kernel
    boxes each input it reads as [Some v] (two words, since
    {!Wp_lis.Process.instance}'s [fire] takes an [int option array]),
    the user-supplied closures allocate what they allocate, and
    [record_traces] adds a cons per output.

    This is the library's only compiled handshake kernel, and one kernel
    is one run.  The same kernel steps every transition {!Static}
    replays ({!transition}), and {!Static}'s replay runs in this
    module's run loop ({!roster}). *)

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
    byte-identical under a given spec).  [telemetry] (default
    {!Telemetry.off}) enables stall attribution and channel telemetry —
    the counters are flat preallocated arrays, but the oracle-readiness
    probe allocates inside the process closure, so the zero-words
    guarantee only holds with telemetry off.
    @raise Invalid_argument if the network fails {!Network.validate},
    [capacity] is negative or the fault spec fails {!Fault.validate}. *)

val step : t -> unit
(** Advance by one cycle (three phases: stop propagation, firing,
    simultaneous shift — in the same order as {!Engine.step}). *)

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> Engine.outcome
(** Step until a process halts, a deadlock is detected, [max_cycles]
    (default 1_000_000) elapses or [cancel] fires.  Outcomes are shared
    with the reference engine so callers can compare them directly.  A
    later call with a larger budget resumes the run. *)

(** {1 Observables} *)

val cycles : t -> int
(** Cycles stepped so far: where the run finished, once it has. *)

val network : t -> Network.t

val delivered : t -> Network.channel -> int
(** Valid tokens delivered end-to-end on a channel so far. *)

val fault_injections : t -> int
(** Destructive fault events actually performed so far ({!Fault.injections});
    0 when no fault spec was given. *)

val link_summary : t -> Link.summary option
(** Aggregate link-layer statistics; [None] when nothing is
    protected. *)

val telemetry_report : t -> Telemetry.report option
(** Stall-attribution summary and event trace collected so far; [None]
    when the kernel was compiled with {!Telemetry.off}.  Byte-identical
    to the reference engine's {!Engine.telemetry_report} on the same
    run. *)

val node_stats : t -> Network.node -> Wp_lis.Shell.stats
(** Per-shell statistics, identical field-for-field to
    [Shell.stats (Engine.shell e n)] on the reference engine. *)

val output_trace : t -> Network.node -> int -> int Wp_lis.Token.t list
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

(** {1 The run loop}

    What both compiled kernels share: a run's clock, sticky halt flag,
    quiet counter and quiescence window, and the termination check.  A
    kernel's [advance] steps the run by one cycle: it sets [halted]
    right after a firing that halts, resets or bumps [quiet] and bumps
    [clock]. *)

type roster = {
  mutable clock : int;
  mutable halted : bool;  (** sticky: set once a process halted *)
  mutable quiet : int;  (** cycles since a shell last fired *)
  quiescence : int;  (** the deadlock window *)
}

val roster : ?bonus:int -> meta -> Wp_lis.Process.instance array -> roster
(** A run at clock 0, its halt flag set when an instance is halted at
    reset.  Its deadlock window is {!Engine}'s: [16 + 4 × (nodes +
    channels + relay stations)] cycles, plus [bonus] (default 0; the
    link layer's {!Link.quiescence_bonus}). *)

val run_roster :
  roster -> ('k -> unit) -> 'k -> budget:int -> cancel:Wp_util.Cancel.t -> Engine.outcome
(** [run_roster r advance k ~budget ~cancel] runs [advance k] until the
    run finishes: halt, quiescence window, [budget], then [cancel]
    (polled every {!Engine.cancel_interval} cycles), checked in
    {!Engine.run}'s order before each cycle. *)

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
  tc_blocked : int array;  (** stalled, ready but backpressured *)
  tc_deliver : int array;  (** channels delivering a token *)
  tc_consumed : int array;  (** global input ports the firing shells read, ascending *)
  tc_dropped : int array;
      (** global input ports that discarded a token, at a firing that
          skipped it or on its arrival, ascending *)
}
(** One cycle of the handshake.  Every shell fires, blocks or starves
    each cycle, so a shell in neither [tc_fired] nor [tc_blocked]
    starved: it was missing an input. *)

type recorder

val recorder : capacity:int -> Network.t -> recorder
(** A kernel of placeholder processes over an unfaulted, unprotected
    network at [capacity >= 1], at reset. *)

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
