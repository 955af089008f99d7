(** Cycle-accurate observability: stall attribution, channel telemetry
    and bounded event traces for both simulation kernels.

    The paper's whole argument is about {e where} cycles go — WP1 loses
    throughput to relay-station stalls that the WP2 oracle recovers —
    so end-of-run cycle counts alone cannot explain a Table 1 row.
    This module attributes every cycle of every shell to exactly one
    class:

    - {b fired} — the process fired;
    - {b oracle-skip} — the shell was input-starved, but {e only} on
      ports the process oracle does not need for the next firing, and
      its outputs were clear: a WP2 (oracle) shell in the same state
      would have fired.  This is the stall class the oracle recovers,
      and summing it over a WP1 run accounts for the WP1-vs-WP2 cycle
      delta;
    - {b missing-input} — a genuinely required token was absent (or the
      shell was starved {e and} blocked, where even the oracle could
      not have fired);
    - {b output-backpressure} — ready, but a raw (stop-wire) output
      channel refused;
    - {b link-credit} — ready, but the first refusing output channel is
      owned by the {!Link} layer (replay-window or credit exhaustion).

    Per channel it histograms consumer-FIFO occupancy and valid-token
    inter-arrival gaps, and counts valid/stop duty cycles.  Optionally a
    bounded ring buffer records the last [trace_depth] cycles of
    (valid, stop) per channel and stall class per node, exportable as a
    VCD waveform or a Chrome [trace_event] JSON.

    Both engines drive the same runtime through the same hooks with the
    same observables, so counters and traces are byte-identical across
    the Reference and Fast kernels.  When the spec is {!off} the engines
    hold no runtime at all ([None]) and the per-cycle cost is a single
    branch — the Fast kernel's zero-allocation steady state is
    preserved. *)

(** {1 Specification} *)

type spec = {
  counters : bool;  (** collect stall/channel counters and histograms *)
  trace_depth : int;
      (** cycles retained by the event-trace ring buffer; [0] disables
          the trace (counters only) *)
}

val off : spec
(** No instrumentation: engines skip telemetry entirely. *)

val counters : spec
(** Stall attribution and channel histograms, no event trace. *)

val with_trace : ?depth:int -> unit -> spec
(** Counters plus a bounded event trace of the last [depth] (default
    65536) cycles. *)

val is_off : spec -> bool

val spec_digest : spec -> string
(** Stable short digest for cache keys: ["notel"], ["tel"] or
    ["tel+trace:N"]. *)

(** {1 Stall classification} *)

type cls =
  | Fired
  | Oracle_skip
  | Missing_input
  | Output_backpressure
  | Link_credit

val cls_code : cls -> int
(** Stable codes 0..4 in declaration order (used by the trace ring). *)

val classify :
  fired:bool ->
  ready:bool ->
  outputs_clear:bool ->
  oracle_ready:bool ->
  link_blocked:bool ->
  cls
(** The single classification rule both engines share.  [ready] is the
    current mode's firing readiness, [oracle_ready] whether an
    oracle-mode shell in the same state would be ready (only consulted
    when starved with clear outputs), [link_blocked] whether the first
    refusing output channel is link-protected (only consulted when
    ready but blocked). *)

(** {1 Runtime} *)

type t

val make : spec -> Network.t -> t option
(** [None] when the spec is {!off} — the compile-time-off fast path. *)

(** {2 Per-cycle hooks}

    An engine writes straight into the runtime's per-cycle scratch
    arrays (they are stable for the runtime's lifetime, so a tight
    engine fetches them once) and makes a single {!commit_cycle} call
    per step. *)

val occ_scratch : t -> int array
(** Per-channel start-of-cycle consumer-FIFO depth (write in phase 1). *)

val stop_scratch : t -> bool array
(** Per-channel producer-visible stop (write in phase 1). *)

val cls_scratch : t -> int array
(** Per-node class {e codes} ({!cls_code}; write in phase 2). *)

val commit_cycle : t -> delivered:int array -> unit
(** Phase-3 hook, exactly once per engine step: [delivered] holds
    every channel's cumulative delivered count after the shift.  Folds
    the scratch arrays and this cycle's per-channel deliveries into the
    counters, histograms and the trace ring. *)

(** {1 Summaries} *)

type node_summary = {
  node_name : string;
  fired : int;
  oracle_skip : int;
  missing_input : int;
  output_backpressure : int;
  link_credit : int;
}

val node_cycles : node_summary -> int
(** Sum of all five classes — equals the run's cycle count. *)

type channel_summary = {
  chan_label : string;
  relay_stations : int;
  delivered : int;  (** total valid tokens delivered to the consumer *)
  valid_cycles : int;  (** cycles with at least one delivery *)
  stop_cycles : int;  (** cycles the producer-visible stop was high *)
  occupancy : int array;
      (** consumer-FIFO depth histogram; index = depth, last bucket
          saturates; sums to the cycle count *)
  gap : int array;
      (** inter-arrival gaps between valid deliveries; index [i] counts
          gaps of [i+1] cycles, last bucket saturates *)
}

val occ_buckets : int
val gap_buckets : int

val duty : cycles:int -> channel_summary -> float
(** [delivered / cycles] — the channel's valid-token duty cycle. *)

type summary = {
  cycles : int;
  nodes : node_summary array;
  channels : channel_summary array;
  link : Link.summary option;
      (** ARQ recovery counters folded in when the run had protected
          channels (previously only reachable through
          [Equiv_check.verdict]) *)
}

val summary_equal : summary -> summary -> bool

val merge : summary -> summary -> summary
(** Pointwise sum of counters and histograms (cycle counts add, link
    counters add, [max_recovery_latency] maxes).  Requires both
    summaries to describe the same topology (node and channel labels);
    @raise Invalid_argument otherwise. *)

val merge_opt : summary option -> summary -> summary option
(** Accumulator-friendly merge: [None] absorbs, mismatching topologies
    leave the accumulator unchanged (mixed sweeps degrade gracefully
    instead of raising). *)

val diff : summary -> summary -> summary
(** [diff later earlier]: pointwise subtraction, for per-section deltas
    of a monotone accumulator.  [max_recovery_latency] keeps the later
    value.  @raise Invalid_argument on topology mismatch. *)

val to_table : summary -> string
(** Rendered stall report: one table attributing every node's cycles to
    the five classes, one table of per-channel duty/stop/occupancy, and
    a link-recovery line when ARQ statistics are present. *)

(** {1 Event trace} *)

type trace = {
  t0 : int;  (** absolute cycle of the first retained entry *)
  steps : int;  (** retained cycles *)
  node_names : string array;
  chan_labels : string array;
  node_cls : int array;  (** [steps * nodes] stall-class codes *)
  chan_valid : int array;  (** [steps * chan_words] bitmasks *)
  chan_stop : int array;  (** [steps * chan_words] bitmasks *)
  chan_words : int;  (** 63-bit words per cycle per signal *)
}

val trace : t -> trace option
(** The retained window, oldest first; [None] when [trace_depth = 0]. *)

val trace_valid_at : trace -> step:int -> chan:int -> bool
val trace_stop_at : trace -> step:int -> chan:int -> bool
val trace_cls_at : trace -> step:int -> node:int -> int

val vcd_of_trace : ?timescale:string -> trace -> string
(** VCD waveform: a [valid] and a [stop] wire per channel and a [fire]
    wire per node, timestamped with absolute cycle numbers. *)

val chrome_of_trace : trace -> string
(** Chrome [trace_event] JSON ([chrome://tracing] / Perfetto): one
    track per block, consecutive same-class cycles merged into spans,
    colored by stall reason. *)

(** {1 Reports} *)

type report = {
  summary : summary;
  event_trace : trace option;
}

val report_of : t -> link:Link.summary option -> report
