(** Engine-agnostic simulation facade.

    Every experiment can run on the readable reference interpreter
    ({!Engine}) or on one of the library's two compiled kernels: the
    handshake kernel ({!Fast}) and the table-replay kernel ({!Static}).
    The three are byte-identical in observable behaviour (outcomes,
    cycle counts, delivered tokens, shell statistics, traces) wherever
    they all apply, and the differential test battery asserts it.  This
    module hides the choice behind one type so callers thread a single
    [?engine] argument instead of duplicating code paths.  Many runs at
    once go through {!Batch}, which drives the same two kernels.

    {!Static} only covers statically schedulable configurations (Plain
    mode, no faults, no link protection, no telemetry, bounded FIFOs);
    {!create} with [engine = Static] raises {!Static.Unschedulable}
    on anything else — an explicit refusal, never a silently wrong
    simulation. *)

type kind =
  | Reference  (** {!Engine}: boxed tokens, per-cycle allocation, easy to read *)
  | Fast       (** {!Fast}: compiled int arrays, zero steady-state allocation *)
  | Static     (** {!Static}: precomputed firing table, no per-cycle handshake *)

val kind_to_string : kind -> string
(** ["ref"] / ["fast"] / ["static"] — stable strings for CLI flags and
    cache keys. *)

val kind_of_string : string -> kind option
(** Accepts ["ref"], ["reference"], ["fast"] and ["static"]. *)

val default_kind : kind
(** [Fast], unless the [WIREPIPE_ENGINE] environment variable names a
    valid kind. *)

type t

val create :
  ?engine:kind ->
  ?capacity:int ->
  ?record_traces:bool ->
  ?fault:Fault.spec ->
  ?telemetry:Telemetry.spec ->
  mode:Wp_lis.Shell.mode ->
  Network.t ->
  t
(** [engine] defaults to {!default_kind}; the remaining arguments are
    forwarded to {!Engine.create} / {!Fast.create} / {!Static.create}
    unchanged.  The dynamic engines interpret a [fault] spec through
    the same {!Fault} policy code, so the differential batteries stay
    byte-identical even under injected faults.
    @raise Static.Unschedulable when [engine = Static] and the
    configuration has no static firing word (oracle mode, faults,
    protection, telemetry, or unbounded FIFOs). *)

val of_engine : Engine.t -> t
val kind : t -> kind

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> Engine.outcome
val cycles : t -> int
val network : t -> Network.t
val delivered : t -> Network.channel -> int

val fault_injections : t -> int
(** Destructive fault events performed so far; 0 without a fault spec. *)

val link_summary : t -> Link.summary option
(** Aggregate link-layer statistics; [None] when nothing is protected. *)

val telemetry_report : t -> Telemetry.report option
(** Stall-attribution summary and optional event trace; [None] when the
    run was created with {!Telemetry.off}.  Byte-identical across the
    engines on the same run. *)

val node_stats : t -> Network.node -> Wp_lis.Shell.stats
val output_trace : t -> Network.node -> int -> int Wp_lis.Token.t list
