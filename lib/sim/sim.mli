(** Engine-agnostic simulation facade.

    Every experiment can run on the readable reference interpreter
    ({!Engine}) or on the library's compiled handshake kernel ({!Fast}).
    The two are byte-identical in observable behaviour (outcomes, cycle
    counts, delivered tokens, shell statistics, traces), and the
    differential test battery asserts it.  This module hides the choice
    behind one type so callers thread a single [?engine] argument
    instead of duplicating code paths.

    There is no table-replay kind to select: a [fast] run that goes
    through {!Batch} already replays the balanced firing word wherever
    one exists, because {!Batch} sends every Plain, unfaulted lane to
    {!Static}.  A [Fast] simulation created here is always the
    handshake, so the differential tests keep an independent compiled
    kernel to hold the replay against. *)

type kind =
  | Reference  (** {!Engine}: boxed tokens, per-cycle allocation, easy to read *)
  | Fast       (** {!Fast}: compiled int arrays, zero steady-state allocation *)

val kind_to_string : kind -> string
(** ["ref"] / ["fast"] — stable strings for CLI flags and cache keys. *)

val kind_of_string : string -> kind option
(** Accepts ["ref"], ["reference"] and ["fast"]. *)

val default_kind : unit -> kind
(** [Fast], unless the [WIREPIPE_ENGINE] environment variable, read at
    each call, is set.
    @raise Invalid_argument naming the variable when it names no kind. *)

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
    forwarded to {!Engine.create} / {!Fast.create} unchanged.  Both
    interpret a [fault] spec through the same {!Fault} policy code, so
    the differential batteries stay byte-identical even under injected
    faults. *)

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
