(** Engine-agnostic simulation facade, and the one place a run is
    routed to a kernel.

    Every experiment runs on the readable reference interpreter
    ({!Engine}) or on a compiled kernel.  They are byte-identical in
    observable behaviour (outcomes, cycle counts, delivered tokens,
    shell statistics, traces), and the differential batteries assert
    it.  This module hides the choice behind one type so callers thread
    a single [?engine] argument instead of duplicating code paths.

    A [Fast] run is routed at {!create}, by one rule:

    - an unfaulted run with telemetry off replays ({!Static}: in Plain
      mode the memoised firing table, in Oracle mode the transitions
      runs of its structure have learnt);
    - a run with a fault spec or telemetry, and a run the replay refuses
      with {!Static.Unschedulable} (capacity 0, link protection, a Plain
      recording with no periodic steady state), steps the handshake
      ({!Fast}).

    There is no table-replay kind to select, and no switch to force the
    handshake: a test that means the handshake calls {!Fast.create}
    directly, so the differential batteries keep an independent
    compiled kernel to hold the replay against. *)

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
(** [engine] defaults to {!default_kind}; a [Fast] run is routed as
    described above.  The remaining arguments are forwarded to the
    chosen kernel's [create] unchanged (a replay takes no [fault] or
    [telemetry], because it is only chosen without them).  Every kernel
    interprets a [fault] spec through the same {!Fault} policy code, so
    the differential batteries stay byte-identical even under injected
    faults.
    @raise Invalid_argument as the chosen kernel's [create] does. *)

val of_engine : Engine.t -> t
val kind : t -> kind
(** [Fast] for a replay as for the handshake. *)

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> Engine.outcome
val cycles : t -> int
val network : t -> Network.t
val delivered : t -> Network.channel -> int

val fault_injections : t -> int
(** Destructive fault events performed so far; 0 without a fault spec
    (and so for a replay). *)

val link_summary : t -> Link.summary option
(** Aggregate link-layer statistics; [None] when nothing is protected
    (and so for a replay). *)

val telemetry_report : t -> Telemetry.report option
(** Stall-attribution summary and optional event trace; [None] when the
    run was created with {!Telemetry.off} (and so for a replay).
    Byte-identical across the engines on the same run. *)

val node_stats : t -> Network.node -> Wp_lis.Shell.stats
val output_trace : t -> Network.node -> int -> int Wp_lis.Token.t list
