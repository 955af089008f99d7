(** Batched simulation: many independent runs in one call.

    [N] {e independent} simulations — lanes — run in one call, each with
    its own network (any topology), wrapper mode, FIFO capacity, fault
    program, cycle budget and cancellation token, so a sweep's worth of
    [Run_spec]s becomes one invocation.

    This module is a per-lane router, and the one place a run is routed
    to the table replay (no {!Sim.kind} names it).  At {!create} each
    lane gets a one-lane kernel of its own:

    - {b Replay} ({!Static}) — an unfaulted lane: in Plain mode the
      firing table {!Fast.record} recorded and {!Static.tables}
      memoises, in Oracle mode the transitions runs of its structure
      have learnt.  Runs of one structure share those through the memo.
    - {b Handshake} ({!Fast}) — faulted lanes (a replay takes no fault
      program), and lanes the replay refuses with
      {!Static.Unschedulable}: capacity 0, link-protected channels and a
      Plain recording with no periodic steady state.

    {!run} runs the lanes one after another, in lane order.  Every
    lane's observable results — outcome, cycle count, delivered counts,
    per-node statistics, traces, fault injections — are byte-identical
    to running that lane alone on {!Fast} or on the reference
    {!Engine}, which the 50-seed differential battery asserts.  Lanes
    carry no telemetry. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token

type t

type lane = {
  net : Network.t;        (** any topology *)
  mode : Shell.mode;      (** Plain (WP1) or Oracle (WP2) wrapper rule *)
  capacity : int;         (** shell FIFO capacity; 0 = unbounded *)
  fault : Fault.spec;     (** per-lane fault program ({!Fault.none} ok) *)
  max_cycles : int;       (** per-lane cycle budget *)
  cancel : Wp_util.Cancel.t;
      (** per-lane cancellation token ({!Wp_util.Cancel.never} ok);
          polled every {!Engine.cancel_interval} cycles — a cancelled
          lane finishes with [Engine.Cancelled] *)
}

val signature : Network.t -> string
(** Topology signature: node count, per-node port shapes and channel
    endpoints — {e not} relay-station counts or capacity.  The perfbench
    [sweep] workload counts a batch's distinct signatures with it. *)

val create : ?record_traces:bool -> lane array -> t
(** Compile one kernel per lane, routed as described above.  Each lane
    starts at cycle 0 with the usual reset token per channel.
    @raise Invalid_argument if a lane's network fails
    {!Network.validate}, its capacity is negative or its fault spec is
    invalid. *)

val run : t -> Engine.outcome array
(** Run every lane to completion, one after another, and return one
    outcome per lane, in lane order.  Each lane stops exactly where
    {!Fast.run} would: halt, quiescence-window deadlock, its own
    [max_cycles] or its own [cancel].  A process closure that raises
    (only a destructive fault can make one) aborts the call. *)

val n_lanes : t -> int

val lane_cycles : t -> lane:int -> int
(** The cycles [lane] ran (equals the matching {!Fast.cycles} after a
    solo run). *)

val outcome : t -> lane:int -> Engine.outcome option
(** [None] until {!run} finished the lane. *)

val network : t -> lane:int -> Network.t
val delivered : t -> lane:int -> Network.channel -> int
val node_stats : t -> lane:int -> Network.node -> Shell.stats
val output_trace : t -> lane:int -> Network.node -> int -> int Token.t list
val fault_injections : t -> lane:int -> int
