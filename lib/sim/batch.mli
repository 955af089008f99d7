(** Batched simulation: many independent runs in one call.

    [N] {e independent} simulations — lanes — run at once.  Lanes are
    first grouped by topology {!signature} (node count, port shapes,
    channel endpoints), so a heterogeneous batch — several generated
    topologies in one call — is fine.  Within a signature each lane
    carries its own process instances (programs), FIFO capacity,
    relay-station counts and fault seed, so a sweep's worth of
    [Run_spec]s becomes one invocation.

    This module only groups, partitions and dispatches; the stepping
    lives in the two compiled kernels, chosen per lane at {!create}
    (no {!Sim.kind} names the table replay: this is where a run is
    routed to it):

    - {b Static replay} ({!Static}) — Plain, unfaulted lanes are grouped
      by (capacity, per-channel relay-station counts); such a group is a
      marked graph, so one firing table per group, recorded by {!Fast}'s
      kernel and memoised by {!Static.tables}, yields a shared schedule
      that the group replays in lockstep as one many-lane
      {!Static.create_lanes} instance.  Each Oracle-mode, unfaulted lane
      fires on its own data, so it is a one-lane {!Static.oracle_lane}
      over the transitions runs of its structure have learnt.
    - {b Dynamic SoA} ({!Fast}) — faulted lanes, and any group whose
      recording finds no periodic steady state, run the full
      three-phase handshake as one many-lane {!Fast.create_lanes}.

    Lanes that finish (halt, deadlock, budget exhaustion, cancellation)
    leave their kernel's running set; the survivors keep stepping on the
    shared clock.  Every lane's observable results — outcome, cycle
    count, delivered counts, per-node statistics, traces, fault
    injections — are byte-identical to running that lane alone on
    {!Fast} or on the reference {!Engine}, which the 50-seed
    differential battery asserts.

    {!create} refuses unbounded FIFOs (capacity 0) and link-layer
    protection with {!Unbatchable}; lanes carry no telemetry. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token

type t

type lane = Fast.lane = {
  net : Network.t;        (** any topology; equal {!signature}s share a kernel *)
  mode : Shell.mode;      (** Plain (WP1) or Oracle (WP2) wrapper rule *)
  capacity : int;         (** shell FIFO capacity; must be >= 1 *)
  fault : Fault.spec;     (** per-lane fault program ({!Fault.none} ok) *)
  max_cycles : int;       (** per-lane cycle budget *)
  cancel : Wp_util.Cancel.t;
      (** per-lane cancellation token ({!Wp_util.Cancel.never} ok);
          polled every {!Engine.cancel_interval} cycles — a cancelled
          lane finishes with [Engine.Cancelled] and leaves the running
          set without disturbing sibling lanes' results *)
}

exception Unbatchable of string
(** A lane violates the kernel's restrictions (capacity 0, protected
    channels).  The message names the offending lane. *)

val signature : Network.t -> string
(** Topology signature: node count, per-node port shapes and channel
    endpoints — {e not} relay-station counts or capacity, which may
    vary lane to lane.  Lanes with equal signatures share compiled
    kernels; unequal signatures are simply compiled separately. *)

val create : ?record_traces:bool -> lane array -> t
(** Group the lanes by {!signature}, partition each group between the
    two kernels and compile them.  Each lane starts at cycle 0 with the
    usual reset token per channel.  @raise Unbatchable as described
    above, [Invalid_argument] on an empty lane array. *)

val run : t -> Engine.outcome array
(** Step all lanes to completion and return one outcome per lane, in
    lane order.  Each lane stops exactly where {!Fast.run} would: halt,
    quiescence-window deadlock, its own [max_cycles] or its own
    [cancel]. *)

val n_lanes : t -> int

val lane_cycles : t -> lane:int -> int
(** The cycle at which [lane] finished (equals the matching
    {!Fast.cycles} after a solo run), or the clock while it is still
    running. *)

val outcome : t -> lane:int -> Engine.outcome option
val network : t -> lane:int -> Network.t
val delivered : t -> lane:int -> Network.channel -> int
val node_stats : t -> lane:int -> Network.node -> Shell.stats
val output_trace : t -> lane:int -> Network.node -> int -> int Token.t list
val fault_injections : t -> lane:int -> int
