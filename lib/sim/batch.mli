(** Batched structure-of-arrays simulation kernel.

    {!Fast} compiles one netlist into flat arrays and steps it with no
    per-cycle allocation; this module goes one step further and steps
    [N] {e independent} simulations — lanes — at once.  Lanes are first
    grouped by topology {!signature} (node count, port shapes, channel
    endpoints), each signature compiling its own sub-composite, so a
    heterogeneous batch — several generated topologies in one call — is
    fine.  Within a signature each lane carries its own process
    instances (programs), FIFO capacity, relay-station counts and fault
    seed, so a sweep's worth of [Run_spec]s becomes one kernel
    invocation.

    The kernel is a composite of two engines, chosen per lane at
    {!create}:

    - {b Static replay} — Plain, unfaulted lanes are grouped by
      (capacity, per-channel relay-station counts); such a group is a
      marked graph, so one count-only {!Static.tables} prepass per group
      (memoised there and shared with {!Static.create}) yields a shared
      firing schedule that every lane in the group replays in lockstep.
      Per-cycle stall/delivery bookkeeping disappears entirely:
      statistics are reconstructed in O(1) from cumulative schedule
      tables, and the inner loop only fires scheduled processes,
      lane-innermost over shared value-ring cursors so neighbouring
      lanes' tokens stay contiguous.
    - {b Dynamic SoA} — Oracle-mode and faulted lanes (whose firing is
      data- or fault-dependent) run the full three-phase handshake with
      state laid out structure-of-arrays: for entity [e] (input port,
      output port, channel or node) and lane [l], the cell lives at
      [e * n_lanes + l], amortizing channel decode and CSR scans across
      lanes.

    Lanes that finish (halt, deadlock, budget exhaustion) are compacted
    out of the active set; the survivors keep stepping on the shared
    global clock.  Every lane's observable results — outcome, cycle
    count, delivered counts, per-node statistics, traces, fault
    injections — are byte-identical to running that lane alone on
    {!Fast}, which the 50-seed differential battery asserts.

    Deliberately out of scope (callers fall back to {!Fast}):
    unbounded FIFOs (capacity 0), link-layer protection, telemetry. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token

type t

type lane = {
  net : Network.t;        (** any topology; equal {!signature}s share a sub-kernel *)
  mode : Shell.mode;      (** Plain (WP1) or Oracle (WP2) wrapper rule *)
  capacity : int;         (** shell FIFO capacity; must be >= 1 *)
  fault : Fault.spec;     (** per-lane fault program ({!Fault.none} ok) *)
  max_cycles : int;       (** per-lane cycle budget *)
  cancel : Wp_util.Cancel.t;
      (** per-lane cancellation token ({!Wp_util.Cancel.never} ok);
          polled every {!Engine.cancel_interval} cycles — a cancelled
          lane finishes with [Engine.Cancelled] and is compacted out of
          the active set without disturbing sibling lanes' results *)
}

exception Unbatchable of string
(** A lane violates the kernel's restrictions (capacity 0, protected
    channels).  The message names the offending lane. *)

val signature : Network.t -> string
(** Topology signature: node count, per-node port shapes and channel
    endpoints — {e not} relay-station counts or capacity, which may
    vary lane to lane.  Lanes with equal signatures share one compiled
    sub-kernel; unequal signatures are simply compiled separately. *)

val create : ?record_traces:bool -> lane array -> t
(** Group the lanes by {!signature}, compile each topology once and
    allocate the SoA state for all lanes.  Each lane starts at cycle 0
    with the usual reset token per channel.  @raise Unbatchable as
    described above, [Invalid_argument] on an empty lane array. *)

val run : t -> Engine.outcome array
(** Step all lanes to completion and return one outcome per lane, in
    lane order.  Each lane stops exactly where {!Fast.run} would: halt,
    quiescence-window deadlock, or its own [max_cycles]. *)

val n_lanes : t -> int
val cycles : t -> int
(** Global clock: the number of cycles stepped so far (= the slowest
    lane's progress). *)

val lane_cycles : t -> lane:int -> int
(** The cycle at which [lane] finished (equals the matching
    {!Fast.cycles} after a solo run), or the global clock while it is
    still active. *)

val outcome : t -> lane:int -> Engine.outcome option
val network : t -> lane:int -> Network.t
val mode : t -> lane:int -> Shell.mode
val delivered : t -> lane:int -> Network.channel -> int
val node_stats : t -> lane:int -> Network.node -> Shell.stats
val output_trace : t -> lane:int -> Network.node -> int -> int Token.t list
val fault_injections : t -> lane:int -> int
val buffered : t -> lane:int -> Network.node -> int -> int
