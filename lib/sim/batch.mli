(** Many independent runs in one call: a loop over {!Sim}.

    Kept for the surfaces that time a batch of runs: the repository
    benchmark's [sweep] probe and [sim_bench --probe batch].  Every
    other caller runs one {!Sim} per run.

    Each lane is one [Sim.create ~engine:Sim.Fast] run, routed as
    {!Sim.create} says (an unfaulted lane replays, any other lane steps
    the handshake), and {!run} runs the lanes one after another, in
    lane order.  A lane's results are those of the same run created
    alone; lanes carry no telemetry. *)

type t

type lane = {
  net : Network.t;        (** any topology *)
  mode : Wp_lis.Shell.mode;  (** Plain (WP1) or Oracle (WP2) wrapper rule *)
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
(** Create one routed {!Sim} per lane.
    @raise Invalid_argument if a lane's network fails
    {!Network.validate}, its capacity is negative or its fault spec is
    invalid. *)

val run : t -> Engine.outcome array
(** Run every lane to its end, one after another, and return one
    outcome per lane, in lane order.  A process closure that raises
    (only a destructive fault can make one) aborts the call. *)

val n_lanes : t -> int

val lane_cycles : t -> lane:int -> int
(** The cycles [lane] ran. *)
