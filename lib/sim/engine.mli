(** Cycle-accurate execution of a network under a wrapper mode.

    Each simulated clock cycle proceeds in three phases:

    + back-pressure: for every channel, the consumer FIFO's stop is
      propagated backwards through the relay chain (a relay station
      forwards the stop only when both of its registers are full);
    + firing: every shell whose required inputs are buffered and whose
      output channels all accept either fires the enclosed process or
      emits tau;
    + movement: relay stations shift by one stage and tokens arriving at
      consumer FIFOs are latched.

    At reset every channel holds exactly one initial token — the reset
    value of the producer's output register — which gives the golden
    (zero-relay-station) system a throughput of 1.0 and RS-extended loops
    the paper's [m/(m+n)] behaviour. *)

type t

type outcome =
  | Halted of int      (** a process reached its terminal state at this cycle count *)
  | Deadlocked of int  (** no firing for a full quiescence window *)
  | Exhausted of int   (** max_cycles reached *)
  | Cancelled of int
      (** the run's {!Wp_util.Cancel} token fired (deadline expired or
          client abandoned); the engine stopped cooperatively at this
          cycle count, state intact *)

val create :
  ?capacity:int ->
  ?record_traces:bool ->
  ?fault:Fault.spec ->
  ?telemetry:Telemetry.spec ->
  mode:Wp_lis.Shell.mode ->
  Network.t ->
  t
(** Instantiate shells and relay chains.  [capacity] is each shell FIFO's
    bound (default 2; 0 = unbounded).  [fault] perturbs delivery and
    backpressure as described in {!Fault} (default: no faults).
    [telemetry] (default {!Telemetry.off}) enables cycle-accurate stall
    attribution and channel telemetry; when off, no runtime is allocated
    and stepping costs one branch per phase.
    @raise Invalid_argument if the network fails {!Network.validate} or
    the fault spec fails {!Fault.validate}. *)

val step : t -> unit
(** Advance one clock cycle. *)

val run : ?cancel:Wp_util.Cancel.t -> ?max_cycles:int -> t -> outcome
(** Step until a process halts, a deadlock is detected, or [max_cycles]
    (default 1_000_000) elapses.  [cancel] (default
    {!Wp_util.Cancel.never}) is polled every {!cancel_interval} cycles;
    when it fires the run stops with [Cancelled] instead of burning the
    rest of its budget. *)

val cancel_interval : int
(** Cycles between cancellation polls (shared by every engine): coarse
    enough that the uncancellable path pays one integer test per cycle,
    fine enough that an expired deadline stops the run within
    microseconds. *)

val cycles : t -> int
val mode : t -> Wp_lis.Shell.mode
val network : t -> Network.t

val shell : t -> Network.node -> Wp_lis.Shell.t
(** Access a shell for stats and traces. *)

val delivered : t -> Network.channel -> int
(** Valid tokens delivered end-to-end on a channel so far. *)

val fault_injections : t -> int
(** Destructive fault events actually performed so far ({!Fault.injections});
    0 when no fault spec was given. *)

val link_summary : t -> Link.summary option
(** Aggregate link-layer statistics; [None] when nothing is protected. *)

val telemetry_report : t -> Telemetry.report option
(** Stall-attribution summary and event trace collected so far; [None]
    when the engine was created with {!Telemetry.off}.  Link recovery
    counters are folded into the summary when channels are protected. *)
