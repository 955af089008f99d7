(** End-to-end equivalence checking of a wire-pipelined run against the
    golden system — the paper's formal claim, made executable.

    Both systems are simulated with trace recording; for every block and
    every output port, the tau-filtered token stream of the WP system must
    be prefix-compatible with the golden stream (the shorter is a prefix
    of the longer).  This is exactly N-equivalence for N = the shorter
    stream's length, on {e all} signals at once.

    Fault injection sharpens the claim into a theorem with a converse:
    a benign fault spec (stalls only — see {!Wp_sim.Fault.benign}) must
    leave the verdict equivalent, while destructive faults (token drop,
    duplication, corruption, spurious injection) must flip it.  To catch
    drops that leave a clean prefix and then wedge the machine, the
    verdict also demands that the WP system halts whenever the golden
    system does.

    Both runs go through {!Wp_sim.Sim.create}, so under the [fast]
    engine the golden run and every unfaulted, unprotected,
    uninstrumented WP run replay ({!Wp_sim.Static}), and the rest step
    the handshake; [--engine ref] holds the verdict against the
    reference interpreter. *)

type verdict = {
  equivalent : bool;
  ports_checked : int;
  events_compared : int;  (** total informative events on the shorter sides *)
  first_mismatch : string option;
      (** "BLOCK.port" whose tau-filtered streams diverge at the earliest
          informative index; for a clean-prefix deadlock, the port with
          the largest informative-event shortfall. *)
  golden_outcome : Wp_sim.Engine.outcome;
  wp_outcome : Wp_sim.Engine.outcome;
  recovery : Wp_sim.Link.summary option;
      (** link-layer recovery statistics of the WP run (retransmissions,
          CRC detections, recovery latency); [None] when no channel is
          protected.  The {e recovery verdict} of a protected faulted run
          is [equivalent = true] together with a summary showing the
          faults were absorbed ([retransmissions]/[recoveries] > 0). *)
}

val check_spec :
  spec:Run_spec.t ->
  machine:Wp_soc.Datapath.machine ->
  mode:Wp_lis.Shell.mode ->
  config:Config.t ->
  Wp_soc.Program.t ->
  verdict
(** Check one WP run, described by [spec], against the golden reference.
    The spec's engine, capacity and cycle budget apply to {e both}
    traced runs; its fault, protection and telemetry fields apply to the
    WP run only (the golden reference is always the clean raw system).
    With protection, bounded drop/dup/corrupt faults on protected
    connections must leave the verdict equivalent, and the [recovery]
    field reports how the link layer absorbed them. *)


val check_n_equivalence_spec :
  spec:Run_spec.t ->
  n:int ->
  machine:Wp_soc.Datapath.machine ->
  mode:Wp_lis.Shell.mode ->
  config:Config.t ->
  Wp_soc.Program.t ->
  bool
(** The paper's N-equivalence on every port: both runs must produce at
    least [n] informative events per port and agree on the first [n].
    Ports that never carry [n] events in either run are skipped.  Spec
    fields split between the runs as in {!check_spec}. *)

