(** Static throughput analysis of a wire-pipelined SoC.

    The sustainable throughput of a latency-insensitive system is bounded
    by its worst netlist loop: [min over loops m / (m + n)] (paper,
    section 2).  This module computes the bound exactly as a minimum
    cycle-ratio problem over the case-study graph, enumerates the loops,
    and provides a heuristic estimate of the WP2 (oracle) throughput based
    on measured channel utilisations. *)

type loop_report = {
  loop_blocks : string list;     (** block names, in loop order *)
  processes : int;               (** m *)
  stations : int;                (** n, total over the loop's channels *)
  wp1_ratio : Wp_graph.Cycle_ratio.ratio;  (** m/(m+n) *)
}

val wp1_bound : Config.t -> Wp_graph.Cycle_ratio.ratio
(** Worst-loop throughput bound for plain (WP1) wrappers. *)

val wp1_bound_float : Config.t -> float

val static_loops : unit -> (int * Wp_soc.Datapath.connection list) list
(** Every elementary loop of the case-study netlist as [(m, connections)]:
    its process count and one connection per channel on the loop, so a
    connection whose two channels both lie on it appears twice.  The
    topology is fixed, so the loops are enumerated once; {!wp1_bound} is
    a scan over them. *)

val critical_loop : Config.t -> loop_report
(** The loop achieving {!wp1_bound}. *)

val all_loops : Config.t -> loop_report list
(** Every elementary loop of the case-study netlist with its m, n and
    bound, sorted worst-first.  (The 5-block graph has few loops; this is
    the table the methodology reasons over.) *)

type utilization = node:string -> port:string -> float
(** Fraction of a block's firings that require an input port; measured by
    {!Wp_sim.Monitor} on an oracle-mode profiling run. *)

val wp2_estimate : Config.t -> utilization:utilization -> float
(** Heuristic oracle-mode throughput estimate:
    [min over loops m / (m + sum_e rs_e * u_e)], where [u_e] is the
    consumer-port utilisation of edge [e] — relay stations on a channel
    that is rarely required rarely bind the loop.  This is a first-order
    estimate, not a bound; the ablation bench quantifies its error
    against simulation. *)

val utilization_of_report : Wp_sim.Monitor.report -> utilization
(** Adapt a monitor report; unknown ports default to 1.0. *)
