(** Post-run reporting: per-node and per-channel statistics. *)

type node_report = {
  node_name : string;
  firings : int;
  stalls : int;
  input_starved : int;
  output_blocked : int;
  port_utilization : (string * float) array;
      (** per input port: fraction of firings that required the port (1.0
          everywhere under plain wrappers) *)
  port_dropped : (string * int) array;
      (** per input port: tokens discarded by the oracle rule *)
}

type channel_report = {
  channel_label : string;
  relay_stations : int;
  delivered : int;       (** valid tokens that reached the consumer *)
  channel_throughput : float;  (** delivered per cycle *)
}

type report = {
  cycles : int;
  nodes : node_report list;
  channels : channel_report list;
}

val collect_sim : Sim.t -> report
(** Engine-agnostic collection; works with every kernel {!Sim} routes
    to. *)

val collect : Engine.t -> report
(** [collect e] is [collect_sim (Sim.of_engine e)]. *)

val node_throughput : report -> string -> float
(** Firings per cycle of the named node.  @raise Not_found. *)

val utilization : report -> node:string -> port:string -> float
(** Required fraction for one input port.  @raise Not_found. *)

val to_table : report -> string
(** Rendered summary (one table for nodes, one for channels). *)
