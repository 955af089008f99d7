(** Floorplan→throughput co-optimization at generated-netlist scale.

    The closed methodology loop of the paper — geometry determines
    relay-station counts, relay stations determine loop throughput,
    throughput feeds back into placement — run on {!Wp_topo.Topology}
    netlists (meshes, tori, rings, random graphs up to thousands of
    blocks) instead of the 5-block case study:

    - blocks live on a square grid with ~30% slack cells, so the
      occupied bounding box (the die area) and every channel's Manhattan
      length respond to moves;
    - every move re-derives the touched channels' relay-station counts
      from geometry and pushes only those weights into a
      {!Wp_graph.Cycle_ratio.Incremental} evaluator, whose warm-started
      policy iteration re-solves the throughput bound without rebuilding
      the capacity graph;
    - the search is population-based annealing: [spec.pool] walkers
      (each a deterministic Metropolis chain with its own PRNG and, in
      Pareto mode, its own scalarisation weights) sharded across
      {!Wp_util.Pool} domains, exchanging elites on a ring after every
      round;
    - a digest-keyed evaluation cache shared by all walkers scores any
      repeated placement once — values are pure functions of the
      placement, so the trajectories (and hence the result, byte for
      byte) are independent of the domain count;
    - every evaluation feeds a dominance-filtered Pareto archive over
      (die area, total wirelength, WP1/static throughput bound).

    The returned best point's bound is re-checked against a cold solve
    ({!scratch_bound}) of the freshly derived network before [run]
    returns — exact rational equality, not a tolerance. *)

type point = {
  die_area : float;            (** occupied bounding box, cells *)
  wirelength : float;          (** total Manhattan channel length *)
  wp1_bound : Wp_graph.Cycle_ratio.ratio;  (** MCR clamped at 1/1 *)
  rs_total : int;              (** total relay stations implied *)
  cells : int array;           (** node -> grid cell *)
}

type result = {
  front : point list;
      (** the Pareto front, best throughput first (ties: smaller area,
          then smaller wirelength) *)
  best : point;                (** head of [front] *)
  walkers : int;
  rounds : int;                (** elite-exchange barriers *)
  moves : int;                 (** total annealing proposals *)
  evaluations : int;           (** distinct placements actually scored *)
  cache_hits : int;            (** evaluations served from the cache *)
}

val run : ?jobs:int -> ?spec:Flow_spec.t -> unit -> result
(** Run the scaled flow.  [spec.topology] must be
    {!Flow_spec.Generated}; [spec.budget] total moves are split evenly
    across [spec.pool] walkers; [jobs] (default
    {!Wp_util.Pool.default_jobs}) only sets the domain count — the
    result is byte-identical for any [jobs].
    @raise Invalid_argument on {!Flow_spec.Case_study}.
    @raise Failure if the incremental bound of the winning placement
    disagrees with the from-scratch solve (cannot happen if the
    incremental evaluator is correct; checked unconditionally). *)

val derived_network : Flow_spec.t -> point -> Wp_sim.Network.t
(** The generated netlist with every channel's relay-station count set
    from the point's grid geometry — the concrete configuration the
    point stands for. *)

val scratch_bound : ?capacity:int -> Wp_sim.Network.t -> Wp_graph.Cycle_ratio.ratio
(** From-scratch reference: {!Wp_topo.Topology.mcr}, a cold solve of a
    freshly built capacity-extended graph clamped at 1/1 (capacity
    defaults to 2, matching the flow). *)

val static_rate : ?capacity:int -> Wp_sim.Network.t -> Wp_graph.Cycle_ratio.ratio
(** The balanced-word firing rate of node 0 under the {!Wp_sim.Static}
    engine's schedule — the simulation-side cross-check of
    {!scratch_bound} (equal on strongly connected nets).
    @raise Wp_sim.Static.Unschedulable as {!Wp_sim.Static.schedule}. *)

val front_to_json : spec:Flow_spec.t -> result -> string
(** The [flow_front.json] artifact: spec digest, search counters, best
    point and the full front. *)
