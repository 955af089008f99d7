(** Minimum cycle ratio by brute force over
    {!Wp_graph.Cycles.elementary_cycles}: exponential in the worst
    case, exact always. *)

val minimum :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  (Cycle_ratio.ratio * Digraph.edge list) option
(** [None] when the graph is acyclic. *)
