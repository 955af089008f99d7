(** Lawler's parametric search for the minimum / maximum cycle ratio.

    Binary search on [lambda] over Bellman-Ford negative-cycle tests
    of the weights [cost - lambda * time]; the result is the exact
    ratio of the last witnessing cycle.  An oracle for
    {!Wp_graph.Cycle_ratio.minimum}, sharing no code with its policy
    iteration.  Preconditions as there: [time >= 0], every cycle of
    positive total time. *)

val minimum :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  (Cycle_ratio.ratio * Digraph.edge list) option
(** [None] when the graph is acyclic; the returned cycle achieves the
    ratio. *)

val maximum :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  (Cycle_ratio.ratio * Digraph.edge list) option
