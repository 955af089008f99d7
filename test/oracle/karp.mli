(** Karp's maximum cycle mean.

    The maximum over elementary cycles of (total weight / number of edges),
    computed per strongly connected component with Karp's O(V*E) dynamic
    program.  The classic companion to the cycle-ratio search; also the
    special case [time = 1] of {!Lawler.maximum}. *)

val maximum_cycle_mean : Digraph.t -> weight:(Digraph.edge -> float) -> float option
(** [None] when the graph is acyclic. *)

val minimum_cycle_mean : Digraph.t -> weight:(Digraph.edge -> float) -> float option
