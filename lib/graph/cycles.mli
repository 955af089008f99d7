(** Enumeration of elementary cycles (Johnson's algorithm).

    Cycles are returned as edge lists in traversal order; parallel edges give
    rise to distinct cycles, as required for netlists with several channels
    between the same pair of blocks.  Each cycle starts from its smallest
    vertex, so the enumeration contains no rotated duplicates. *)

val elementary_cycles : ?max_cycles:int -> Digraph.t -> Digraph.edge list list
(** All elementary cycles (including self-loops).  [max_cycles] (default
    [1_000_000]) bounds the enumeration as a safety valve; reaching the bound
    raises [Failure]. *)

val is_elementary_cycle : Digraph.t -> Digraph.edge list -> bool
(** Checks that the edge list is a closed walk visiting distinct vertices. *)
