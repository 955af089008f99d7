(** Minimum cycle ratio.

    For edge attributes [cost] and [time] (integers, [time >= 0], every
    cycle having positive total time), the minimum cycle ratio is

      min over elementary cycles C of  (sum cost) / (sum time).

    This is the quantity behind the paper's sustainable-throughput bound:
    with [cost e = 1] and [time e = 1 + relay_stations e], the minimum over
    loops of [m / (m + n)] is exactly the minimum cycle ratio.

    One solver computes it: Howard's policy iteration, in the stateful
    form {!Incremental}.  A cold solve ({!minimum}) is
    {!Incremental.create} then {!Incremental.solve}.  The result is an
    exact rational certified by the witnessing cycle; the test suite
    checks it against independent oracles (Lawler's parametric search,
    Karp's cycle mean, brute-force enumeration). *)

type ratio = {
  num : int;
  den : int;  (** always > 0; the fraction is in lowest terms *)
}

val ratio_to_float : ratio -> float
val ratio_compare : ratio -> ratio -> int
val ratio_pp : Format.formatter -> ratio -> unit

val make_ratio : int -> int -> ratio
(** Normalises sign and reduces. @raise Invalid_argument when the
    denominator is 0. *)

val minimum :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  (ratio * Digraph.edge list) option
(** [None] when the graph is acyclic.  The returned cycle achieves the
    ratio.  @raise Invalid_argument if some [time] is negative or some cycle
    has zero total time.  @raise Failure if policy iteration does not
    converge within [vertices * edges + 16] improvement sweeps (it always
    should; the cap turns a defect into an error instead of a hang or an
    unproven ratio). *)

val throughput_bound : (ratio * Digraph.edge list) option -> ratio * Digraph.edge list
(** The sustainable-throughput bound of a marked graph from its
    minimum-cycle-ratio result: the ratio clamped at [1/1] (a shell
    fires at most once per cycle) with its critical cycle, or [1/1] and
    no cycle when the graph is acyclic.  Used as
    [throughput_bound (minimum g ~cost ~time)] for a cold solve and
    [throughput_bound (Incremental.solve t)] for a warm one. *)

val cycle_ratio :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  Digraph.edge list ->
  ratio
(** Ratio of one given cycle. *)

(** Howard's policy iteration over a fixed topology with mutable edge
    weights.

    Built for the floorplan→throughput co-optimization loop: moving a
    block only changes the weights of the channels incident to it, so
    the solver keeps its policy-iteration state (the chosen out-edge per
    vertex, plus the SCC decomposition, which depends only on the
    never-changing topology) alive across perturbations and warm-starts
    the next solve from the previous optimal policy.  On local
    perturbations the warm policy typically needs zero or one
    improvement sweeps, versus a full cold policy iteration plus graph
    reconstruction for a from-scratch solve.

    Cost: {!Incremental.create} copies each edge's endpoints and weights
    into flat arrays once.  One sweep is then an O(V + E) pass over
    them that allocates nothing: evaluation follows the policy on a
    preallocated stack instead of recursing, so a policy path as long
    as the graph is fine, and improvement is a loop over edge ids.  The
    critical cycle is rebuilt once per solve, from the vertex that
    closed it.

    The result of {!Incremental.solve} is always the exact optimum —
    the same ratio a cold {!minimum} finds on the same weights (the test
    suite checks every step of random perturbation sequences against
    Lawler's search); only the work to reach it is amortised. *)
module Incremental : sig
  type t

  val create :
    Digraph.t ->
    cost:(Digraph.edge -> int) ->
    time:(Digraph.edge -> int) ->
    t
  (** Snapshot the weights and precompute the SCC decomposition and an
      initial proper policy.  The graph topology must not change after
      this call (weights change through {!set_cost}/{!set_time}).
      @raise Invalid_argument if some [time] is negative. *)

  val set_cost : t -> Digraph.edge -> int -> unit
  val set_time : t -> Digraph.edge -> int -> unit
  (** Perturb one edge's weight; O(1), marks the state dirty.  As with
      {!minimum}, every cycle must keep positive total time — this is
      the caller's invariant (relay-station weights are always >= 1
      on forward edges). @raise Invalid_argument on negative time. *)

  val cost : t -> Digraph.edge -> int
  val time : t -> Digraph.edge -> int

  val solve : t -> (ratio * Digraph.edge list) option
  (** Exact minimum cycle ratio under the current weights, [None] when
      the graph is acyclic.  Returns the memoised result in O(1) when no
      weight changed since the last solve; otherwise runs policy
      improvement warm-started from the previous optimal policy.
      @raise Failure as {!minimum} if policy iteration does not
      converge. *)

  val solves : t -> int
  (** Number of actual policy-iteration runs (i.e. cache misses) so far
      — observability for the evaluation-cache benchmarks. *)
end
