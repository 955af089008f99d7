(** Relay-station placement optimisation (the "Optimal k" Table 1 rows).

    Given a total relay-station budget, search the placements over the
    nine optimisable connections (CU-IC is excluded: its RS count is fixed
    by the fetch-interface length, and the paper never re-places it) for
    the one with the best throughput.  Placements are pre-ranked by the
    static worst-loop bound — cheap to evaluate — and only the best
    candidates are simulated.

    The searches take a {!search} spec record — the same convention as
    {!Run_spec} for simulation runs and [Wp_floorplan.Flow_spec] for the
    co-optimization flow (which projects onto {!search}; the dependency
    points floorplan→core, so the projection lives there). *)

type search = {
  budget : int;               (** total relay stations to place *)
  per_connection_max : int;   (** cap per connection *)
  exclude : Wp_soc.Datapath.connection list;  (** connections pinned at 0 *)
  candidates : int;           (** shortlist size for {!optimal} *)
  seed : int;                 (** PRNG seed for {!anneal_placement} *)
  schedule : Config.t Wp_util.Anneal.schedule;  (** annealing schedule *)
}

val default_search : search
(** budget 9, per-connection max 2, CU-IC excluded, 24 candidates,
    seed 42, the annealer's classic 2000-step schedule. *)

val search_digest : search -> string
(** Stable pipe-joined key over every field (cache/artifact naming). *)

val enumerate :
  budget:int ->
  per_connection_max:int ->
  ?exclude:Wp_soc.Datapath.connection list ->
  unit ->
  Config.t list
(** All configurations with exactly [budget] relay stations in total and
    at most [per_connection_max] per connection; excluded connections stay
    at zero.  This is the search space of {!best_static} and {!optimal}.
    @raise Invalid_argument if the budget or the per-connection max is
    negative, or the budget is unreachable — the message names the
    offending number and, for an unreachable budget, the capacity
    ([connections x per-connection max]) so sweep scripts can report the
    bad knob directly. *)

val best_static :
  budget:int ->
  per_connection_max:int ->
  ?exclude:Wp_soc.Datapath.connection list ->
  unit ->
  Config.t * float
(** The placement maximising the static WP1 bound (ties broken towards
    fewer physical relay stations, then enumeration order) and that
    bound: the head of {!optimal}'s ranking.
    @raise Invalid_argument with {!enumerate}'s message on bad bounds. *)

val optimal :
  search:search ->
  ?map:((Config.t -> float) -> Config.t list -> float list) ->
  objective:(Config.t -> float) ->
  unit ->
  Config.t * float
(** Shortlist the [search.candidates] placements of {!enumerate} with
    the best static WP1 bound (ties broken towards fewer physical relay
    stations, then enumeration order), evaluate [objective] (e.g.
    simulated WP2 throughput) on those, return the winner.

    The shortlist and its order are exactly those of scoring, sorting and
    truncating every placement, but it is found by a depth-first walk in
    enumeration order that prunes: adding relay stations never raises a
    loop's bound nor lowers the channel count, so a partial placement
    whose score does not strictly beat the current [candidates]-th entry
    has no completion in the shortlist, and its subtree is skipped.  Only
    shortlisted placements are built as {!Config.t}.

    [map] (default [List.map]) evaluates the shortlist; pass {!Runner.map}
    to fan the simulations out across cores — the winner is folded in
    shortlist order either way, so the result is independent of [map].
    @raise Invalid_argument with {!enumerate}'s message on bad bounds,
    and when [search.candidates] is not positive (empty shortlist). *)

val anneal_placement :
  search:search ->
  ?objective:(Config.t -> float) ->
  unit ->
  Config.t * float
(** Simulated-annealing alternative for budgets where exhaustive
    enumeration is impractical: moves shift one relay station between
    connections, keeping the total exactly [search.budget]; the PRNG is
    seeded from [search.seed] so equal specs give equal placements.  The
    default objective is the static WP1 bound (cheap); pass a
    simulation-backed objective for final refinement.
    @raise Invalid_argument on a negative budget or per-connection max,
    or an unreachable budget (the message names the numbers, as
    {!enumerate}'s). *)
