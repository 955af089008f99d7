(** Static periodic schedules from balanced binary firing words.

    Millo & de Simone show that a strongly connected marked graph
    running at its minimum cycle ratio [num/den] admits a periodic
    schedule in which every actor fires along a {e balanced binary
    word}: a 0/1 word of length [den] containing exactly [num] ones,
    mechanical in the Sturmian sense — actor [v]'s cumulative firing
    count after [t] cycles is

      [cum_v t = max 0 (floor ((t * num + offset_v) / den))].

    This module turns the critical-cycle analysis of {!Cycle_ratio}
    into that schedule: the rate is {!Cycle_ratio.throughput_bound},
    the exact minimum cycle ratio clamped at [1/1] (an actor cannot
    fire more than once per cycle), the per-vertex phase offsets come
    from the
    difference-constraint system

      [offset_dst - offset_src <= tokens e * den - time e * num]

    (one inequality per edge; solvable by Bellman-Ford, with no
    negative cycle precisely because [num/den] is the {e minimum}
    ratio), and the word is the first period of the cumulative
    staircase.  The schedule is valid from cycle 0: the [max 0] clamp
    only delays firings, which can never consume a token early.

    Edge attributes follow the conventions of {!Cycle_ratio}:
    [tokens e] is the initial marking of edge [e] (cost) and [time e]
    its latency in cycles, [time >= 0] with every cycle's total time
    positive. *)

type t = {
  rate : Cycle_ratio.ratio;  (** firings per cycle, in lowest terms *)
  period : int;  (** word length = [rate.den] *)
  offsets : int array;
      (** per-vertex phase [offset_v], normalised so that
          [max_v offset_v = period - 1] (hence every cumulative count
          starts at 0). *)
  words : bool array array;
      (** per-vertex steady-state firing word, length [period], with
          exactly [rate.num] ones each *)
  critical : Digraph.edge list;
      (** a cycle achieving the minimum ratio (empty only when the
          graph is acyclic) *)
}

val build :
  Digraph.t ->
  tokens:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  t
(** Compute the schedule.  An acyclic graph gets rate [1/1] (every
    actor fires every cycle once its inputs have filled).
    @raise Invalid_argument on a negative token count, or on the
    conditions of {!Cycle_ratio.minimum} (negative time, zero-time
    cycle). *)

val firings_before : t -> Digraph.vertex -> int -> int
(** [firings_before t v n] is the number of firings of [v] scheduled
    at cycles [0 .. n-1] — the clamped cumulative staircase. *)

val fires_at : t -> Digraph.vertex -> int -> bool
(** Whether [v] fires at cycle [n] ([>= 0]).  Agrees with [words]
    after the start-up transient and is [false] while the clamp
    holds the vertex back. *)

val word_rate : t -> Digraph.vertex -> Cycle_ratio.ratio
(** Ones-per-period of one vertex's word, in lowest terms — always
    equal to [t.rate]; exposed so tests can assert exactly that. *)

val is_balanced : bool array -> bool
(** Cyclic balance: for every window length, the number of ones in any
    two windows of that length (taken cyclically) differs by at most
    one.  Mechanical words are balanced; the property tests lean on
    this as the structural half of validity. *)

val check :
  Digraph.t ->
  tokens:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  t ->
  (unit, string) result
(** Validity proof for a schedule: word shapes and one-counts match
    the rate, every word is balanced and is exactly the mechanical
    word of its offset, every edge's difference constraint holds, and
    a direct token-count simulation over the transient plus two full
    periods never drives any edge's marking negative.  Any mutation of
    a word, offset, rate or period is rejected with a reason. *)

val render : Digraph.t -> t -> string
(** Deterministic multi-line rendering (rate, period, critical cycle,
    then one line per vertex with offset and word) for golden tests
    and the CLI. *)
