(** Seeded, parameterized netlist generator.

    Every experiment before this module ran the paper's one 5-block,
    10-link processor.  This generator produces whole families of
    latency-insensitive netlists — rings, meshes, tori and random
    DAG-with-feedback graphs from a handful up to ~10k blocks — so the
    static scheduler, the batch kernel and the differential batteries
    can be stressed at sizes where the marked-graph theory actually
    bites.

    A {!spec} is a pure value with a stable {!digest}; {!build} is a
    deterministic function of the spec (seeded {!Wp_util.Prng}, no
    global state), so generated networks can participate in
    content-addressed caching and lane grouping exactly like the
    hand-built case study.

    Generator invariants (property-tested in [test_topo]):

    - the network is strongly connected (one SCC), so every shell runs
      at the same sustained rate — the minimum cycle ratio;
    - every channel carries the usual single reset token, hence every
      cycle of the capacity-extended marked graph holds at least one
      token at the default capacity and the net is deadlock-free;
    - [digest] (and the built network) depend only on the spec — the
      same spec builds byte-identical topologies on every run;
    - every instance is statically schedulable at capacity >= 2, and
      {!Wp_graph.Schedule.check} accepts the balanced word.

    Blocks are synthetic IP: each firing consumes one word per input
    port and emits one deterministically mixed word (48-bit masked) per
    output port.  With [adapters = true], a seeded fraction of links is
    widened through a {e space-time adapter} pair: a slice process
    fans the 48-bit word out over [r] narrow lanes (width [48/r]) with
    independently drawn relay-station counts — mismatched widths and
    skews — and a pack process reassembles the original word losslessly
    on the far side. *)

type shape =
  | Ring of int  (** [n >= 2] blocks in a single cycle *)
  | Mesh of int * int
      (** rows x cols grid, right+down links, plus one feedback link
          closing the last block to the first ([rows * cols >= 2]) *)
  | Torus of int * int
      (** rows x cols with wraparound right/down links
          ([rows >= 2 && cols >= 2]) *)
  | Rand of int
      (** [n >= 2] blocks: a backbone path plus feedback, then seeded
          extra forward and feedback links *)

type spec = {
  shape : shape;
  seed : int;  (** drives RS draws, random links and adapter placement *)
  max_rs : int;  (** per-channel relay-station counts drawn from [0, max_rs] *)
  adapters : bool;  (** widen a seeded fraction of links through adapters *)
}

val v : ?seed:int -> ?max_rs:int -> ?adapters:bool -> shape -> spec
(** [seed] defaults to [0], [max_rs] to [2], [adapters] to [false]. *)

val of_string : string -> (spec, string) result
(** Scenario grammar: [ring:N], [mesh:RxC], [torus:RxC], [rand:N],
    each optionally followed by [:seedK], [:rsK] and [:adapt] in any
    order — e.g. ["mesh:8x8"], ["rand:64:seed3:rs4:adapt"].  A shape
    {!build} refuses is an [Error] with {!build}'s message, e.g.
    ["ring needs >= 2 blocks"], so every spec that parses builds. *)

val to_string : spec -> string
(** Canonical grammar round-trip; default fields are omitted, so
    [to_string (v (Ring 16)) = "ring:16"]. *)

val family : spec -> string
(** {!to_string} with the seed masked to [0] — the name seeds of one
    sweep share. *)

val digest : spec -> string
(** Stable content digest (the fully explicit grammar string); equal
    digests build byte-identical networks. *)

val with_seed : spec -> int -> spec
val block_count : spec -> int
(** Blocks before adapter insertion ([n] or [rows * cols]). *)

val build : spec -> Wp_sim.Network.t
(** Materialise the netlist: processes, channels, relay-station counts.
    O(blocks + channels).  @raise Invalid_argument on an out-of-range
    shape (see {!shape}) or more than 100_000 blocks. *)

val mcr : ?capacity:int -> Wp_sim.Network.t -> Wp_graph.Cycle_ratio.ratio
(** {!Wp_sim.Static.mcr}: the minimum cycle ratio of the
    capacity-extended marked graph ({!Wp_sim.Static.capacity_graph}),
    clamped at [1/1] — the sustained-throughput bound every shell of a
    strongly connected instance attains.  [capacity] defaults to 2;
    capacity 0 (unbounded FIFOs) gives the forward-only bound, cost 1
    and time [1 + rs] per channel. *)

val shrink_candidates : spec -> spec Seq.t
(** Simplification candidates for {!Wp_util.Shrink.fixpoint}: smaller
    shapes, simpler families, fewer relay stations, no adapters,
    seed 0.  Aggressive shrinks come first. *)

val to_sexp : spec -> Wp_util.Shrink.Sexp.t
(** For repro files: [(topology "<grammar string>")]. *)
