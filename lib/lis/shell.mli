(** Wrappers (shells) that make a process latency-insensitive.

    A shell buffers tau-filtered input tokens in per-port FIFOs and fires
    the enclosed process according to its mode:

    - {b Plain} (the paper's WP1, Carloni's patient process): fire only
      when {e every} input port holds the token of the current tag.
    - {b Oracle} (the paper's WP2): fire as soon as the ports named by the
      process oracle hold their tokens; tokens of the current tag on the
      other ports are discarded — immediately if already buffered, or on
      arrival via a pending-discard counter (the "old tag" rule that keeps
      the system synchronised and provably equivalent).

    Firing decisions also depend on downstream back-pressure, which the
    engine checks separately; the shell itself exposes [input_stop] so that
    upstream relay chains can hold data when a FIFO is full.

    Tag bookkeeping uses only counters and the validity bit, never explicit
    tags on the wires — the simplification the paper describes. *)

type mode =
  | Plain
  | Oracle

type stats = {
  firings : int;      (** process activations *)
  stalls : int;       (** cycles spent emitting tau *)
  input_starved : int;(** stalls caused by a missing required token *)
  output_blocked : int;(** stalls caused by downstream back-pressure only *)
  required_counts : int array;
      (** per input port: firings that actually required the port *)
  dropped : int array; (** per input port: tokens discarded by the oracle rule *)
}

type t

val create : ?capacity:int -> ?record_traces:bool -> mode:mode -> Process.t -> t
(** [capacity] (default 2) bounds each input FIFO; [0] means unbounded (the
    theoretical semi-infinite wrapper).  Fresh process state is created.
    @raise Invalid_argument if [capacity < 0]. *)

val process : t -> Process.t
val mode : t -> mode
val name : t -> string

val input_stop : t -> int -> bool
(** Back-pressure on an input port, from start-of-cycle occupancy. *)

val ready : t -> bool
(** All tokens needed for the next firing are buffered. *)

val oracle_ready : t -> bool
(** Whether an {e Oracle}-mode shell in the same state would be ready:
    every port named by the process oracle for the next firing holds a
    token.  Pure (the oracle query does not advance process state), so
    it is safe to consult on a Plain shell — telemetry uses it to
    attribute a WP1 stall to the oracle-skip class. *)

val fire : t -> int Token.t array
(** Consume inputs per the mode, run the process, return the valid output
    tokens.  Must only be called when [ready] and when the engine has
    established that every output channel accepts.  The process is handed
    the shell's one input array, rewritten at every firing ([None] on
    each port the oracle skips).
    @raise Invalid_argument when not [ready]. *)

val stall : t -> reason:[ `Input | `Output ] -> int Token.t array
(** Record a stalled cycle and return tau on every output.  The array is
    the shell's own, allocated once and returned by every call: read it,
    never mutate it. *)

val accept : t -> port:int -> int Token.t -> unit
(** Token arriving on an input port at the end of the cycle.  Voids are
    ignored.  @raise Failure if a valid token arrives while the port FIFO
    is full (stop protocol violated). *)

val halted : t -> bool

val stats : t -> stats

val output_trace : t -> int -> int Trace.t
(** Recorded emissions on an output port, oldest first; empty unless
    [record_traces] was set. *)

val buffered : t -> int -> int
(** Tokens currently queued on an input port (diagnostics). *)
