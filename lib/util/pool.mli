(** A small fixed-size worker pool over [Domain] (OCaml 5), used to fan
    embarrassingly parallel simulation batches across cores.

    Design points:
    - [jobs] workers total: [jobs - 1] spawned domains plus the submitting
      thread, which participates in draining the task queue during {!map}.
      With [jobs = 1] no domain is ever spawned and {!map} degenerates to
      [List.map] — the sequential fallback is the identity baseline that
      parallel runs are checked against.
    - Work stealing is implicit: tasks live in one shared queue and idle
      workers take the next index regardless of submission order, so
      uneven task durations (an "Optimal 2" search row next to an
      "All 0" row) still load-balance.
    - Determinism: results are written into a slot per input index, so the
      output list order equals the input order no matter which worker ran
      which task.  For pure task functions the result is byte-identical to
      the sequential run.
    - Exceptions: once the batch has drained, the exception of the
      lowest-index task that raised is re-raised (with its backtrace) in
      the caller, whichever task failed first, so the error does not
      depend on the job count; the pool itself stays usable. *)

type t

val default_jobs : unit -> int
(** The pool size used when [create] gets no [~jobs]: the [WIREPIPE_JOBS]
    environment variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  Clamped to [1, 128]. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] workers (default {!default_jobs}; values < 1
    are clamped to 1). *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  Tasks must not themselves call {!map}
    on the same pool from a worker (the submitting thread may: nested
    batches drain correctly but share the pool's workers). *)

val iteri : t -> (int -> 'a -> unit) -> 'a list -> unit
(** Parallel indexed iteration; same scheduling and exception contract as
    {!map}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool must not be
    used afterwards (except for repeated [shutdown]). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)
