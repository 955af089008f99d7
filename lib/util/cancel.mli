(** Cooperative cancellation tokens.

    A token is an atomic flag plus an optional absolute wall-clock
    deadline.  The party that created the token may {!cancel} it at any
    time from any thread or domain; the party doing the work polls
    {!cancelled} at a coarse cadence (the simulation kernels check every
    few hundred cycles) and winds down promptly instead of burning a
    worker domain on a request nobody is waiting for.

    Cancellation is {e cooperative}: nothing is interrupted
    asynchronously, so kernel state is never torn mid-cycle, and a
    cancelled run stops at a cycle boundary with the results it had.

    The deadline is wall-clock ([Unix.gettimeofday]) because it models a
    client-side latency budget, not simulated cycles. *)

type t

exception Cancelled of string
(** Raised by {!check} (and by layers above the kernels, e.g.
    [Wp_core.Experiment]) when a run observes its token cancelled.  The
    payload is a human-readable reason ("deadline exceeded after 1234
    cycles (sort, CU-AL=1)"). *)

val never : t
(** The shared token that is never cancelled.  {!cancel} on it is a
    no-op; every [?cancel] argument in the simulation stack defaults to
    it, making the uncancellable path allocation- and syscall-free. *)

val create : ?deadline_ms:int -> unit -> t
(** Fresh token; with [deadline_ms] it auto-cancels once that many
    wall-clock milliseconds have elapsed from the call. *)

val cancel : t -> unit
(** Flip the flag (idempotent, thread-safe).  No-op on {!never}. *)

val is_never : t -> bool

val cancelled : t -> bool
(** Flag set, or deadline passed.  Reads the clock only when the token
    actually carries a deadline. *)

val check : ?what:string -> t -> unit
(** @raise Cancelled when {!cancelled}. *)
