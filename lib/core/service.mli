(** Multi-tenant experiment daemon: the engine behind [wp_cli serve].

    One long-lived process owns a {!Runner} (worker-domain pool, warm
    in-memory cache, optional WPCACHE2 disk cache) and serves {!Wire}
    requests over a Unix-domain stream socket, so repeated sweeps from
    short-lived clients stop paying process start-up, netlist
    compilation and cache-warming for every invocation.

    Concurrency model — four kinds of threads over one runner:

    - an {b accept} thread registers clients and spawns one {b reader}
      and one {b writer} thread per connection;
    - each reader parses frames with bounded waits ({!Wp_util.Frame.read_timed}):
      an idle, quiescent connection is reaped after [idle_timeout], a
      peer trickling bytes mid-frame is dropped after [stall_timeout].
      [Run] requests are admitted (or shed, see below) onto the client's
      {e bounded} work queue; [Ping]/[Stats] are answered inline;
    - each writer drains the client's {e bounded} reply queue with
      {!Wp_util.Frame.write_timed}: a client that stops reading either
      fills its reply queue or times out a write — both disconnect it
      (the slow-loris defense; counted in [slow_disconnects]);
    - one {b dispatcher} thread repeatedly drains a fair batch (round
      robin: at most one request per client per round, oldest clients
      first) and hands it to {!Runner.experiments_batch_spec}, which
      serves cache hits, abandons requests at their deadline
      ([Deadline_exceeded]), and runs every other request as one task
      of the runner's pool through the guarded retry machinery, which
      quarantines poisoned requests.

    Fault boundary:

    - {b deadlines}: a [Run] carrying [rq_deadline_ms] gets a
      cancellation token whose clock starts at arrival; queueing and
      compute past the deadline answer [Deadline_exceeded] and the
      simulations abandon the work cooperatively.  A client
      disconnect cancels all its queued and in-flight tokens;
    - {b load shedding}: when the total queued backlog reaches
      [shed_limit] (priority 1; priority 0 sheds at half that, 2+ only
      at the per-client bound), or the per-client queue is full, the
      request is refused with [Busy {retry_after_ms}] — a jittered,
      seeded backoff hint;
    - {b circuit breaker}: [breaker_threshold] consecutive quarantine
      outcomes for one (machine, config) key open that key's breaker for
      [breaker_cooldown] seconds; matching requests shed with [Busy]
      instead of burning bounded retries on a poisoned key.  Half-open
      after cooldown: one success closes, one failure re-trips. *)

type t

type counters = {
  shed : int;             (** requests refused with [Busy] *)
  breaker_trips : int;    (** closed→open breaker transitions *)
  slow_disconnects : int; (** clients dropped for not reading replies *)
}

val create :
  ?queue_bound:int ->
  ?batch_max:int ->
  ?paused:bool ->
  ?reply_bound:int ->
  ?idle_timeout:float ->
  ?stall_timeout:float ->
  ?write_timeout:float ->
  ?shed_limit:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?shed_seed:int ->
  runner:Runner.t ->
  string ->
  t
(** [create ~runner path] binds [path] (an existing socket file is
    replaced), starts the accept and dispatcher threads and returns.

    [queue_bound] (default 32) is the per-client pending-request cap
    beyond which requests get [Busy]; [batch_max] (default 64) caps
    the requests drained per dispatch round.  [paused] (default false)
    starts the dispatcher idle — requests still enqueue (and overflow to
    [Busy]), nothing is simulated until {!resume}; this makes the
    backpressure path deterministic to test.

    Robustness knobs: [reply_bound] (default 128) caps the per-client
    reply queue; [idle_timeout] (default 300s) reaps connections that
    are idle {e and} quiescent; [stall_timeout] (default 10s) bounds the
    wait for the rest of a started frame; [write_timeout] (default 10s)
    bounds each write chunk to a non-reading client; [shed_limit]
    (default 256) is the total-backlog shed threshold;
    [breaker_threshold] (default 5) and [breaker_cooldown] (default 1s)
    parameterise the per-key circuit breaker; [shed_seed] seeds the
    retry-after jitter. *)

val pause : t -> unit
val resume : t -> unit

val socket_path : t -> string

val served : t -> int
(** Run requests answered so far (any reply kind except [Busy]). *)

val counters : t -> counters
(** Fault-boundary counters since {!create} (also carried, merged with
    the runner's, in every [Stats_reply]). *)

val stop : t -> unit
(** Stop accepting, disconnect clients (cancelling their in-flight
    work), join all service threads and unlink the socket.  The runner
    is NOT shut down — it belongs to the caller.  Idempotent. *)

(** Client side of the protocol, shared by [wp_cli client], the
    saturation bench and the tests. *)
module Client : sig
  type conn

  val connect : string -> conn
  (** Connect to a daemon's socket path. *)

  val send : conn -> tag:int -> Wire.request -> unit
  (** Fire one request without waiting — the pipelining primitive. *)

  val recv : conn -> (int * Wire.reply) option
  (** Next reply frame ([None] on clean daemon close).
      @raise Failure on an undecodable reply. *)

  val call : conn -> tag:int -> Wire.request -> Wire.reply
  (** {!send} then block for the reply with the matching tag; replies
      for other tags arriving first are buffered for later {!recv}ing.
      @raise Failure if the daemon closes before replying. *)

  val close : conn -> unit
end
