(** Binary wire protocol for the [wp_cli serve] daemon.

    Every message travels as one {!Wp_util.Frame} (4-byte big-endian
    length prefix) whose payload starts with a 32-bit client-chosen tag.
    The tag is echoed verbatim in the reply, so a client may pipeline
    requests and match replies out of order — which is exactly how the
    daemon's busy-backpressure works: a [Busy] reply for an over-quota
    request overtakes the results still being computed.

    Requests carry the {e textual} forms of every run parameter (the
    same grammars the CLI accepts: {!Wp_soc.Programs.of_string},
    {!Wp_soc.Datapath.machine_of_name}, {!Config.of_string},
    {!Run_spec.of_args}); the daemon parses and validates them and
    answers a malformed request with [Error] instead of dying.  Replies
    carry a compact record summary, not the full marshalled record —
    the daemon's disk cache already persists those. *)

type run_args = {
  rq_program : string;  (** e.g. ["sort:16"] — {!Wp_soc.Programs.of_string} *)
  rq_machine : string;  (** e.g. ["pipelined"] *)
  rq_config : string;   (** e.g. ["CU-AL=1,DC-RF=2"] or ["none"] *)
  rq_engine : string option;
      (** ["fast"] / ["ref"]; anything else, ["static"] included, is an
          [Error] reply ({!Run_spec.of_args}) *)
  rq_capacity : int;
  rq_max_cycles : int option;
  rq_fault : string option;       (** {!Wp_sim.Fault.of_string} clause list *)
  rq_fault_seed : int;
  rq_protect : string option;     (** {!Protect.of_string} policy *)
  rq_link_window : int;
  rq_link_timeout : int;
  rq_stall_report : bool;
  rq_trace_depth : int;
  rq_deadline_ms : int option;
      (** wall-clock budget for the whole request, measured from the
          moment the daemon parses it (queueing included); [None] = no
          bound *)
  rq_priority : int;
      (** 0 = best-effort (shed first under load), 1 = normal (default),
          2+ = critical (shed last) *)
}

val run_defaults : program:string -> machine:string -> config:string -> run_args
(** A [Run] request with every spec knob at its CLI default. *)

type request =
  | Run of run_args
  | Ping
  | Stats

type summary = {
  rs_program : string;
  rs_machine : string;
  rs_config : string;           (** {!Config.describe} form *)
  rs_golden_cycles : int;
  rs_wp1_cycles : int;
  rs_wp2_cycles : int;
  rs_th_wp1 : float;
  rs_th_wp2 : float;
  rs_gain_percent : float;
  rs_from_cache : bool;
}

type reply =
  | Result of summary
  | Busy of { retry_after_ms : int }
      (** load-shed: the daemon declined to queue the request.
          [retry_after_ms] is a jittered backoff hint — retrying sooner
          just earns another [Busy] *)
  | Error of string             (** malformed or unparseable request *)
  | Quarantined of { attempts : int; last_error : string; repro : string }
      (** the guarded runner exhausted its retries on this request *)
  | Pong
  | Stats_reply of {
      st_jobs : int;
      st_tasks_run : int;
      st_cache_hits : int;
      st_cache_misses : int;
      st_quarantined : int;
      st_expired : int;          (** requests abandoned at their deadline *)
      st_shed : int;             (** requests refused with [Busy] *)
      st_breaker_trips : int;    (** circuit-breaker open transitions *)
      st_slow_disconnects : int; (** clients dropped for not reading *)
      st_stale_reaped : int;     (** dead writers' temp files swept *)
      st_cache_corrupt : int;    (** disk entries quarantined *)
    }
  | Deadline_exceeded of string
      (** the request's [rq_deadline_ms] elapsed before (or while) it
          ran; the payload says where it stopped.  Final — the run was
          abandoned, not queued *)

val encode_request : tag:int -> request -> string
val decode_request : string -> (int * request, string) result
(** [decode_request payload] returns [(tag, request)]; a truncated or
    unknown-typed payload is an [Error] (the daemon replies [Error] with
    tag 0 if even the tag is unreadable). *)

val encode_reply : tag:int -> reply -> string
val decode_reply : string -> (int * reply, string) result

val parse_run : run_args -> (Runner.request, string) result
(** Resolve a [Run] request's strings into a runnable
    {!Runner.request}: program, machine and config through their
    library parsers, the spec knobs through {!Run_spec.of_args}.  The
    first failing field wins.  When [rq_deadline_ms] is set, the
    returned request carries a live {!Wp_util.Cancel} token whose clock
    starts {e now} — parse at arrival, so daemon queueing time counts
    against the client's budget. *)

val summary_of_record : from_cache:bool -> Experiment.record -> summary
