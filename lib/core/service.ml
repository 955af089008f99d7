(* Multi-tenant serve daemon.  See service.mli for the threading model.

   Locking: [t.mutex] guards the client table, every per-client work
   queue and in-flight list, the breaker table, the shed RNG and the
   counters; [client.rmutex] guards the client's reply queue and
   [closed] flag.  The lock order is [t.mutex] strictly before any
   [rmutex]; no thread takes them the other way around (in particular,
   [post_reply] releases [rmutex] before a disconnect takes [t.mutex]).

   Fd ownership: the reader and writer threads share the client fd;
   [drop_client] only ever shuts the fd down (which wakes both), and the
   reader — last out, after joining the writer — closes it.  No thread
   can touch a recycled descriptor number. *)

module Frame = Wp_util.Frame
module Cancel = Wp_util.Cancel

type client = {
  id : int;
  fd : Unix.file_descr;
  rmutex : Mutex.t;
  rcond : Condition.t;
  replies : (int * Wire.reply) Queue.t;  (* under rmutex *)
  queue : (int * Runner.request) Queue.t;  (* under t.mutex *)
  mutable inflight : Runner.request list;  (* under t.mutex *)
  mutable closed : bool;  (* under rmutex *)
  mutable writer : Thread.t option;
}

(* Per-(machine, config) circuit breaker: [fails] quarantine outcomes in
   a row open it for [breaker_cooldown] seconds, during which matching
   requests are refused with [Busy] instead of burning retry budgets on
   a key that is currently poisoned. *)
type breaker = { mutable fails : int; mutable open_until : float }

type counters = {
  shed : int;
  breaker_trips : int;
  slow_disconnects : int;
}

type t = {
  runner : Runner.t;
  sock : Unix.file_descr;
  path : string;
  queue_bound : int;
  reply_bound : int;
  batch_max : int;
  idle_timeout : float;
  stall_timeout : float;
  write_timeout : float;
  shed_limit : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  mutex : Mutex.t;
  cond : Condition.t;
  clients : (int, client) Hashtbl.t;
  breakers : (string, breaker) Hashtbl.t;
  shed_rng : Random.State.t;  (* under t.mutex *)
  mutable next_client : int;
  mutable paused : bool;
  mutable stopping : bool;
  mutable served_count : int;
  mutable shed_count : int;
  mutable breaker_trip_count : int;
  mutable slow_disconnect_count : int;
  mutable accept_thread : Thread.t option;
  mutable dispatch_thread : Thread.t option;
  mutable reader_threads : Thread.t list;
}

let socket_path t = t.path

let served t =
  Mutex.lock t.mutex;
  let n = t.served_count in
  Mutex.unlock t.mutex;
  n

let counters t =
  Mutex.lock t.mutex;
  let c =
    {
      shed = t.shed_count;
      breaker_trips = t.breaker_trip_count;
      slow_disconnects = t.slow_disconnect_count;
    }
  in
  Mutex.unlock t.mutex;
  c

let cancel_request (req : Runner.request) = Cancel.cancel req.Runner.req_cancel

let drop_client t c =
  Mutex.lock t.mutex;
  let was = Hashtbl.mem t.clients c.id in
  Hashtbl.remove t.clients c.id;
  (* The client is gone, so its work is garbage: cancel every token it
     owns (queued and in-flight) so running simulations abandon it at the next
     poll instead of computing for nobody. *)
  Queue.iter (fun (_, req) -> cancel_request req) c.queue;
  Queue.clear c.queue;
  List.iter cancel_request c.inflight;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  Mutex.lock c.rmutex;
  c.closed <- true;
  Condition.broadcast c.rcond;
  Mutex.unlock c.rmutex;
  if was then
    (* shutdown() wakes both the reader (EOF) and the writer (EPIPE)
       without invalidating the descriptor number; the reader closes the
       fd after joining the writer. *)
    try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Enqueue a reply for the writer thread.  A client that stopped
   draining replies fills its bounded queue and is disconnected — the
   slow-loris defense: a reader that never reads costs one queue, never
   a blocked service thread or unbounded memory. *)
let post_reply t c ~tag reply =
  Mutex.lock c.rmutex;
  let verdict =
    if c.closed then `Gone
    else if Queue.length c.replies >= t.reply_bound then `Overflow
    else begin
      Queue.push (tag, reply) c.replies;
      Condition.signal c.rcond;
      `Queued
    end
  in
  Mutex.unlock c.rmutex;
  match verdict with
  | `Queued | `Gone -> ()
  | `Overflow ->
    Mutex.lock t.mutex;
    t.slow_disconnect_count <- t.slow_disconnect_count + 1;
    Mutex.unlock t.mutex;
    drop_client t c

let writer_loop t c =
  let rec loop () =
    Mutex.lock c.rmutex;
    while Queue.is_empty c.replies && not c.closed do
      Condition.wait c.rcond c.rmutex
    done;
    let next = if c.closed then None else Some (Queue.pop c.replies) in
    Mutex.unlock c.rmutex;
    match next with
    | None -> ()
    | Some (tag, reply) -> (
      let payload = Wire.encode_reply ~tag reply in
      match Frame.write_timed ~timeout:t.write_timeout c.fd payload with
      | () -> loop ()
      | exception Frame.Timeout ->
        (* The peer accepted the connection but stopped reading
           (SIGSTOP'd, or a deliberate slow-loris): drop it. *)
        Mutex.lock t.mutex;
        t.slow_disconnect_count <- t.slow_disconnect_count + 1;
        Mutex.unlock t.mutex;
        drop_client t c
      | exception (Unix.Unix_error _ | Sys_error _ | Invalid_argument _) ->
        drop_client t c)
  in
  loop ()

let stats_reply t =
  let s = Runner.stats t.runner in
  let c = counters t in
  Wire.Stats_reply
    {
      st_jobs = s.Runner.jobs;
      st_tasks_run = s.Runner.tasks_run;
      st_cache_hits = s.Runner.cache_hits;
      st_cache_misses = s.Runner.cache_misses;
      st_quarantined = s.Runner.quarantined;
      st_expired = s.Runner.expired;
      st_shed = c.shed;
      st_breaker_trips = c.breaker_trips;
      st_slow_disconnects = c.slow_disconnects;
      st_stale_reaped = s.Runner.stale_reaped;
      st_cache_corrupt = s.Runner.cache_corrupt;
    }

(* --- circuit breaker ------------------------------------------------ *)

let breaker_key (req : Runner.request) =
  Wp_soc.Datapath.machine_name req.Runner.req_machine
  ^ "|"
  ^ Config.describe req.Runner.req_config

(* Call with [t.mutex] held. *)
let breaker_state t key ~now =
  match Hashtbl.find_opt t.breakers key with
  | None -> `Closed
  | Some b ->
    if b.open_until > now then `Open (b.open_until -. now)
    else begin
      if b.open_until > 0. then begin
        (* Cooldown over: half-open.  One success closes it, one more
           failure re-trips immediately. *)
        b.open_until <- 0.;
        b.fails <- max 0 (t.breaker_threshold - 1)
      end;
      `Closed
    end

let note_request_failure t key =
  Mutex.lock t.mutex;
  let b =
    match Hashtbl.find_opt t.breakers key with
    | Some b -> b
    | None ->
      let b = { fails = 0; open_until = 0. } in
      Hashtbl.replace t.breakers key b;
      b
  in
  b.fails <- b.fails + 1;
  if b.fails >= t.breaker_threshold && b.open_until = 0. then begin
    b.open_until <- Unix.gettimeofday () +. t.breaker_cooldown;
    b.fails <- 0;
    t.breaker_trip_count <- t.breaker_trip_count + 1
  end;
  Mutex.unlock t.mutex

let note_request_success t key =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.breakers key with
  | Some b -> if b.open_until = 0. then b.fails <- 0
  | None -> ());
  Mutex.unlock t.mutex

(* --- admission ------------------------------------------------------ *)

(* Call with [t.mutex] held.  The jitter keeps a thundering herd of
   shed clients from retrying in lockstep; seeded, so tests are
   reproducible. *)
let jitter t ms = ms + Random.State.int t.shed_rng (max 1 (ms / 2))

let total_backlog t =
  Hashtbl.fold (fun _ c acc -> acc + Queue.length c.queue) t.clients 0

let admit t c ~tag (args : Wire.run_args) =
  (* Cheap shed checks before the parse: a refused request must cost
     (almost) nothing.  Priority tiers: 0 sheds at half the backlog
     limit, 1 at the limit, 2+ only at the per-client bound. *)
  let prio = args.Wire.rq_priority in
  Mutex.lock t.mutex;
  let backlog = total_backlog t in
  let shed_floor =
    if prio <= 0 then t.shed_limit / 2
    else if prio = 1 then t.shed_limit
    else max_int
  in
  let verdict =
    if t.stopping then `Shed (jitter t 200)
    else if Queue.length c.queue >= t.queue_bound then
      `Shed (jitter t (100 + (10 * Queue.length c.queue)))
    else if backlog >= shed_floor then `Shed (jitter t (100 + backlog))
    else `Go
  in
  (match verdict with
  | `Shed _ -> t.shed_count <- t.shed_count + 1
  | `Go -> ());
  Mutex.unlock t.mutex;
  match verdict with
  | `Shed ms -> post_reply t c ~tag (Wire.Busy { retry_after_ms = ms })
  | `Go -> (
    match Wire.parse_run args with
    | Error msg ->
      Mutex.lock t.mutex;
      t.served_count <- t.served_count + 1;
      Mutex.unlock t.mutex;
      post_reply t c ~tag (Wire.Error msg)
    | Ok req -> (
      let key = breaker_key req in
      let now = Unix.gettimeofday () in
      Mutex.lock t.mutex;
      let verdict =
        match breaker_state t key ~now with
        | `Open left ->
          t.shed_count <- t.shed_count + 1;
          `Shed (jitter t (max 1 (int_of_float (ceil (left *. 1000.)))))
        | `Closed ->
          if t.stopping then begin
            t.shed_count <- t.shed_count + 1;
            `Shed (jitter t 200)
          end
          else begin
            Queue.push (tag, req) c.queue;
            Condition.broadcast t.cond;
            `Queued
          end
      in
      Mutex.unlock t.mutex;
      match verdict with
      | `Queued -> ()
      | `Shed ms -> post_reply t c ~tag (Wire.Busy { retry_after_ms = ms })))

(* --- per-connection threads ----------------------------------------- *)

let reader_loop t c =
  let quiescent () =
    Mutex.lock t.mutex;
    let no_work = Queue.is_empty c.queue && c.inflight = [] in
    Mutex.unlock t.mutex;
    no_work
    &&
    (Mutex.lock c.rmutex;
     let no_replies = Queue.is_empty c.replies in
     Mutex.unlock c.rmutex;
     no_replies)
  in
  let rec loop () =
    match Frame.read_timed ~idle:t.idle_timeout ~stall:t.stall_timeout c.fd with
    | Frame.Eof -> ()
    | Frame.Idle ->
      (* Reap only a quiescent connection: a client with work queued,
         running or unread is waiting on us, not the other way round. *)
      if quiescent () then () else loop ()
    | Frame.Frame payload ->
      (match Wire.decode_request payload with
      | Error msg ->
        (* Tag 0: the payload was too mangled to recover the real tag. *)
        post_reply t c ~tag:0 (Wire.Error msg)
      | Ok (tag, Wire.Ping) -> post_reply t c ~tag Wire.Pong
      | Ok (tag, Wire.Stats) -> post_reply t c ~tag (stats_reply t)
      | Ok (tag, Wire.Run args) -> admit t c ~tag args);
      loop ()
  in
  (try loop ()
   with
  | Frame.Truncated | Frame.Oversized _ | Frame.Timeout | Unix.Unix_error _
  | Sys_error _
  ->
    ());
  drop_client t c;
  (* Last out closes the fd: the writer has seen [closed] and exited. *)
  (match c.writer with Some th -> Thread.join th | None -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.sock with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | fd, _ ->
      Mutex.lock t.mutex;
      if t.stopping then begin
        Mutex.unlock t.mutex;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        let c =
          {
            id = t.next_client;
            fd;
            rmutex = Mutex.create ();
            rcond = Condition.create ();
            replies = Queue.create ();
            queue = Queue.create ();
            inflight = [];
            closed = false;
            writer = None;
          }
        in
        t.next_client <- t.next_client + 1;
        Hashtbl.replace t.clients c.id c;
        c.writer <- Some (Thread.create (fun () -> writer_loop t c) ());
        let th = Thread.create (fun () -> reader_loop t c) () in
        t.reader_threads <- th :: t.reader_threads;
        Mutex.unlock t.mutex;
        loop ()
      end
  in
  loop ()

(* One fair dispatch round: at most one request per client per pass
   (clients in connection order), passes repeating until [batch_max]
   requests are drained or every queue is empty.  A client pipelining
   hundreds of requests therefore shares the batch evenly with a client
   sending one.  Call with [t.mutex] held. *)
let drain_round t =
  let batch = ref [] in
  let count = ref 0 in
  let progress = ref true in
  while !progress && !count < t.batch_max do
    progress := false;
    let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.clients []) in
    List.iter
      (fun id ->
        if !count < t.batch_max then
          match Hashtbl.find_opt t.clients id with
          | Some c when not (Queue.is_empty c.queue) ->
            let tag, req = Queue.pop c.queue in
            c.inflight <- req :: c.inflight;
            batch := (c, tag, req) :: !batch;
            incr count;
            progress := true
          | Some _ | None -> ())
      ids
  done;
  List.rev !batch

let dispatch_batch t batch =
  if batch <> [] then begin
    let outcomes =
      Runner.experiments_batch_spec t.runner
        (List.map (fun (_, _, req) -> req) batch)
    in
    List.iter2
      (fun (c, tag, req) (outcome, from_cache) ->
        let key = breaker_key req in
        let reply =
          match outcome with
          | Runner.Completed record ->
            note_request_success t key;
            Wire.Result (Wire.summary_of_record ~from_cache record)
          | Runner.Failed f ->
            note_request_failure t key;
            Wire.Quarantined
              {
                attempts = f.Runner.attempts_made;
                last_error = f.Runner.last_error;
                repro = f.Runner.repro;
              }
          | Runner.Expired msg ->
            (* A deadline is the client's choice, not the key's fault:
               the breaker does not count it. *)
            Wire.Deadline_exceeded msg
        in
        Mutex.lock t.mutex;
        t.served_count <- t.served_count + 1;
        c.inflight <- List.filter (fun r -> r != req) c.inflight;
        Mutex.unlock t.mutex;
        post_reply t c ~tag reply)
      batch outcomes
  end

let dispatch_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec wait () =
      if t.stopping then false
      else if
        t.paused
        || not
             (Hashtbl.fold
                (fun _ c any -> any || not (Queue.is_empty c.queue))
                t.clients false)
      then begin
        Condition.wait t.cond t.mutex;
        wait ()
      end
      else true
    in
    let work = wait () in
    let batch = if work then drain_round t else [] in
    Mutex.unlock t.mutex;
    if work then begin
      dispatch_batch t batch;
      loop ()
    end
  in
  loop ()

let create ?(queue_bound = 32) ?(batch_max = 64) ?(paused = false)
    ?(reply_bound = 128) ?(idle_timeout = 300.) ?(stall_timeout = 10.)
    ?(write_timeout = 10.) ?(shed_limit = 256) ?(breaker_threshold = 5)
    ?(breaker_cooldown = 1.0) ?(shed_seed = 0) ~runner path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      runner;
      sock;
      path;
      queue_bound;
      reply_bound;
      batch_max;
      idle_timeout;
      stall_timeout;
      write_timeout;
      shed_limit;
      breaker_threshold;
      breaker_cooldown;
      mutex = Mutex.create ();
      cond = Condition.create ();
      clients = Hashtbl.create 8;
      breakers = Hashtbl.create 8;
      shed_rng = Random.State.make [| shed_seed; 0x5ced |];
      next_client = 0;
      paused;
      stopping = false;
      served_count = 0;
      shed_count = 0;
      breaker_trip_count = 0;
      slow_disconnect_count = 0;
      accept_thread = None;
      dispatch_thread = None;
      reader_threads = [];
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.dispatch_thread <- Some (Thread.create (fun () -> dispatch_loop t) ());
  t

let pause t =
  Mutex.lock t.mutex;
  t.paused <- true;
  Mutex.unlock t.mutex

let resume t =
  Mutex.lock t.mutex;
  t.paused <- false;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let stop t =
  Mutex.lock t.mutex;
  let already = t.stopping in
  t.stopping <- true;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [] in
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  if not already then begin
    (* Wake the accept thread with a throwaway connection: on Linux
       neither close(2) nor shutdown(2) on a listening socket unblocks a
       thread already parked in accept(2) (shutdown fails ENOTCONN), but
       a real connection returns from accept, which then sees [stopping]
       and exits.  Only close the listening fd after the join. *)
    let poke = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect poke (Unix.ADDR_UNIX t.path) with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close poke with Unix.Unix_error _ -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    List.iter (fun c -> drop_client t c) cs;
    Option.iter Thread.join t.dispatch_thread;
    Mutex.lock t.mutex;
    let readers = t.reader_threads in
    t.reader_threads <- [];
    Mutex.unlock t.mutex;
    (* Each reader joins its own writer and closes the client fd on the
       way out, so after this join no service thread or descriptor is
       left behind. *)
    List.iter Thread.join readers;
    if Sys.file_exists t.path then try Sys.remove t.path with Sys_error _ -> ()
  end

(* --- client --------------------------------------------------------- *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    mutable pending : (int * Wire.reply) list;  (** replies buffered by [call] *)
  }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; pending = [] }

  let send conn ~tag req = Frame.write conn.fd (Wire.encode_request ~tag req)

  let read_one conn =
    match Frame.read conn.fd with
    | None -> None
    | Some payload -> (
      match Wire.decode_reply payload with
      | Ok (tag, reply) -> Some (tag, reply)
      | Error msg -> failwith ("Service.Client: undecodable reply: " ^ msg))

  let recv conn =
    match conn.pending with
    | r :: rest ->
      conn.pending <- rest;
      Some r
    | [] -> read_one conn

  let call conn ~tag req =
    send conn ~tag req;
    let rec await () =
      match read_one conn with
      | None -> failwith "Service.Client: daemon closed the connection"
      | Some (t, reply) ->
        if t = tag then reply
        else begin
          conn.pending <- conn.pending @ [ (t, reply) ];
          await ()
        end
    in
    await ()

  let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()
end
