(* Fixed-size Domain worker pool with a shared task queue.

   Synchronisation protocol: every shared field is only touched under
   [mutex].  Workers sleep on [pending] while the queue is empty; batch
   submitters sleep on [finished] until their batch's [remaining] counter
   reaches zero.  Task results are written to a private slot per input
   index before the worker re-acquires the mutex to decrement the
   counter, so the mutex release/acquire pair publishes the slot to the
   submitter (OCaml 5 memory model: unlock happens-before the next
   lock). *)

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  pending : Condition.t;   (* queue may be non-empty, or shutting down *)
  finished : Condition.t;  (* some batch may have completed *)
  queue : task Queue.t;
  mutable live : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () =
  let clamp n = max 1 (min n 128) in
  match Sys.getenv_opt "WIREPIPE_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> clamp n
    | Some _ | None -> clamp (Domain.recommended_domain_count ()))
  | None -> clamp (Domain.recommended_domain_count ())

let jobs t = t.jobs

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not t.live then None
    else
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
        Condition.wait t.pending t.mutex;
        next ()
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
    task ();
    worker_loop t

let create ?jobs () =
  let jobs = match jobs with Some n -> max 1 (min n 128) | None -> default_jobs () in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      pending = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      live = true;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.pending;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run one batch of [n] indexed tasks and wait for all of them.  [run i]
   must handle its own exceptions (the wrappers below capture them). *)
let run_tasks t n run =
  let remaining = ref n in
  let wrapped i () =
    run i;
    Mutex.lock t.mutex;
    decr remaining;
    if !remaining = 0 then Condition.broadcast t.finished;
    Mutex.unlock t.mutex
  in
  Mutex.lock t.mutex;
  for i = 0 to n - 1 do
    Queue.add (wrapped i) t.queue
  done;
  Condition.broadcast t.pending;
  (* The submitting thread is a worker too: it drains queue entries (which
     may belong to a nested batch) until its own batch completes. *)
  let rec help () =
    if !remaining > 0 then
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex;
        help ()
      | None ->
        Condition.wait t.finished t.mutex;
        help ()
  in
  help ();
  Mutex.unlock t.mutex

let iteri t f xs =
  match xs with
  | [] -> ()
  | [ x ] -> f 0 x
  | _ when t.jobs <= 1 -> List.iteri f xs
  | _ ->
    let arr = Array.of_list xs in
    (* The lowest failing index wins, whichever task failed first, so
       the error a caller sees does not depend on the job count. *)
    let error = ref None in
    let run i =
      try f i arr.(i)
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mutex;
        (match !error with
        | Some (j, _, _) when j < i -> ()
        | Some _ | None -> error := Some (i, e, bt));
        Mutex.unlock t.mutex
    in
    run_tasks t (Array.length arr) run;
    (match !error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ())

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.jobs <= 1 -> List.map f xs
  | _ ->
    let results = Array.make (List.length xs) None in
    iteri t (fun i x -> results.(i) <- Some (f x)) xs;
    Array.to_list
      (Array.map (function Some y -> y | None -> assert false) results)
