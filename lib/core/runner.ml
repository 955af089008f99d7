module Datapath = Wp_soc.Datapath
module Program = Wp_soc.Program
module Cpu = Wp_soc.Cpu
module Pool = Wp_util.Pool
module Telemetry = Wp_sim.Telemetry

type section = {
  section_name : string;
  wall_seconds : float;
  section_tasks : int;
  section_cache_hits : int;
  section_telemetry : Telemetry.summary option;
}

type stats = {
  jobs : int;
  tasks_run : int;
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;
  quarantined : int;
  expired : int;
  stale_reaped : int;
  telemetry : Telemetry.summary option;
  sections : section list;
}

type t = {
  pool : Pool.t;
  cache : bool;
  cache_dir : string option;
  mutex : Mutex.t;
  (* Content-addressed result tables.  Both are keyed by
     (program content digest, machine, config digest, cycle budget,
     engine, fault digest, protection digest); records hold full
     Experiment.records, objectives hold the optimiser's
     failure-tolerant WP2 throughput probes.  When [cache_dir] is set,
     entries are additionally persisted as digest-guarded files and
     survive the process. *)
  records : (string, Experiment.record) Hashtbl.t;
  objectives : (string, float) Hashtbl.t;
  mutable tasks_run : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_corrupt : int;
  mutable quarantined : int;
  mutable expired : int;
  mutable stale_reaped : int;
  mutable sections_rev : section list;
  (* Monotone accumulator of every telemetry summary that flowed through
     [experiment_spec] (cache hits included: the aggregate describes the
     records the sweep consumed, not the simulations it ran).  Sections
     report deltas of this accumulator via {!Telemetry.diff}. *)
  mutable telemetry_acc : Telemetry.summary option;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Crash recovery.

   Entry writes go through [<entry>.tmp.<pid>.<domain>] + rename, so a
   crash (or SIGKILL) can only strand temp files, never tear a named
   entry.  At [create] time we sweep those orphans: a temp file whose
   writer PID is dead is garbage by construction — the rename that
   would have published it can no longer happen.  The scan runs under
   an advisory file lock ([.wpcache.lock], opened close-on-exec so a
   daemon's children never inherit it); if another process holds the
   lock it is already doing this exact job, so we skip rather than
   block the constructor. *)
(* ------------------------------------------------------------------ *)

let lock_file_name = ".wpcache.lock"
let quarantine_subdir = "quarantine"

(* [name] is ["<hexdigest>.<ns>.tmp.<pid>.<domain>"]; anything else is
   not ours to touch. *)
let stale_tmp_pid name =
  match String.split_on_char '.' name with
  | [ _digest; _ns; "tmp"; pid; _domain ] -> int_of_string_opt pid
  | _ -> None

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  (* EPERM means the PID exists but belongs to someone else: alive. *)
  | exception Unix.Unix_error _ -> true

let recover_cache_dir dir =
  match
    Unix.openfile
      (Filename.concat dir lock_file_name)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  with
  | exception Unix.Unix_error _ -> 0
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | exception Unix.Unix_error _ -> 0 (* someone else is sweeping *)
        | () ->
          let reaped = ref 0 in
          let entries = try Sys.readdir dir with Sys_error _ -> [||] in
          Array.iter
            (fun name ->
              match stale_tmp_pid name with
              | Some pid when pid > 0 && not (pid_alive pid) ->
                (try
                   Sys.remove (Filename.concat dir name);
                   incr reaped
                 with Sys_error _ -> ())
              | _ -> ())
            entries;
          (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
          !reaped)

let create ?jobs ?(cache = true) ?cache_dir () =
  (match cache_dir with Some dir -> mkdir_p dir | None -> ());
  let cache_dir = if cache then cache_dir else None in
  let stale_reaped =
    match cache_dir with Some dir -> recover_cache_dir dir | None -> 0
  in
  {
    pool = Pool.create ?jobs ();
    cache;
    cache_dir;
    mutex = Mutex.create ();
    records = Hashtbl.create 64;
    objectives = Hashtbl.create 256;
    tasks_run = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_corrupt = 0;
    quarantined = 0;
    expired = 0;
    stale_reaped;
    sections_rev = [];
    telemetry_acc = None;
  }

let default_runner = lazy (create ())
let default () = Lazy.force default_runner
let jobs t = Pool.jobs t.pool
let cache_enabled t = t.cache
let shutdown t = Pool.shutdown t.pool

let map t f xs =
  Pool.map t.pool
    (fun x ->
      let y = f x in
      Mutex.lock t.mutex;
      t.tasks_run <- t.tasks_run + 1;
      Mutex.unlock t.mutex;
      y)
    xs

(* ------------------------------------------------------------------ *)
(* Persistent cache entries.

   On-disk format: a fixed magic, the 16-byte [Digest] of the marshalled
   payload, then the payload.  The digest is validated on every read, so
   a truncated, bit-flipped or partially written entry is detected
   BEFORE [Marshal.from_string] ever sees it and is treated as a cache
   miss (logged, counted, and overwritten by the recomputed value) —
   never an exception.  Writes go through a temporary file and a rename,
   so concurrent writers and crashes leave either the old entry or the
   new one, not a torn file. *)
(* ------------------------------------------------------------------ *)

(* Bumped whenever the marshalled payload shape changes ("WPCACHE1"
   predates the telemetry field in [Cpu.result]); old entries fail the
   magic check and are treated as misses, never mis-decoded. *)
let disk_magic = "WPCACHE2"

let entry_path dir ~ns cache_key =
  Filename.concat dir (Digest.to_hex (Digest.string cache_key) ^ "." ^ ns)

let note_corrupt t path why =
  Printf.eprintf "runner: corrupt cache entry %s (%s): quarantined, treated as miss\n%!"
    path why;
  (* Move the bad entry aside instead of leaving it in place: the cache
     directory stays clean for the next reader (the chaos harness
     asserts zero corrupt entries after a SIGKILL + restart), and the
     evidence survives under [quarantine/] for post-mortem.  A rename
     race with a concurrent recomputing writer is benign — either the
     fresh entry wins the name or the rename fails and we fall back to
     deleting. *)
  (match t.cache_dir with
  | Some dir -> (
    let qdir = Filename.concat dir quarantine_subdir in
    (try mkdir_p qdir with Unix.Unix_error _ | Sys_error _ -> ());
    let dst = Filename.concat qdir (Filename.basename path) in
    try Sys.rename path dst
    with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()))
  | None -> ());
  Mutex.lock t.mutex;
  t.cache_corrupt <- t.cache_corrupt + 1;
  Mutex.unlock t.mutex

let disk_read t ~ns cache_key =
  match t.cache_dir with
  | None -> None
  | Some dir ->
    let path = entry_path dir ~ns cache_key in
    if not (Sys.file_exists path) then None
    else begin
      let corrupt why =
        note_corrupt t path why;
        None
      in
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error e -> corrupt e
      | exception End_of_file -> corrupt "truncated while reading"
      | raw ->
        let mlen = String.length disk_magic in
        let hdr = mlen + 16 in
        if String.length raw < hdr then corrupt "truncated header"
        else if String.sub raw 0 mlen <> disk_magic then corrupt "bad magic"
        else begin
          let stored = String.sub raw mlen 16 in
          let payload = String.sub raw hdr (String.length raw - hdr) in
          if not (Digest.equal (Digest.string payload) stored) then
            corrupt "digest mismatch"
          else
            (* The digest already vouches for the payload bytes; the
               catch-all is belt and braces against entries written by an
               incompatible compiler version. *)
            match Marshal.from_string payload 0 with
            | v -> Some v
            | exception _ -> corrupt "unreadable payload"
        end
    end

let disk_write t ~ns cache_key v =
  match t.cache_dir with
  | None -> ()
  | Some dir -> (
    try
      let payload = Marshal.to_string v [] in
      let path = entry_path dir ~ns cache_key in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
          (Domain.self () :> int)
      in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc disk_magic;
          output_string oc (Digest.string payload);
          output_string oc payload);
      Sys.rename tmp path
    with Sys_error _ | Unix.Unix_error _ -> ())

(* Insert [v] under [key] unless a value is already there, and return
   the stored value: the first writer wins, so every caller's view stays
   identical. *)
let insert t table key v =
  Mutex.lock t.mutex;
  let winner =
    match Hashtbl.find_opt table key with
    | Some first -> first
    | None ->
      Hashtbl.replace table key v;
      v
  in
  Mutex.unlock t.mutex;
  winner

(* Cache probe without compute: memory table first, then the
   digest-guarded disk layer (promoted into memory on hit).  Does not
   touch the hit/miss counters — the caller accounts for the request's
   final disposition exactly once. *)
let probe t table ~ns key =
  if not t.cache then None
  else begin
    Mutex.lock t.mutex;
    let mem = Hashtbl.find_opt table key in
    Mutex.unlock t.mutex;
    match mem with
    | Some _ -> mem
    | None -> Option.map (insert t table key) (disk_read t ~ns key)
  end

(* Store a computed value under its key (memory + disk). *)
let store t table ~ns key v =
  if not t.cache then v
  else begin
    let winner = insert t table key v in
    if winner == v then disk_write t ~ns key v;
    winner
  end

(* One cache transaction: [probe], else [compute] and [store].  The
   simulation runs outside the lock; concurrent misses on the same key
   may race the computation (pure, so harmless) but the first stored
   value wins, keeping every caller's view identical.  [ns] namespaces
   the disk entry ("rec" / "obj") so the two tables cannot alias on
   disk. *)
let lookup t table ~ns key compute =
  let hit = probe t table ~ns key in
  Mutex.lock t.mutex;
  (match hit with
  | Some _ -> t.cache_hits <- t.cache_hits + 1
  | None -> t.cache_misses <- t.cache_misses + 1);
  Mutex.unlock t.mutex;
  match hit with Some v -> v | None -> store t table ~ns key (compute ())

let key ~spec ~machine ~(program : Program.t) config =
  (* The run parameters enter the key solely through [Run_spec.digest]:
     engine kind (both kernels agree observably, but a cache must never
     blur which kernel produced a stored record), fault digest (a
     faulted record must never satisfy a clean lookup, or vice versa),
     protection digest (a link-layer run has different latencies and
     statistics than a raw one), telemetry digest (an instrumented
     record carries extra payload a plain lookup should not see), cycle
     budget and FIFO capacity.  A field added to [Run_spec.t] is
     automatically keyed here — no hand-assembled concatenation to
     drift. *)
  Printf.sprintf "%s|%s|%s|%s|%s" program.Program.name
    (Experiment.program_digest program)
    (Datapath.machine_name machine) (Config.digest config)
    (Run_spec.digest spec)

(* Fold a finished record's telemetry into the monotone accumulator.
   Mixed-topology sweeps degrade gracefully: [merge_opt] keeps the
   accumulator unchanged on a topology mismatch. *)
let note_telemetry t (r : Experiment.record) =
  let summary_of (res : Cpu.result) =
    Option.map (fun rep -> rep.Telemetry.summary) res.Cpu.telemetry
  in
  match (summary_of r.Experiment.wp1, summary_of r.Experiment.wp2) with
  | None, None -> ()
  | s1, s2 ->
    Mutex.lock t.mutex;
    (match s1 with
    | Some s -> t.telemetry_acc <- Telemetry.merge_opt t.telemetry_acc s
    | None -> ());
    (match s2 with
    | Some s -> t.telemetry_acc <- Telemetry.merge_opt t.telemetry_acc s
    | None -> ());
    Mutex.unlock t.mutex

(* [experiment_spec] under a key its caller already computed (the key
   digests the whole program). *)
let experiment_keyed ?cancel ~spec t ~key ~machine ~program config =
  (* A cancelled compute raises out of [lookup] before [store_winner], so
     an abandoned run never poisons the cache; a cache hit on the other
     hand is free and satisfies any deadline. *)
  let r =
    lookup t t.records ~ns:"rec" key (fun () ->
        Experiment.run_spec ?cancel ~spec ~machine ~program config)
  in
  note_telemetry t r;
  r

let experiment_spec ?cancel ~spec t ~machine ~program config =
  experiment_keyed ?cancel ~spec t ~key:(key ~spec ~machine ~program config) ~machine
    ~program config

let experiments_spec ~spec t ~machine ~program configs =
  (* Warm the golden memo once before fanning out, so the first parallel
     wave does not duplicate the reference run across workers. *)
  ignore (Experiment.golden ~engine:spec.Run_spec.engine ~machine program);
  map t (experiment_spec ~spec t ~machine ~program) configs

let objective_spec ~spec t ~machine ~program config =
  lookup t t.objectives ~ns:"obj"
    (key ~spec ~machine ~program config)
    (fun () ->
      Experiment.wp2_cycles_objective_spec ~spec ~machine ~program config)

(* ------------------------------------------------------------------ *)
(* Guarded experiments: quarantine + seeded-backoff retry.

   A sweep of hundreds of configurations must not die because ONE
   experiment deadlocks, exhausts its budget or trips an internal
   invariant.  [experiment_guarded] runs each attempt through the normal
   cached path; an exception is retried up to [attempts] times with a
   deterministic, seeded exponential backoff (and, when the caller gave
   an explicit [max_cycles] budget, an exponentially escalated budget —
   the per-experiment "timeout" is a cycle budget, so escalation is the
   retry that can actually help).  A task that still fails is returned
   as [Failed] with a one-line repro, and the rest of the sweep
   proceeds. *)
(* ------------------------------------------------------------------ *)

type failure = {
  failed_key : string;
  attempts_made : int;
  last_error : string;
  repro : string;
}

type outcome =
  | Completed of Experiment.record
  | Failed of failure
  | Expired of string

let repro_line ~spec ~machine ~(program : Program.t) config =
  Printf.sprintf
    "machine=%s program=%s rs=%S engine=%s fault=%S protect=%S max_cycles=%s"
    (Datapath.machine_name machine)
    program.Program.name (Config.describe config)
    (Wp_sim.Sim.kind_to_string spec.Run_spec.engine)
    (Wp_sim.Fault.to_string spec.Run_spec.fault)
    (Protect.to_string spec.Run_spec.protect)
    (match spec.Run_spec.max_cycles with
    | Some n -> string_of_int n
    | None -> "default")

(* [experiment_guarded_spec] under its request's key, which the first
   attempt reuses; an escalated budget is a spec, and a key, of its own. *)
let guarded ~spec ?(attempts = 3) ?(retry_seed = 0) ?cancel t ~key:k ~machine ~program
    config =
  let attempts = max 1 attempts in
  let cancel_tok = Option.value cancel ~default:Wp_util.Cancel.never in
  let expired msg =
    (* A deadline is not a fault: no retry (the budget is wall-clock and
       it is gone), no quarantine. *)
    Mutex.lock t.mutex;
    t.expired <- t.expired + 1;
    Mutex.unlock t.mutex;
    Expired msg
  in
  let rng = Random.State.make [| retry_seed; Hashtbl.hash k |] in
  let attempt i =
    (* Attempt i gets 2^(i-1) times the caller's budget: a run killed by
       a too-tight timeout converges instead of failing identically. *)
    match spec.Run_spec.max_cycles with
    | Some m when i > 1 ->
      let spec = { spec with Run_spec.max_cycles = Some (m * (1 lsl (i - 1))) } in
      experiment_spec ?cancel ~spec t ~machine ~program config
    | Some _ | None -> experiment_keyed ?cancel ~spec t ~key:k ~machine ~program config
  in
  let rec go i last_error =
    if Wp_util.Cancel.cancelled cancel_tok then
      expired
        (Printf.sprintf "deadline exceeded before attempt %d/%d (%s)" i
           attempts
           (repro_line ~spec ~machine ~program config))
    else if i > attempts then begin
      Mutex.lock t.mutex;
      t.quarantined <- t.quarantined + 1;
      Mutex.unlock t.mutex;
      Failed
        {
          failed_key = k;
          attempts_made = attempts;
          last_error;
          repro = repro_line ~spec ~machine ~program config;
        }
    end
    else begin
      if i > 1 then begin
        (* Seeded exponential backoff: deterministic for a given
           [retry_seed], bounded (the last gap is ~2^attempts ms). *)
        let base = 0.001 *. float_of_int (1 lsl (i - 2)) in
        let jitter = Random.State.float rng base in
        try Unix.sleepf (base +. jitter) with Unix.Unix_error _ -> ()
      end;
      match attempt i with
      | r -> Completed r
      | exception Wp_util.Cancel.Cancelled msg -> expired msg
      | exception e -> go (i + 1) (Printexc.to_string e)
    end
  in
  go 1 "not attempted"

let experiment_guarded_spec ~spec ?attempts ?retry_seed ?cancel t ~machine ~program
    config =
  guarded ~spec ?attempts ?retry_seed ?cancel t
    ~key:(key ~spec ~machine ~program config)
    ~machine ~program config

(* ------------------------------------------------------------------ *)
(* Request batches: cache probe, expiry, then the guarded path.

   The service-facing entry point.  Requests are heterogeneous (any
   machine / program / config / spec mix).  Each is first probed against
   the cache; a miss whose deadline has already passed is answered
   without compute; every other miss runs through the guarded
   retry/quarantine machinery as one pool task, so a poisoned request
   degrades exactly as it would in a sequential sweep. *)
(* ------------------------------------------------------------------ *)

type request = {
  req_spec : Run_spec.t;
  req_machine : Datapath.machine;
  req_program : Program.t;
  req_config : Config.t;
  req_cancel : Wp_util.Cancel.t;
}

(* A request after the cache probe: answered, or a miss with its key. *)
type disposition = Answered of (outcome * bool) | Miss of request * string

let experiments_batch_spec ?attempts ?retry_seed t requests =
  (* The cache probe and the expiry check, request by request, before
     anything is computed. *)
  let dispose r =
    let k = key ~spec:r.req_spec ~machine:r.req_machine ~program:r.req_program r.req_config in
    match probe t t.records ~ns:"rec" k with
    | Some record ->
      Mutex.lock t.mutex;
      t.cache_hits <- t.cache_hits + 1;
      Mutex.unlock t.mutex;
      note_telemetry t record;
      Answered (Completed record, true)
    | None when Wp_util.Cancel.cancelled r.req_cancel ->
      (* The cache said no, and burning a run (or a golden run) on a
         request whose deadline already passed can only delay its live
         siblings. *)
      Mutex.lock t.mutex;
      t.expired <- t.expired + 1;
      Mutex.unlock t.mutex;
      Answered (Expired "deadline exceeded before dispatch", false)
    | None -> Miss (r, k)
  in
  let dispositions = List.map dispose requests in
  let computed =
    map t
      (fun (r, k) ->
        let cancel =
          if Wp_util.Cancel.is_never r.req_cancel then None else Some r.req_cancel
        in
        guarded ~spec:r.req_spec ?attempts ?retry_seed ?cancel t ~key:k
          ~machine:r.req_machine ~program:r.req_program r.req_config)
      (List.filter_map (function Miss (r, k) -> Some (r, k) | Answered _ -> None) dispositions)
  in
  (* Back into request order: the misses' outcomes, in turn. *)
  let rec merge ds cs =
    match ds, cs with
    | Answered a :: ds, cs -> a :: merge ds cs
    | Miss _ :: ds, o :: cs -> (o, false) :: merge ds cs
    | Miss _ :: _, [] -> assert false
    | [], _ -> []
  in
  merge dispositions computed

let timed t name f =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.mutex;
  let tasks0 = t.tasks_run and hits0 = t.cache_hits in
  let tel0 = t.telemetry_acc in
  Mutex.unlock t.mutex;
  let result = f () in
  let wall = Unix.gettimeofday () -. t0 in
  Mutex.lock t.mutex;
  let section_telemetry =
    (* Delta of the monotone accumulator over the section; a mid-sweep
       topology change falls back to the end-of-section total. *)
    match (tel0, t.telemetry_acc) with
    | None, acc -> acc
    | Some _, None -> None
    | Some before, Some now -> (
        match Telemetry.diff now before with
        | d -> Some d
        | exception Invalid_argument _ -> Some now)
  in
  let s =
    {
      section_name = name;
      wall_seconds = wall;
      section_tasks = t.tasks_run - tasks0;
      section_cache_hits = t.cache_hits - hits0;
      section_telemetry;
    }
  in
  t.sections_rev <- s :: t.sections_rev;
  Mutex.unlock t.mutex;
  (result, s)

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      jobs = Pool.jobs t.pool;
      tasks_run = t.tasks_run;
      cache_hits = t.cache_hits;
      cache_misses = t.cache_misses;
      cache_corrupt = t.cache_corrupt;
      quarantined = t.quarantined;
      expired = t.expired;
      stale_reaped = t.stale_reaped;
      telemetry = t.telemetry_acc;
      sections = List.rev t.sections_rev;
    }
  in
  Mutex.unlock t.mutex;
  s

let reset_stats t =
  Mutex.lock t.mutex;
  t.tasks_run <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.cache_corrupt <- 0;
  t.quarantined <- 0;
  t.expired <- 0;
  t.stale_reaped <- 0;
  t.sections_rev <- [];
  t.telemetry_acc <- None;
  Mutex.unlock t.mutex

let clear_cache t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.records;
  Hashtbl.reset t.objectives;
  Mutex.unlock t.mutex

let pp_stats ppf s =
  Format.fprintf ppf "runner: %d job%s, %d task%s run, %d cache hit%s, %d miss%s"
    s.jobs
    (if s.jobs = 1 then "" else "s")
    s.tasks_run
    (if s.tasks_run = 1 then "" else "s")
    s.cache_hits
    (if s.cache_hits = 1 then "" else "s")
    s.cache_misses
    (if s.cache_misses = 1 then "" else "es");
  if s.cache_corrupt > 0 then
    Format.fprintf ppf ", %d corrupt entr%s recovered" s.cache_corrupt
      (if s.cache_corrupt = 1 then "y" else "ies");
  if s.quarantined > 0 then
    Format.fprintf ppf ", %d task%s quarantined" s.quarantined
      (if s.quarantined = 1 then "" else "s");
  if s.expired > 0 then
    Format.fprintf ppf ", %d deadline%s expired" s.expired
      (if s.expired = 1 then "" else "s");
  if s.stale_reaped > 0 then
    Format.fprintf ppf ", %d stale temp file%s reaped" s.stale_reaped
      (if s.stale_reaped = 1 then "" else "s");
  (match s.telemetry with
  | None -> ()
  | Some tel ->
    Format.fprintf ppf ", telemetry over %d cycles" tel.Telemetry.cycles);
  List.iter
    (fun sec ->
      Format.fprintf ppf "@\n  %-36s %8.3f s wall  %4d tasks  %4d cache hits"
        sec.section_name sec.wall_seconds sec.section_tasks sec.section_cache_hits;
      match sec.section_telemetry with
      | None -> ()
      | Some tel -> Format.fprintf ppf "  %9d telemetry cycles" tel.Telemetry.cycles)
    s.sections
