module Sim = Wp_sim.Sim
module Fault = Wp_sim.Fault
module Telemetry = Wp_sim.Telemetry
module Cpu = Wp_soc.Cpu

type t = {
  engine : Sim.kind;
  capacity : int;
  max_cycles : int option;
  fault : Fault.spec;
  protect : Protect.t;
  telemetry : Telemetry.spec;
  deadline_ms : int option;
}

let default () =
  {
    engine = Sim.default_kind ();
    capacity = 2;
    max_cycles = None;
    fault = Fault.none;
    protect = Protect.none;
    telemetry = Telemetry.off;
    deadline_ms = None;
  }

let v ?engine ?(capacity = 2) ?max_cycles ?(fault = Fault.none)
    ?(protect = Protect.none) ?(telemetry = Telemetry.off) ?deadline_ms () =
  let engine = match engine with Some e -> e | None -> Sim.default_kind () in
  { engine; capacity; max_cycles; fault; protect; telemetry; deadline_ms }

let digest t =
  (* Every result-affecting field is covered; Runner cache keys embed
     this verbatim, so such a field added to the record automatically
     becomes part of every key (the very drift this module exists to
     prevent).  [deadline_ms] is deliberately absent: a deadline decides
     {e whether} a run finishes, never what it computes, so a cached
     record may satisfy any deadline and an expired request must not
     fragment the cache. *)
  String.concat "|"
    [
      Sim.kind_to_string t.engine;
      "cap" ^ string_of_int t.capacity;
      (match t.max_cycles with Some n -> string_of_int n | None -> "mcr");
      Fault.digest t.fault;
      Protect.digest t.protect;
      Telemetry.spec_digest t.telemetry;
    ]

let equal a b = digest a = digest b

let describe t =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  (match t.deadline_ms with
  | Some ms -> add ("deadline_ms=" ^ string_of_int ms)
  | None -> ());
  if not (Telemetry.is_off t.telemetry) then
    add ("telemetry=" ^ Telemetry.spec_digest t.telemetry);
  if not (Protect.is_none t.protect) then
    add ("protect=" ^ Protect.to_string t.protect);
  if not (Fault.is_none t.fault) then add ("fault=" ^ Fault.to_string t.fault);
  (match t.max_cycles with
  | Some n -> add ("max_cycles=" ^ string_of_int n)
  | None -> ());
  if t.capacity <> 2 then add ("capacity=" ^ string_of_int t.capacity);
  add ("engine=" ^ Sim.kind_to_string t.engine);
  String.concat " " !parts

let of_args ?engine ?(capacity = 2) ?max_cycles ?fault ?(fault_seed = 0)
    ?protect ?(link_window = 0) ?(link_timeout = 0) ?(stall_report = false)
    ?(trace_depth = 0) ?deadline_ms () =
  let ( let* ) = Result.bind in
  let* engine =
    match engine with
    | None -> (
      match Sim.default_kind () with k -> Ok k | exception Invalid_argument m -> Error m)
    | Some s -> (
        match Sim.kind_of_string s with
        | Some k -> Ok k
        | None ->
            Error (Printf.sprintf "engine must be 'fast' or 'ref', got %S" s))
  in
  let* () =
    if capacity < 0 then Error "capacity must be >= 0" else Ok ()
  in
  let* () =
    match max_cycles with
    | Some n when n <= 0 -> Error "max-cycles must be > 0"
    | _ -> Ok ()
  in
  let* fault =
    match fault with
    | None -> Ok Fault.none
    | Some s -> (
        match Fault.of_string ~seed:fault_seed s with
        | spec -> Ok spec
        | exception Invalid_argument msg -> Error msg)
  in
  let* protect =
    match protect with
    | None -> Ok Protect.none
    | Some s -> (
        match Protect.of_string ~window:link_window ~timeout:link_timeout s with
        | p -> Ok p
        | exception Invalid_argument msg -> Error msg)
  in
  let* () =
    if trace_depth < 0 then Error "trace-depth must be >= 0" else Ok ()
  in
  let* () =
    match deadline_ms with
    | Some ms when ms <= 0 -> Error "deadline-ms must be > 0"
    | _ -> Ok ()
  in
  let telemetry =
    if trace_depth > 0 then Telemetry.with_trace ~depth:trace_depth ()
    else if stall_report then Telemetry.counters
    else Telemetry.off
  in
  Ok { engine; capacity; max_cycles; fault; protect; telemetry; deadline_ms }

let batchable t =
  (* Batch runs each lane exactly as [Fast] runs it alone, but a lane
     names no engine and carries no telemetry.  Destructive (non-benign)
     faults are excluded because they may legitimately make a process
     closure raise, identically on every kernel, and a raise in
     [Batch.run] aborts the lanes after it. *)
  t.engine = Sim.Fast && Fault.benign t.fault && Telemetry.is_off t.telemetry

let protect_fun t =
  if Protect.is_none t.protect then None else Some (Protect.to_fun t.protect)

let run_cpu ?cancel ?mcr_work ~spec ~machine ~mode ~rs program =
  (* An explicit token (the serve daemon's, stamped at request arrival)
     wins over the spec's relative deadline, which wins over [never]. *)
  let cancel =
    match cancel, spec.deadline_ms with
    | Some c, _ -> c
    | None, Some ms -> Wp_util.Cancel.create ~deadline_ms:ms ()
    | None, None -> Wp_util.Cancel.never
  in
  if batchable spec then
    (* A one-lane batch: an unfaulted lane replays instead of stepping
       the handshake wherever the replay admits it, with identical
       results. *)
    (Cpu.run_batch ~machine
       [|
         {
           Cpu.b_mode = mode;
           b_rs = rs;
           b_capacity = spec.capacity;
           b_max_cycles = spec.max_cycles;
           b_mcr_work = mcr_work;
           b_fault = spec.fault;
           b_protect = protect_fun spec;
           b_cancel = cancel;
           b_program = program;
         };
       |]).(0)
  else
    Cpu.run ~engine:spec.engine ~capacity:spec.capacity ~cancel
      ?max_cycles:spec.max_cycles ?mcr_work ~fault:spec.fault
      ?protect:(protect_fun spec) ~telemetry:spec.telemetry ~machine ~mode ~rs program
