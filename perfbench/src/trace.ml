(* Host-time spans recorded by the benchmark around its calls into the
   library's layers.  Spans stay in memory while a run measures and are
   written out once, at the end, as Chrome [trace_event] JSON — the
   format [Wp_sim.Telemetry.chrome_of_trace] already uses for simulated
   cycles, so both open in one viewer. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  op : int;  (** the op the span belongs to; -1 outside ops *)
  tid : int;  (** 0 = main thread; serve's client threads use 1 and 2 *)
  start : float;
  stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 1
let current_op = ref (-1)

(* Open spans of the main thread, innermost first. *)
let stack : int list ref = ref []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let fresh_id () =
  with_lock (fun () ->
      let id = !next_id in
      incr next_id;
      id)

let push s = with_lock (fun () -> spans := s :: !spans)

let timed ~id ~name ~parent ~tid f =
  let start = now () in
  let finish () =
    push { id; name; parent; op = !current_op; tid; start; stop = now () }
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* [span name f] runs [f ()] as a child of the innermost open span of the
   main thread.  With tracing off it is a plain call. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () -> stack := List.tl !stack)
      (fun () -> timed ~id ~name ~parent ~tid:0 f)
  end

(* A root span recorded from a client thread, which has no nesting. *)
let leaf ~tid name f =
  if not !enabled then f () else timed ~id:(fresh_id ()) ~name ~parent:0 ~tid f

let all () = List.rev !spans

(* Per span name: call count, and each call's total and self time
   (duration minus the time its child spans cover). *)
type agg = { label : string; totals : float list; selfs : float list }

let aggregate () =
  let all = all () in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0. in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    all;
  let by_name = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      match Hashtbl.find_opt by_name s.name with
      | Some (t, sf) -> Hashtbl.replace by_name s.name (dur :: t, self :: sf)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace by_name s.name ([ dur ], [ self ]))
    all;
  List.rev_map
    (fun name ->
      let t, sf = Hashtbl.find by_name name in
      { label = name; totals = List.rev t; selfs = List.rev sf })
    !order

let durations name =
  List.filter_map
    (fun (s : span) -> if s.name = name then Some (s.stop -. s.start) else None)
    (all ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome path =
  let all = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity all in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      output_string oc
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"perfbench host\"}}";
      List.iter
        (fun s ->
          Printf.fprintf oc
            ",\n{\"name\":%s,\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
            (json_string s.name) s.tid
            ((s.start -. t0) *. 1e6)
            ((s.stop -. s.start) *. 1e6)
            s.id s.parent s.op)
        all;
      output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n")
