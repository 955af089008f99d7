module Ring_fifo = Wp_util.Ring_fifo

type mode =
  | Plain
  | Oracle

type stats = {
  firings : int;
  stalls : int;
  input_starved : int;
  output_blocked : int;
  required_counts : int array;
  dropped : int array;
}

type t = {
  proc : Process.t;
  shell_mode : mode;
  instance : Process.instance;
  fifos : int Ring_fifo.t array;
  drop_pending : int array;
  record_traces : bool;
  traces : int Token.t list array; (* newest first *)
  mutable firings : int;
  mutable stalls : int;
  mutable input_starved : int;
  mutable output_blocked : int;
  required_counts : int array;
  dropped : int array;
  (* Allocated once: a stall allocates nothing, a firing only its tokens. *)
  plain_mask : bool array; (* all true: a Plain firing reads every port *)
  inputs : int option array; (* [Process.fire]'s argument, rewritten at every firing *)
  taus : int Token.t array; (* what [stall] returns *)
}

let create ?(capacity = 2) ?(record_traces = false) ~mode proc =
  if capacity < 0 then invalid_arg "Shell.create: negative capacity";
  Process.validate proc;
  let cap = if capacity = 0 then Ring_fifo.Unbounded else Ring_fifo.Bounded capacity in
  let n_in = Process.n_inputs proc in
  {
    proc;
    shell_mode = mode;
    instance = proc.Process.make ();
    fifos = Array.init n_in (fun _ -> Ring_fifo.create cap);
    drop_pending = Array.make n_in 0;
    record_traces;
    traces = Array.make (Process.n_outputs proc) [];
    firings = 0;
    stalls = 0;
    input_starved = 0;
    output_blocked = 0;
    required_counts = Array.make n_in 0;
    dropped = Array.make n_in 0;
    plain_mask = Array.make n_in true;
    inputs = Array.make n_in None;
    taus = Array.make (Process.n_outputs proc) Token.Void;
  }

let process t = t.proc
let mode t = t.shell_mode
let name t = t.proc.Process.name

let input_stop t port =
  Ring_fifo.is_full t.fifos.(port) && t.drop_pending.(port) = 0

let required_mask t =
  match t.shell_mode with
  | Plain -> t.plain_mask
  | Oracle -> t.instance.Process.required ()

(* Every port [mask] names holds a token. *)
let has_required t mask =
  let ok = ref true in
  for p = 0 to Array.length mask - 1 do
    if mask.(p) && Ring_fifo.is_empty t.fifos.(p) then ok := false
  done;
  !ok

let oracle_ready t = has_required t (t.instance.Process.required ())
let ready t = has_required t (required_mask t)

let record t outputs =
  if t.record_traces then
    for p = 0 to Array.length outputs - 1 do
      t.traces.(p) <- outputs.(p) :: t.traces.(p)
    done

let fire t =
  let mask = required_mask t in
  if not (has_required t mask) then invalid_arg (name t ^ ": fire while not ready");
  (* Every slot is written, so no value of an earlier firing survives
     in a port this one skips. *)
  for p = 0 to Array.length mask - 1 do
    if mask.(p) then begin
      t.required_counts.(p) <- t.required_counts.(p) + 1;
      t.inputs.(p) <- Some (Ring_fifo.pop_exn t.fifos.(p))
    end
    else begin
      (* The oracle skips this port: the token of the current tag is
         useless.  Discard it now if buffered, or on arrival. *)
      if not (Ring_fifo.is_empty t.fifos.(p)) then begin
        Ring_fifo.drop_exn t.fifos.(p);
        t.dropped.(p) <- t.dropped.(p) + 1
      end
      else t.drop_pending.(p) <- t.drop_pending.(p) + 1;
      t.inputs.(p) <- None
    end
  done;
  let words = t.instance.Process.fire t.inputs in
  t.firings <- t.firings + 1;
  let outputs = Array.map (fun w -> Token.Valid w) words in
  record t outputs;
  outputs

let stall t ~reason =
  t.stalls <- t.stalls + 1;
  (match reason with
  | `Input -> t.input_starved <- t.input_starved + 1
  | `Output -> t.output_blocked <- t.output_blocked + 1);
  record t t.taus;
  t.taus

let accept t ~port tok =
  match tok with
  | Token.Void -> ()
  | Token.Valid v ->
    if t.drop_pending.(port) > 0 then begin
      t.drop_pending.(port) <- t.drop_pending.(port) - 1;
      t.dropped.(port) <- t.dropped.(port) + 1
    end
    else if not (Ring_fifo.push t.fifos.(port) v) then
      failwith
        (Printf.sprintf "Shell %s: token lost on port %s (stop protocol violated)"
           (name t)
           t.proc.Process.input_names.(port))

let halted t = t.instance.Process.halted ()

let stats t =
  {
    firings = t.firings;
    stalls = t.stalls;
    input_starved = t.input_starved;
    output_blocked = t.output_blocked;
    required_counts = Array.copy t.required_counts;
    dropped = Array.copy t.dropped;
  }

let output_trace t port = List.rev t.traces.(port)
let buffered t port = Ring_fifo.length t.fifos.(port)
