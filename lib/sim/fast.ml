(* Compiled, allocation-free simulation kernel.

   [Engine] is the readable reference interpreter: every cycle it boxes
   tokens ([Token.Valid]), allocates emission arrays, pops options out of
   ring FIFOs and walks channel lists through closures.  This module
   compiles a validated {!Network.t} into flat integer arrays once, then
   steps with zero heap allocation per cycle in the steady state (the
   only remaining allocations are inside the user-supplied
   [Process.instance] closures when a node actually fires, and trace
   conses when [record_traces] is requested).

   Layout (all indices are dense ints):
   - input ports are flattened: global id [ip = in_base.(node) + port];
     each FIFO is a preallocated [int array] plus head/len cursors —
     void never enters a FIFO, so no validity bit is needed there;
   - output ports are flattened the same way; per-cycle emissions live
     in [emit_val] with a parallel [emit_valid] bitmask instead of boxed
     [Token.t];
   - channels form a CSR adjacency: [out_chan_base]/[out_chan_ids] list
     each node's outgoing channels, and [chan_rs_base] gives each
     channel's slice of the global relay-station slot pool;
   - every relay station is the same 2-register micro-FIFO as
     {!Wp_lis.Relay_station}, stored as two int slots plus head/len.

   The step function reproduces the reference engine's three phases
   (stop propagation, firing, simultaneous shift) in the identical
   order, so outcomes, delivered counts, per-shell statistics and traces
   are byte-identical — the test battery asserts exactly that. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token
module Process = Wp_lis.Process

type t = {
  net : Network.t;
  engine_mode : Shell.mode;
  record_traces : bool;
  n_nodes : int;
  n_chans : int;
  instances : Process.instance array;
  (* input ports *)
  in_base : int array; (* n_nodes + 1 *)
  fifo_buf : int array array; (* per global input port *)
  fifo_head : int array;
  fifo_len : int array;
  fifo_cap : int; (* 0 = unbounded *)
  drop_pending : int array;
  required_counts : int array;
  dropped : int array;
  (* output ports *)
  out_base : int array; (* n_nodes + 1 *)
  emit_val : int array;
  emit_valid : bool array;
  traces : int Token.t list array; (* newest first; only if record_traces *)
  (* per-node stats and reusable scratch *)
  firings : int array;
  stalls : int array;
  input_starved : int array;
  output_blocked : int array;
  inputs_scratch : int option array array;
  plain_masks : bool array array;
  (* channels *)
  chan_src_op : int array;
  chan_dst_ip : int array;
  chan_rs_base : int array; (* n_chans + 1 *)
  chan_delivered : int array;
  producer_stop : bool array;
  out_chan_base : int array; (* n_nodes + 1 *)
  out_chan_ids : int array;
  fault : Fault.t option;
  telemetry : Telemetry.t option;
  (* link layer: protected channels bypass the relay pool entirely *)
  link : Link.t option;
  link_protected : bool array;
  link_can : (unit -> bool) array; (* per channel, tied after construction *)
  link_acc : (int -> unit) array;
  (* relay stations: 2 register slots each *)
  rs_val : int array; (* 2 * total_rs *)
  rs_head : int array;
  rs_len : int array;
  stage_stops : bool array;
  rs_out_val : int array;
  rs_out_valid : bool array;
  (* clocking *)
  mutable clock : int;
  mutable last_fired : bool;
  mutable quiet_cycles : int;
  quiescence : int;
}

(* ------------------------------------------------------------------ *)
(* FIFO primitives on the flattened pool                              *)
(* ------------------------------------------------------------------ *)

let fifo_is_empty t ip = t.fifo_len.(ip) = 0
let fifo_is_full t ip = t.fifo_cap > 0 && t.fifo_len.(ip) >= t.fifo_cap

let fifo_push t ip v =
  if fifo_is_full t ip then false
  else begin
    let buf = t.fifo_buf.(ip) in
    let size = Array.length buf in
    let buf =
      if t.fifo_len.(ip) = size then begin
        (* unbounded growth; never reached in bounded mode *)
        let fresh = Array.make (2 * size) 0 in
        for i = 0 to t.fifo_len.(ip) - 1 do
          fresh.(i) <- buf.((t.fifo_head.(ip) + i) mod size)
        done;
        t.fifo_buf.(ip) <- fresh;
        t.fifo_head.(ip) <- 0;
        fresh
      end
      else buf
    in
    let size = Array.length buf in
    buf.((t.fifo_head.(ip) + t.fifo_len.(ip)) mod size) <- v;
    t.fifo_len.(ip) <- t.fifo_len.(ip) + 1;
    true
  end

let fifo_pop t ip =
  let buf = t.fifo_buf.(ip) in
  let v = buf.(t.fifo_head.(ip)) in
  t.fifo_head.(ip) <- (t.fifo_head.(ip) + 1) mod Array.length buf;
  t.fifo_len.(ip) <- t.fifo_len.(ip) - 1;
  v

(* ------------------------------------------------------------------ *)
(* Compile                                                            *)
(* ------------------------------------------------------------------ *)

let create ?(capacity = 2) ?(record_traces = false) ?fault
    ?(telemetry = Telemetry.off) ~mode net =
  if capacity < 0 then invalid_arg "Fast.create: negative capacity";
  Network.validate net;
  let n_nodes = Network.node_count net in
  let n_chans = Network.channel_count net in
  let fault_rt =
    match fault with
    | None -> None
    | Some spec when Fault.is_none spec -> None
    | Some spec -> Some (Fault.make spec ~n_chans)
  in
  let procs = Array.init n_nodes (fun n -> Network.node_process net n) in
  let instances = Array.make n_nodes { Process.required = (fun () -> [||]); fire = (fun _ -> [||]); halted = (fun () -> false) } in
  for n = 0 to n_nodes - 1 do
    instances.(n) <- procs.(n).Process.make ()
  done;
  let prefix f =
    let base = Array.make (n_nodes + 1) 0 in
    for n = 0 to n_nodes - 1 do
      base.(n + 1) <- base.(n) + f procs.(n)
    done;
    base
  in
  let in_base = prefix Process.n_inputs in
  let out_base = prefix Process.n_outputs in
  let n_in_total = in_base.(n_nodes) in
  let n_out_total = out_base.(n_nodes) in
  let initial_fifo = max 1 (if capacity = 0 then 8 else capacity) in
  (* channels *)
  let chan_src_op = Array.make (max 1 n_chans) 0 in
  let chan_dst_ip = Array.make (max 1 n_chans) 0 in
  let chan_src_node = Array.make (max 1 n_chans) 0 in
  let chan_rs_base = Array.make (n_chans + 1) 0 in
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net c in
    let dst_node, dst_port = Network.channel_dst net c in
    chan_src_node.(c) <- src_node;
    chan_src_op.(c) <- out_base.(src_node) + src_port;
    chan_dst_ip.(c) <- in_base.(dst_node) + dst_port;
    chan_rs_base.(c + 1) <- chan_rs_base.(c) + Network.relay_stations net c
  done;
  let total_rs = chan_rs_base.(n_chans) in
  (* CSR of outgoing channels per node, channels in increasing order *)
  let out_chan_base = Array.make (n_nodes + 1) 0 in
  for c = 0 to n_chans - 1 do
    let n = chan_src_node.(c) in
    out_chan_base.(n + 1) <- out_chan_base.(n + 1) + 1
  done;
  for n = 0 to n_nodes - 1 do
    out_chan_base.(n + 1) <- out_chan_base.(n + 1) + out_chan_base.(n)
  done;
  let out_chan_ids = Array.make (max 1 n_chans) 0 in
  let cursor = Array.copy out_chan_base in
  for c = 0 to n_chans - 1 do
    let n = chan_src_node.(c) in
    out_chan_ids.(cursor.(n)) <- c;
    cursor.(n) <- cursor.(n) + 1
  done;
  let link = Link.make ?fault:fault_rt net in
  let link_protected = Array.make (max 1 n_chans) false in
  (match link with
  | Some l ->
      for c = 0 to n_chans - 1 do
        link_protected.(c) <- Link.is_protected l ~chan:c
      done
  | None -> ());
  let quiescence =
    16
    + (4 * (n_nodes + n_chans + total_rs))
    + (match link with Some l -> Link.quiescence_bonus l | None -> 0)
  in
  let no_can () = false in
  let t =
    {
      net;
      engine_mode = mode;
      record_traces;
      n_nodes;
      n_chans;
      instances;
      in_base;
      fifo_buf = Array.init n_in_total (fun _ -> Array.make initial_fifo 0);
      fifo_head = Array.make (max 1 n_in_total) 0;
      fifo_len = Array.make (max 1 n_in_total) 0;
      fifo_cap = capacity;
      drop_pending = Array.make (max 1 n_in_total) 0;
      required_counts = Array.make (max 1 n_in_total) 0;
      dropped = Array.make (max 1 n_in_total) 0;
      out_base;
      emit_val = Array.make (max 1 n_out_total) 0;
      emit_valid = Array.make (max 1 n_out_total) false;
      traces = Array.make (max 1 n_out_total) [];
      firings = Array.make (max 1 n_nodes) 0;
      stalls = Array.make (max 1 n_nodes) 0;
      input_starved = Array.make (max 1 n_nodes) 0;
      output_blocked = Array.make (max 1 n_nodes) 0;
      inputs_scratch =
        Array.init n_nodes (fun n -> Array.make (Process.n_inputs procs.(n)) None);
      plain_masks =
        Array.init n_nodes (fun n -> Array.make (Process.n_inputs procs.(n)) true);
      chan_src_op;
      chan_dst_ip;
      chan_rs_base;
      chan_delivered = Array.make (max 1 n_chans) 0;
      producer_stop = Array.make (max 1 n_chans) false;
      out_chan_base;
      out_chan_ids;
      fault = fault_rt;
      telemetry = Telemetry.make telemetry net;
      link;
      link_protected;
      link_can = Array.make (max 1 n_chans) no_can;
      link_acc = Array.make (max 1 n_chans) ignore;
      rs_val = Array.make (max 1 (2 * total_rs)) 0;
      rs_head = Array.make (max 1 total_rs) 0;
      rs_len = Array.make (max 1 total_rs) 0;
      stage_stops = Array.make (max 1 total_rs) false;
      rs_out_val = Array.make (max 1 total_rs) 0;
      rs_out_valid = Array.make (max 1 total_rs) false;
      clock = 0;
      last_fired = false;
      quiet_cycles = 0;
      quiescence;
    }
  in
  (* Tie the per-channel consumer-side hooks for protected channels —
     they capture [t], so they can only be built now.  They are
     allocated once here; the per-cycle path reuses them. *)
  for c = 0 to n_chans - 1 do
    if link_protected.(c) then begin
      let ip = chan_dst_ip.(c) in
      t.link_can.(c) <-
        (fun () -> not (fifo_is_full t ip && t.drop_pending.(ip) = 0));
      t.link_acc.(c) <-
        (fun v ->
          t.chan_delivered.(c) <- t.chan_delivered.(c) + 1;
          if t.drop_pending.(ip) > 0 then begin
            t.drop_pending.(ip) <- t.drop_pending.(ip) - 1;
            t.dropped.(ip) <- t.dropped.(ip) + 1
          end
          else if not (fifo_push t ip v) then
            failwith "Fast shell: token lost (stop protocol violated)")
    end
  done;
  (* Reset: one initial token per channel — the reset value of the
     producer's output register, latched in the consumer FIFO. *)
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net c in
    let reset_value = procs.(src_node).Process.reset_outputs.(src_port) in
    ignore (fifo_push t chan_dst_ip.(c) reset_value);
    match fault_rt with
    | Some f -> Fault.note_reset f ~chan:c ~value:reset_value
    | None -> ()
  done;
  t

let cycles t = t.clock
let mode t = t.engine_mode
let network t = t.net
let delivered t c = t.chan_delivered.(c)
let fired_last_cycle t = t.last_fired
let quiescence_window t = t.quiescence

let fault_injections t =
  match t.fault with Some f -> Fault.injections f | None -> 0

let link_stats t = match t.link with Some l -> Link.stats l | None -> []
let link_summary t = Option.map Link.summary t.link

let telemetry_report t =
  Option.map
    (fun tl -> Telemetry.report_of tl ~link:(link_summary t))
    t.telemetry
let buffered t node port = t.fifo_len.(t.in_base.(node) + port)

let node_stats t n =
  let lo = t.in_base.(n) and hi = t.in_base.(n + 1) in
  {
    Shell.firings = t.firings.(n);
    stalls = t.stalls.(n);
    input_starved = t.input_starved.(n);
    output_blocked = t.output_blocked.(n);
    required_counts = Array.sub t.required_counts lo (hi - lo);
    dropped = Array.sub t.dropped lo (hi - lo);
  }

let output_trace t node port = List.rev t.traces.(t.out_base.(node) + port)

(* ------------------------------------------------------------------ *)
(* Step                                                               *)
(* ------------------------------------------------------------------ *)

let step t =
  (* Phase 1: propagate stops backwards along each relay chain. *)
  for c = 0 to t.n_chans - 1 do
    if t.link_protected.(c) then
      (* Link-owned wire: producer stalls on window/credit exhaustion,
         never on a propagated stop. *)
      t.producer_stop.(c) <-
        (match t.link with
        | Some l -> Link.producer_stop l ~chan:c
        | None -> false)
    else begin
    let ip = t.chan_dst_ip.(c) in
    let stop =
      ref
        ((fifo_is_full t ip && t.drop_pending.(ip) = 0)
        ||
        match t.fault with
        | None -> false
        | Some f -> Fault.stalled f ~cycle:t.clock ~chan:c)
    in
    let base = t.chan_rs_base.(c) in
    for i = t.chan_rs_base.(c + 1) - 1 - base downto 0 do
      let r = base + i in
      t.stage_stops.(r) <- !stop;
      (* stop_out = stop_in && both registers full *)
      stop := !stop && t.rs_len.(r) >= 2
    done;
    t.producer_stop.(c) <- !stop
    end
  done;
  (match t.telemetry with
  | None -> ()
  | Some tl ->
      (* Start-of-cycle observables, in the same channel order as the
         reference engine — written straight into the runtime's scratch
         (the bulk protocol; one cross-module call per phase, not per
         element). *)
      let occ = Telemetry.occ_scratch tl
      and stop = Telemetry.stop_scratch tl in
      for c = 0 to t.n_chans - 1 do
        occ.(c) <- t.fifo_len.(t.chan_dst_ip.(c));
        stop.(c) <- t.producer_stop.(c)
      done);
  (* Phase 2: firing decisions, emissions into the flat scratch. *)
  let tel_cls =
    match t.telemetry with
    | None -> None
    | Some tl -> Some (Telemetry.cls_scratch tl)
  in
  let fired_any = ref false in
  for n = 0 to t.n_nodes - 1 do
    let outputs_clear =
      let ok = ref true in
      for j = t.out_chan_base.(n) to t.out_chan_base.(n + 1) - 1 do
        if t.producer_stop.(t.out_chan_ids.(j)) then ok := false
      done;
      !ok
    in
    let n_in = t.in_base.(n + 1) - t.in_base.(n) in
    let mask =
      match t.engine_mode with
      | Shell.Plain -> t.plain_masks.(n)
      | Shell.Oracle -> (t.instances.(n)).Process.required ()
    in
    let ready = ref true in
    for p = 0 to n_in - 1 do
      if mask.(p) && fifo_is_empty t (t.in_base.(n) + p) then ready := false
    done;
    let op0 = t.out_base.(n) in
    let n_out = t.out_base.(n + 1) - op0 in
    (match tel_cls with
    | None -> ()
    | Some cls ->
        (* Class codes written directly into the telemetry scratch; the
           decision tree mirrors Telemetry.classify / cls_code exactly
           (the cross-engine differential tests pin the agreement), with
           each predicate evaluated only on the branch that needs it. *)
        let code =
          if !ready && outputs_clear then 0 (* fired *)
          else if !ready then begin
            (* first refusing output channel in CSR (increasing channel)
               order — matches the reference engine's list scan *)
            let first = ref (-1) in
            let j = ref t.out_chan_base.(n) in
            while !first < 0 && !j < t.out_chan_base.(n + 1) do
              let c = t.out_chan_ids.(!j) in
              if t.producer_stop.(c) then first := c;
              incr j
            done;
            if !first >= 0 && t.link_protected.(!first) then 4 (* link-credit *)
            else 3 (* output-backpressure *)
          end
          else if
            outputs_clear
            &&
            let omask = (t.instances.(n)).Process.required () in
            let ok = ref true in
            for p = 0 to n_in - 1 do
              if omask.(p) && fifo_is_empty t (t.in_base.(n) + p) then
                ok := false
            done;
            !ok
          then 1 (* oracle-skip *)
          else 2 (* missing-input *)
        in
        cls.(n) <- code);
    if !ready && outputs_clear then begin
      fired_any := true;
      let inputs = t.inputs_scratch.(n) in
      for p = 0 to n_in - 1 do
        let ip = t.in_base.(n) + p in
        if mask.(p) then begin
          t.required_counts.(ip) <- t.required_counts.(ip) + 1;
          inputs.(p) <- Some (fifo_pop t ip)
        end
        else begin
          (* Oracle skip: the token of the current tag is useless —
             discard it now if buffered, or on arrival. *)
          if not (fifo_is_empty t ip) then begin
            ignore (fifo_pop t ip);
            t.dropped.(ip) <- t.dropped.(ip) + 1
          end
          else t.drop_pending.(ip) <- t.drop_pending.(ip) + 1;
          inputs.(p) <- None
        end
      done;
      let words = (t.instances.(n)).Process.fire inputs in
      t.firings.(n) <- t.firings.(n) + 1;
      for q = 0 to n_out - 1 do
        t.emit_val.(op0 + q) <- words.(q);
        t.emit_valid.(op0 + q) <- true
      done;
      if t.record_traces then
        for q = 0 to n_out - 1 do
          t.traces.(op0 + q) <- Token.Valid words.(q) :: t.traces.(op0 + q)
        done
    end
    else begin
      t.stalls.(n) <- t.stalls.(n) + 1;
      if !ready then t.output_blocked.(n) <- t.output_blocked.(n) + 1
      else t.input_starved.(n) <- t.input_starved.(n) + 1;
      for q = 0 to n_out - 1 do
        t.emit_valid.(op0 + q) <- false
      done;
      if t.record_traces then
        for q = 0 to n_out - 1 do
          t.traces.(op0 + q) <- Token.Void :: t.traces.(op0 + q)
        done
    end
  done;
  (* Phase 3: simultaneous shift — all relay emissions are computed from
     the pre-shift state before any acceptance. *)
  for c = 0 to t.n_chans - 1 do
    if t.link_protected.(c) then begin
      let op = t.chan_src_op.(c) in
      let link = match t.link with Some l -> l | None -> assert false in
      Link.channel_step link ~chan:c ~cycle:t.clock
        ~produced_valid:t.emit_valid.(op) ~produced_value:t.emit_val.(op)
        ~can_accept:t.link_can.(c) ~accept:t.link_acc.(c)
    end
    else begin
    let op = t.chan_src_op.(c) in
    let base = t.chan_rs_base.(c) in
    let k = t.chan_rs_base.(c + 1) - base in
    let tc_valid, tc_val =
      if k = 0 then (t.emit_valid.(op), t.emit_val.(op))
      else begin
        for i = 0 to k - 1 do
          let r = base + i in
          if t.stage_stops.(r) || t.rs_len.(r) = 0 then t.rs_out_valid.(r) <- false
          else begin
            t.rs_out_valid.(r) <- true;
            t.rs_out_val.(r) <- t.rs_val.((2 * r) + t.rs_head.(r));
            t.rs_head.(r) <- 1 - t.rs_head.(r);
            t.rs_len.(r) <- t.rs_len.(r) - 1
          end
        done;
        let accept r v =
          if t.rs_len.(r) >= 2 then
            failwith "Fast relay station: datum lost (stop protocol violated)"
          else begin
            t.rs_val.((2 * r) + ((t.rs_head.(r) + t.rs_len.(r)) land 1)) <- v;
            t.rs_len.(r) <- t.rs_len.(r) + 1
          end
        in
        if t.emit_valid.(op) then accept base t.emit_val.(op);
        for i = 1 to k - 1 do
          if t.rs_out_valid.(base + i - 1) then accept (base + i) t.rs_out_val.(base + i - 1)
        done;
        (t.rs_out_valid.(base + k - 1), t.rs_out_val.(base + k - 1))
      end
    in
    (match t.fault with
    | None ->
        if tc_valid then begin
          t.chan_delivered.(c) <- t.chan_delivered.(c) + 1;
          let ip = t.chan_dst_ip.(c) in
          if t.drop_pending.(ip) > 0 then begin
            t.drop_pending.(ip) <- t.drop_pending.(ip) - 1;
            t.dropped.(ip) <- t.dropped.(ip) + 1
          end
          else if not (fifo_push t ip tc_val) then
            failwith "Fast shell: token lost (stop protocol violated)"
        end
    | Some f ->
        let ip = t.chan_dst_ip.(c) in
        Fault.deliver f ~chan:c ~valid:tc_valid ~value:tc_val
          ~can_accept:(fun () ->
            not (fifo_is_full t ip && t.drop_pending.(ip) = 0))
          ~accept:(fun v ->
            t.chan_delivered.(c) <- t.chan_delivered.(c) + 1;
            if t.drop_pending.(ip) > 0 then begin
              t.drop_pending.(ip) <- t.drop_pending.(ip) - 1;
              t.dropped.(ip) <- t.dropped.(ip) + 1
            end
            else if not (fifo_push t ip v) then
              failwith "Fast shell: token lost (stop protocol violated)"))
    end
  done;
  (match t.telemetry with
  | None -> ()
  | Some tl -> Telemetry.commit_cycle tl ~delivered:t.chan_delivered);
  t.clock <- t.clock + 1;
  t.last_fired <- !fired_any;
  if !fired_any then t.quiet_cycles <- 0 else t.quiet_cycles <- t.quiet_cycles + 1

let any_halted t =
  let n = ref 0 and halted = ref false in
  while (not !halted) && !n < t.n_nodes do
    if (t.instances.(!n)).Process.halted () then halted := true;
    incr n
  done;
  !halted

let run ?(cancel = Wp_util.Cancel.never) ?(max_cycles = 1_000_000) t =
  let poll = not (Wp_util.Cancel.is_never cancel) in
  let rec loop () =
    if any_halted t then Engine.Halted t.clock
    else if t.quiet_cycles > t.quiescence then Engine.Deadlocked t.clock
    else if t.clock >= max_cycles then Engine.Exhausted t.clock
    else if
      poll
      && t.clock land (Engine.cancel_interval - 1) = 0
      && Wp_util.Cancel.cancelled cancel
    then Engine.Cancelled t.clock
    else begin
      step t;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* MCR-guided cycle bounds                                            *)
(* ------------------------------------------------------------------ *)

(* The network is a marked graph: every channel holds exactly one
   initial token at reset, and a token needs [1 + relay_stations]
   cycles to traverse a channel (the producer's register plus one per
   relay station).  The sustainable throughput of any loop with [m]
   processes and [n] relay stations is therefore [m / (m + n)], and the
   system bound is the minimum over loops — the minimum cycle ratio
   with cost 1 and time [1 + rs] per edge, clamped at one token per
   cycle (an acyclic network is source-limited). *)
let throughput_bound net =
  let module Cycle_ratio = Wp_graph.Cycle_ratio in
  let g, chan_of_edge = Network.to_digraph net in
  let ratio, _ =
    Cycle_ratio.throughput_bound
      (Cycle_ratio.minimum g
         ~cost:(fun _ -> 1)
         ~time:(fun e -> 1 + Network.relay_stations net (chan_of_edge e)))
  in
  Cycle_ratio.ratio_to_float ratio

let cycle_bound ?(slack_num = 1) ?(slack_den = 4) ~work_cycles net =
  if work_cycles < 0 then invalid_arg "Fast.cycle_bound: negative work";
  let th = throughput_bound net in
  let total_rs =
    List.fold_left (fun acc c -> acc + Network.relay_stations net c) 0 (Network.channels net)
  in
  let structure = Network.node_count net + Network.channel_count net + total_rs in
  let base = int_of_float (ceil (float_of_int work_cycles /. th)) in
  (* Engineering margin: finite (capacity-2) shell FIFOs can run a few
     percent below the marked-graph bound on long loops, and the run
     needs headroom for pipeline fill/drain plus a full quiescence
     window for deadlock detection.  Callers that must be exact treat an
     [Exhausted] at this bound as "re-run with the full budget". *)
  base + (base * slack_num / slack_den) + 64 + (8 * structure)
