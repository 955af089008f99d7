(* Compiled, allocation-free handshake kernel.

   [Engine] is the readable reference interpreter: every cycle it boxes
   tokens ([Token.Valid]), allocates emission arrays, pops options out of
   ring FIFOs and walks channel lists through closures.  This module
   compiles validated networks into flat integer arrays once, then steps
   them with zero heap allocation per cycle in the steady state (the
   only remaining allocations are inside the user-supplied
   [Process.instance] closures when a node actually fires, and trace
   conses when [record_traces] is requested).

   It is the library's only compiled handshake loop.  One kernel steps
   [L] independent lanes sharing one topology signature: a solo
   [create] is a one-lane kernel, and the batch kernel's dynamic lanes
   (Oracle mode, faults) are a many-lane one.  Each lane has its own
   process instances, relay-station counts, FIFO capacity, fault
   program and link layer.  The same step records the table-replay
   kernel's firing tables ([record]), and both kernels run in one lane
   loop ([roster]).

   Layout (all indices are dense ints):
   - ports and channels follow [meta_of]: global input port
     [in_base.(node) + port], output ports likewise, and a CSR list of
     each node's outgoing channels in increasing channel order;
   - lane state is structure-of-arrays: entity [e] (input port, output
     port, channel or node) of lane [l] lives at [e * L + l], so the
     lane-inner loops touch adjacent cells and per-entity setup is
     amortized across lanes;
   - each FIFO is a ring of [stride] slots in [fifo_buf] — void never
     enters a FIFO, so no validity bit is needed there — and per-cycle
     emissions live in [emit_val] with a parallel [emit_valid] bitmask
     instead of boxed [Token.t];
   - every relay station is the same 2-register micro-FIFO as
     {!Wp_lis.Relay_station}, stored as two int slots plus head/len in
     a pool where each (channel, lane) owns a slice.

   The step reproduces the reference engine's three phases (stop
   propagation, firing, simultaneous shift) in the identical order, so
   outcomes, delivered counts, per-shell statistics and traces are
   byte-identical — the test batteries assert exactly that.

   Three features are rare, so per-kernel flags guard them outside the
   lane loops, and a kernel without them pays one branch per phase:
   - link protection ([linked]): the link layer owns a protected wire,
     so the channel gets no relay slots, its producer stop comes from
     {!Link.producer_stop}, and its shift is {!Link.channel_step};
   - unbounded FIFOs ([unbounded]): before each shift every such ring
     keeps room for what one cycle can bring, doubling [stride] when it
     runs short;
   - telemetry ([tel]), on one-lane kernels only, through the runtime's
     bulk scratch protocol. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token
module Process = Wp_lis.Process

(* ------------------------------------------------------------------ *)
(* Shared CSR layout                                                  *)
(* ------------------------------------------------------------------ *)

(* Flattened topology: both compiled kernels read the same arrays,
   derived once here from a network. *)
type meta = {
  m_n_nodes : int;
  m_n_chans : int;
  m_in_base : int array;
  m_out_base : int array;
  m_chan_src_op : int array;
  m_chan_dst_ip : int array;
  m_chan_rs_base : int array;
  m_out_chan_base : int array;
  m_out_chan_ids : int array;
  m_ip_chan : int array;
  m_op_chan : int array;
}

let meta_of net =
  let n_nodes = Network.node_count net in
  let n_chans = Network.channel_count net in
  let procs = Array.init n_nodes (fun n -> Network.node_process net n) in
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
  let chan_src_op = Array.make (max 1 n_chans) 0 in
  let chan_dst_ip = Array.make (max 1 n_chans) 0 in
  let chan_src_node = Array.make (max 1 n_chans) 0 in
  let chan_rs_base = Array.make (n_chans + 1) 0 in
  let ip_chan = Array.make (max 1 n_in_total) (-1) in
  let op_chan = Array.make (max 1 n_out_total) (-1) in
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net c in
    let dst_node, dst_port = Network.channel_dst net c in
    chan_src_node.(c) <- src_node;
    chan_src_op.(c) <- out_base.(src_node) + src_port;
    chan_dst_ip.(c) <- in_base.(dst_node) + dst_port;
    ip_chan.(chan_dst_ip.(c)) <- c;
    op_chan.(chan_src_op.(c)) <- c;
    chan_rs_base.(c + 1) <- chan_rs_base.(c) + Network.relay_stations net c
  done;
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
  {
    m_n_nodes = n_nodes;
    m_n_chans = n_chans;
    m_in_base = in_base;
    m_out_base = out_base;
    m_chan_src_op = chan_src_op;
    m_chan_dst_ip = chan_dst_ip;
    m_chan_rs_base = chan_rs_base;
    m_out_chan_base = out_chan_base;
    m_out_chan_ids = out_chan_ids;
    m_ip_chan = ip_chan;
    m_op_chan = op_chan;
  }

(* ------------------------------------------------------------------ *)
(* The lane loop                                                      *)
(* ------------------------------------------------------------------ *)

(* What both compiled kernels share: the running set, the clock and each
   lane's finish.  A kernel's [advance] steps every running lane by one
   cycle, sets [halt_flag] right after a firing that halts, updates
   [quiet] and bumps [clock]. *)
type roster = {
  mutable clock : int;
  act : int array; (* running lane ids, first n_act entries *)
  mutable n_act : int;
  halt_flag : Bytes.t; (* per lane, sticky *)
  quiet : int array; (* per lane: cycles since a shell last fired *)
  quiescence : int array; (* per lane: the deadlock window *)
  finished : Engine.outcome option array; (* per lane *)
  lane_end : int array; (* per lane: clock at finish *)
}

(* [instances] are laid out [n * L + l].  A process can be terminal at
   reset; the first check must see it. *)
let roster ~quiescence instances =
  let n_lanes = Array.length quiescence in
  let halt_flag = Bytes.make n_lanes '\000' in
  Array.iteri
    (fun i inst ->
      if inst.Process.halted () then Bytes.set halt_flag (i mod n_lanes) '\001')
    instances;
  {
    clock = 0;
    act = Array.init n_lanes Fun.id;
    n_act = n_lanes;
    halt_flag;
    quiet = Array.make n_lanes 0;
    quiescence;
    finished = Array.make n_lanes None;
    lane_end = Array.make n_lanes 0;
  }

(* Lanes whose state is at the current clock — all of them at creation,
   those that finished at this clock after a run — step again, so a run
   can be resumed with a larger budget. *)
let reopen r =
  r.n_act <- 0;
  for l = 0 to Array.length r.finished - 1 do
    if Option.is_none r.finished.(l) || r.lane_end.(l) = r.clock then begin
      r.finished.(l) <- None;
      r.act.(r.n_act) <- l;
      r.n_act <- r.n_act + 1
    end
  done

let run_roster r advance k ~budgets ~cancels =
  reopen r;
  let has_cancel = Array.exists (fun c -> not (Wp_util.Cancel.is_never c)) cancels in
  while r.n_act > 0 do
    (* The termination check, in Engine.run's order: halt, quiescence
       window, the cycle budget, then the cancellation poll (every
       [Engine.cancel_interval] cycles, one clock sample per round).  A
       finished or cancelled lane leaves the running set, so the others
       keep byte-identical results. *)
    let poll_cancel =
      has_cancel && r.clock land (Engine.cancel_interval - 1) = 0
    in
    let now = if poll_cancel then Wp_util.Cancel.now () else 0. in
    let w = ref 0 in
    for a = 0 to r.n_act - 1 do
      let l = r.act.(a) in
      let fin =
        if Bytes.unsafe_get r.halt_flag l = '\001' then Some (Engine.Halted r.clock)
        else if r.quiet.(l) > r.quiescence.(l) then Some (Engine.Deadlocked r.clock)
        else if r.clock >= budgets.(l) then Some (Engine.Exhausted r.clock)
        else if poll_cancel && Wp_util.Cancel.cancelled_at ~now cancels.(l) then
          Some (Engine.Cancelled r.clock)
        else None
      in
      match fin with
      | Some _ ->
        r.finished.(l) <- fin;
        r.lane_end.(l) <- r.clock
      | None ->
        r.act.(!w) <- l;
        incr w
    done;
    r.n_act <- !w;
    if r.n_act > 0 then advance k
  done;
  Array.map Option.get r.finished

let lane_cycles r lane =
  match r.finished.(lane) with Some _ -> r.lane_end.(lane) | None -> r.clock

(* Lane state lives in plain [int array]s: the element type is known
   statically, so reads and writes compile to bare loads and stores. *)
type ia = int array

type lane = {
  net : Network.t;
  mode : Shell.mode;
  capacity : int;
  fault : Fault.spec;
  max_cycles : int;
  cancel : Wp_util.Cancel.t;
}

type t = {
  n_lanes : int;
  n_nodes : int;
  n_chans : int;
  n_in : int; (* input ports per lane *)
  record_traces : bool;
  nets : Network.t array; (* per lane *)
  oracle : bool array; (* per lane *)
  cap : int array; (* per lane: a FIFO is full at [cap]; max_int if unbounded *)
  ring : int array; (* per lane: FIFO ring size; [cap] when bounded *)
  unbounded : bool; (* some lane has unbounded FIFOs *)
  mutable stride : int; (* ring slots per (input port, lane) *)
  faults : Fault.t option array; (* per lane *)
  links : Link.t option array; (* per lane *)
  linked : bool; (* some lane protects a channel *)
  tel : Telemetry.t option; (* one-lane kernels only *)
  (* shared structure: the lanes' common layout *)
  in_base : int array; (* n_nodes + 1 *)
  out_base : int array; (* n_nodes + 1 *)
  chan_src_op : int array;
  chan_dst_ip : int array;
  out_chan_base : int array; (* n_nodes + 1 *)
  out_chan_ids : int array;
  instances : Process.instance array; (* [n * L + l] *)
  inputs_scratch : int option array array;
      (* per node, reused every cycle: a [Some v] store into an old
         slot enters the remembered set at most once per minor
         collection, so reuse is cheaper than reallocating *)
  plain_masks : bool array array; (* per node *)
  (* SoA lane state; cell index is [entity * L + lane] unless noted *)
  mutable fifo_buf : ia; (* [(ip * L + l) * stride + slot], ring mod ring.(l) *)
  fifo_head : ia;
  fifo_len : ia;
  drop_pending : ia;
  required_counts : ia;
  dropped : ia;
  emit_val : ia;
  emit_valid : Bytes.t;
  firings : ia;
  stalls : ia;
  input_starved : ia;
  output_blocked : ia;
  chan_delivered : ia;
  producer_stop : Bytes.t;
  hook : Bytes.t;
      (* per (chan, lane): how the shift delivers — '\000' straight into
         the FIFO, '\001' through Fault.deliver, '\002' through the link *)
  rs_off : int array; (* n_chans * L *)
  rs_cnt : int array; (* n_chans * L *)
  rs_val : ia; (* 2 * total_slots *)
  rs_head : ia;
  rs_len : ia;
  stage_stops : Bytes.t;
  rs_out_val : ia;
  rs_out_valid : Bytes.t;
  (* consumer hooks of faulted and protected (chan, lane), at [c * L + l] *)
  f_can : (unit -> bool) array;
  f_acc : (int -> unit) array;
  traces : int Token.t list array; (* [(out_port * L) + l]; newest first *)
  ro : roster;
  fired : Bytes.t; (* per lane, per-cycle scratch *)
}

let ia n = Array.make (max 1 n) 0

let token_lost () = failwith "Fast shell: token lost (stop protocol violated)"

(* Push onto the FIFO of input port-lane [ipl]. *)
let push t ipl l v =
  let len = t.fifo_len.(ipl) in
  if len >= t.cap.(l) then token_lost ();
  let r = t.ring.(l) in
  let slot = t.fifo_head.(ipl) + len in
  let slot = if slot >= r then slot - r else slot in
  t.fifo_buf.((ipl * t.stride) + slot) <- v;
  t.fifo_len.(ipl) <- len + 1

let rs_accept t r v =
  let len = Array.unsafe_get t.rs_len r in
  if len >= 2 then
    failwith "Fast relay station: datum lost (stop protocol violated)";
  Array.unsafe_set t.rs_val ((2 * r) + ((Array.unsafe_get t.rs_head r + len) land 1)) v;
  Array.unsafe_set t.rs_len r (len + 1)

(* ------------------------------------------------------------------ *)
(* Compile                                                            *)
(* ------------------------------------------------------------------ *)

(* Lanes agree on the topology signature; [telemetry] needs one lane.
   [instances] default to fresh ones made from the lanes' processes. *)
let compile ?instances ~record_traces ~telemetry lanes =
  let n_lanes = Array.length lanes in
  let net0 = lanes.(0).net in
  let m = meta_of net0 in
  let n_nodes = m.m_n_nodes and n_chans = m.m_n_chans in
  let in_base = m.m_in_base and out_base = m.m_out_base in
  let chan_dst_ip = m.m_chan_dst_ip in
  let n_in = in_base.(n_nodes) and n_out = out_base.(n_nodes) in
  let faults =
    Array.map
      (fun ln ->
        if Fault.is_none ln.fault then None
        else Some (Fault.make ln.fault ~n_chans))
      lanes
  in
  let links = Array.mapi (fun l ln -> Link.make ?fault:faults.(l) ln.net) lanes in
  let rs l c = Network.relay_stations lanes.(l).net c in
  (* Relay pool: per-(chan, lane) slices, lanes of a channel contiguous.
     A protected wire belongs to its link layer and gets no slots. *)
  let rs_off = ia (n_chans * n_lanes) and rs_cnt = ia (n_chans * n_lanes) in
  let hook = Bytes.make (max 1 (n_chans * n_lanes)) '\000' in
  let slots = ref 0 in
  for c = 0 to n_chans - 1 do
    for l = 0 to n_lanes - 1 do
      let cl = (c * n_lanes) + l in
      match links.(l) with
      | Some k when Link.is_protected k ~chan:c -> Bytes.set hook cl '\002'
      | _ ->
        if Option.is_some faults.(l) then Bytes.set hook cl '\001';
        rs_off.(cl) <- !slots;
        rs_cnt.(cl) <- rs l c;
        slots := !slots + rs l c
    done
  done;
  let quiescence =
    Array.mapi
      (fun l ln ->
        let total_rs =
          List.fold_left (fun acc c -> acc + rs l c) 0 (Network.channels ln.net)
        in
        16
        + (4 * (n_nodes + n_chans + total_rs))
        + match links.(l) with Some k -> Link.quiescence_bonus k | None -> 0)
      lanes
  in
  let stride =
    Array.fold_left
      (fun acc ln -> max acc (if ln.capacity = 0 then 8 else ln.capacity))
      1 lanes
  in
  let instances =
    match instances with
    | Some i -> i
    | None ->
      Array.init (n_nodes * n_lanes) (fun i ->
          (Network.node_process lanes.(i mod n_lanes).net (i / n_lanes))
            .Process.make ())
  in
  let n_inputs n = in_base.(n + 1) - in_base.(n) in
  let no_can () = false in
  let t =
    {
      n_lanes;
      n_nodes;
      n_chans;
      n_in;
      record_traces;
      nets = Array.map (fun ln -> ln.net) lanes;
      oracle = Array.map (fun ln -> ln.mode = Shell.Oracle) lanes;
      cap = Array.map (fun ln -> if ln.capacity = 0 then max_int else ln.capacity) lanes;
      ring = Array.map (fun ln -> if ln.capacity = 0 then stride else ln.capacity) lanes;
      unbounded = Array.exists (fun ln -> ln.capacity = 0) lanes;
      stride;
      faults;
      links;
      linked = Array.exists Option.is_some links;
      tel = Telemetry.make telemetry net0;
      in_base;
      out_base;
      chan_src_op = m.m_chan_src_op;
      chan_dst_ip;
      out_chan_base = m.m_out_chan_base;
      out_chan_ids = m.m_out_chan_ids;
      instances;
      inputs_scratch = Array.init n_nodes (fun n -> Array.make (n_inputs n) None);
      plain_masks = Array.init n_nodes (fun n -> Array.make (n_inputs n) true);
      fifo_buf = ia (n_in * n_lanes * stride);
      fifo_head = ia (n_in * n_lanes);
      fifo_len = ia (n_in * n_lanes);
      drop_pending = ia (n_in * n_lanes);
      required_counts = ia (n_in * n_lanes);
      dropped = ia (n_in * n_lanes);
      emit_val = ia (n_out * n_lanes);
      emit_valid = Bytes.make (max 1 (n_out * n_lanes)) '\000';
      firings = ia (n_nodes * n_lanes);
      stalls = ia (n_nodes * n_lanes);
      input_starved = ia (n_nodes * n_lanes);
      output_blocked = ia (n_nodes * n_lanes);
      chan_delivered = ia (n_chans * n_lanes);
      producer_stop = Bytes.make (max 1 (n_chans * n_lanes)) '\000';
      hook;
      rs_off;
      rs_cnt;
      rs_val = ia (2 * !slots);
      rs_head = ia !slots;
      rs_len = ia !slots;
      stage_stops = Bytes.make (max 1 !slots) '\000';
      rs_out_val = ia !slots;
      rs_out_valid = Bytes.make (max 1 !slots) '\000';
      f_can = Array.make (max 1 (n_chans * n_lanes)) no_can;
      f_acc = Array.make (max 1 (n_chans * n_lanes)) ignore;
      traces = Array.make (max 1 (n_out * n_lanes)) [];
      ro = roster ~quiescence instances;
      fired = Bytes.make n_lanes '\000';
    }
  in
  (* Consumer hooks for Fault.deliver and Link.channel_step need live
     closures: allocate them once here, not per cycle. *)
  for c = 0 to n_chans - 1 do
    for l = 0 to n_lanes - 1 do
      let cl = (c * n_lanes) + l in
      if Bytes.get hook cl <> '\000' then begin
        let ipl = (chan_dst_ip.(c) * n_lanes) + l in
        t.f_can.(cl) <-
          (fun () ->
            not (t.fifo_len.(ipl) >= t.cap.(l) && t.drop_pending.(ipl) = 0));
        t.f_acc.(cl) <-
          (fun v ->
            t.chan_delivered.(cl) <- t.chan_delivered.(cl) + 1;
            if t.drop_pending.(ipl) > 0 then begin
              t.drop_pending.(ipl) <- t.drop_pending.(ipl) - 1;
              t.dropped.(ipl) <- t.dropped.(ipl) + 1
            end
            else push t ipl l v)
      end
    done
  done;
  (* Reset: one initial token per channel per lane — the reset value of
     the producer's output register, latched in the consumer FIFO. *)
  for l = 0 to n_lanes - 1 do
    for c = 0 to n_chans - 1 do
      let src_node, src_port = Network.channel_src net0 c in
      let v =
        (Network.node_process lanes.(l).net src_node).Process.reset_outputs
          .(src_port)
      in
      push t ((chan_dst_ip.(c) * n_lanes) + l) l v;
      Option.iter (fun f -> Fault.note_reset f ~chan:c ~value:v) faults.(l)
    done
  done;
  t

let create ?(capacity = 2) ?(record_traces = false) ?(fault = Fault.none)
    ?(telemetry = Telemetry.off) ~mode net =
  if capacity < 0 then invalid_arg "Fast.create: negative capacity";
  Network.validate net;
  compile ~record_traces ~telemetry
    [|
      {
        net;
        mode;
        capacity;
        fault;
        max_cycles = max_int;
        cancel = Wp_util.Cancel.never;
      };
    |]

let create_lanes ?(record_traces = false) lanes =
  compile ~record_traces ~telemetry:Telemetry.off lanes

(* ------------------------------------------------------------------ *)
(* Rare features                                                      *)
(* ------------------------------------------------------------------ *)

(* Unbounded lanes: re-lay every ring at twice the stride, oldest token
   first. *)
let grow t =
  let ll = t.n_lanes and s = t.stride in
  let s' = 2 * s in
  let buf = ia (t.n_in * ll * s') in
  for ipl = 0 to (t.n_in * ll) - 1 do
    let r = t.ring.(ipl mod ll) and h = t.fifo_head.(ipl) in
    for i = 0 to t.fifo_len.(ipl) - 1 do
      let slot = if h + i >= r then h + i - r else h + i in
      buf.((ipl * s') + i) <- t.fifo_buf.((ipl * s) + slot)
    done;
    t.fifo_head.(ipl) <- 0
  done;
  Array.iteri (fun l c -> if c = max_int then t.ring.(l) <- s') t.cap;
  t.fifo_buf <- buf;
  t.stride <- s'

(* Before the shift, every unbounded ring keeps room for the two tokens
   one cycle can bring: a delivery and a fault's duplicate. *)
let reserve t =
  let ll = t.n_lanes in
  let short = ref false in
  for ipl = 0 to (t.n_in * ll) - 1 do
    let l = ipl mod ll in
    if t.cap.(l) = max_int && t.fifo_len.(ipl) + 2 > t.ring.(l) then
      short := true
  done;
  if !short then grow t

(* Protected wires: the producer stalls on window or credit exhaustion,
   never on a propagated stop. *)
let link_stops t =
  let ll = t.n_lanes in
  for a = 0 to t.ro.n_act - 1 do
    let l = t.ro.act.(a) in
    match t.links.(l) with
    | None -> ()
    | Some k ->
      for c = 0 to t.n_chans - 1 do
        let cl = (c * ll) + l in
        if Bytes.get t.hook cl = '\002' then
          Bytes.set t.producer_stop cl
            (if Link.producer_stop k ~chan:c then '\001' else '\000')
      done
  done

(* Start-of-cycle telemetry of a one-lane kernel, where cell [e * 1 + 0]
   is [e]: occupancy and stop samples, then every shell's stall class,
   written straight into the runtime's scratch (the bulk protocol; one
   cross-module call per phase, not per element).  Firing pops only a
   shell's own FIFOs and [required] is pure, so classifying before any
   shell fires sees what the firing loop sees.  The decision tree
   mirrors Telemetry.classify / cls_code exactly (the cross-engine
   differential tests pin the agreement). *)
let observe t tl =
  let occ = Telemetry.occ_scratch tl
  and stop = Telemetry.stop_scratch tl
  and cls = Telemetry.cls_scratch tl in
  for c = 0 to t.n_chans - 1 do
    occ.(c) <- t.fifo_len.(t.chan_dst_ip.(c));
    stop.(c) <- Bytes.get t.producer_stop c = '\001'
  done;
  for n = 0 to t.n_nodes - 1 do
    let inst = t.instances.(n) in
    let ib = t.in_base.(n) in
    let missing mask =
      let miss = ref false in
      for p = 0 to t.in_base.(n + 1) - ib - 1 do
        if mask.(p) && t.fifo_len.(ib + p) = 0 then miss := true
      done;
      !miss
    in
    (* first refusing output channel in CSR (increasing channel) order *)
    let first = ref (-1) in
    for j = t.out_chan_base.(n + 1) - 1 downto t.out_chan_base.(n) do
      let c = t.out_chan_ids.(j) in
      if Bytes.get t.producer_stop c = '\001' then first := c
    done;
    let ready =
      not (missing (if t.oracle.(0) then inst.Process.required () else t.plain_masks.(n)))
    in
    cls.(n) <-
      (if ready && !first < 0 then 0 (* fired *)
       else if ready then
         if Bytes.get t.hook !first = '\002' then 4 (* link-credit *)
         else 3 (* output-backpressure *)
       else if !first < 0 && not (missing (inst.Process.required ())) then
         1 (* oracle-skip *)
       else 2 (* missing-input *))
  done

(* ------------------------------------------------------------------ *)
(* Step                                                               *)
(* ------------------------------------------------------------------ *)

(* One cycle for every running lane. *)
let advance t =
  let ll = t.n_lanes in
  let ro = t.ro in
  let cyc = ro.clock in
  (* Phase 1: propagate stops backwards along each relay chain. *)
  for c = 0 to t.n_chans - 1 do
    let ip = Array.unsafe_get t.chan_dst_ip c in
    for a = 0 to ro.n_act - 1 do
      let l = Array.unsafe_get ro.act a in
      let ipl = (ip * ll) + l in
      let cl = (c * ll) + l in
      let stop =
        ref
          ((Array.unsafe_get t.fifo_len ipl >= Array.unsafe_get t.cap l
           && Array.unsafe_get t.drop_pending ipl = 0)
          ||
          match Array.unsafe_get t.faults l with
          | None -> false
          | Some f -> Fault.stalled f ~cycle:cyc ~chan:c)
      in
      let base = Array.unsafe_get t.rs_off cl in
      let k = Array.unsafe_get t.rs_cnt cl in
      for i = k - 1 downto 0 do
        let r = base + i in
        Bytes.unsafe_set t.stage_stops r (if !stop then '\001' else '\000');
        (* stop_out = stop_in && both registers full *)
        stop := !stop && Array.unsafe_get t.rs_len r >= 2
      done;
      Bytes.unsafe_set t.producer_stop cl (if !stop then '\001' else '\000')
    done
  done;
  if t.linked then link_stops t;
  (match t.tel with None -> () | Some tl -> observe t tl);
  (* Phase 2: firing decisions, emissions into the flat scratch. *)
  let buf = t.fifo_buf and stride = t.stride in
  for n = 0 to t.n_nodes - 1 do
    let ocb = Array.unsafe_get t.out_chan_base n in
    let oce = Array.unsafe_get t.out_chan_base (n + 1) in
    let ib = Array.unsafe_get t.in_base n in
    let n_in = Array.unsafe_get t.in_base (n + 1) - ib in
    let op0 = Array.unsafe_get t.out_base n in
    let n_out = Array.unsafe_get t.out_base (n + 1) - op0 in
    let inputs = Array.unsafe_get t.inputs_scratch n in
    let plain = Array.unsafe_get t.plain_masks n in
    for a = 0 to ro.n_act - 1 do
      let l = Array.unsafe_get ro.act a in
      let inst = Array.unsafe_get t.instances ((n * ll) + l) in
      let outputs_clear =
        let ok = ref true in
        for j = ocb to oce - 1 do
          if
            Bytes.unsafe_get t.producer_stop
              ((Array.unsafe_get t.out_chan_ids j * ll) + l)
            = '\001'
          then ok := false
        done;
        !ok
      in
      let mask =
        if Array.unsafe_get t.oracle l then inst.Process.required () else plain
      in
      let ready = ref true in
      for p = 0 to n_in - 1 do
        if
          Array.unsafe_get mask p
          && Array.unsafe_get t.fifo_len (((ib + p) * ll) + l) = 0
        then ready := false
      done;
      if !ready && outputs_clear then begin
        Bytes.unsafe_set t.fired l '\001';
        let ring = Array.unsafe_get t.ring l in
        for p = 0 to n_in - 1 do
          let ipl = ((ib + p) * ll) + l in
          if Array.unsafe_get mask p then begin
            Array.unsafe_set t.required_counts ipl
              (Array.unsafe_get t.required_counts ipl + 1);
            let head = Array.unsafe_get t.fifo_head ipl in
            let v = Array.unsafe_get buf ((ipl * stride) + head) in
            let head' = head + 1 in
            Array.unsafe_set t.fifo_head ipl (if head' >= ring then 0 else head');
            Array.unsafe_set t.fifo_len ipl (Array.unsafe_get t.fifo_len ipl - 1);
            Array.unsafe_set inputs p (Some v)
          end
          else begin
            (* Oracle skip: the token of the current tag is useless —
               discard it now if buffered, or on arrival. *)
            if Array.unsafe_get t.fifo_len ipl > 0 then begin
              let head' = Array.unsafe_get t.fifo_head ipl + 1 in
              Array.unsafe_set t.fifo_head ipl (if head' >= ring then 0 else head');
              Array.unsafe_set t.fifo_len ipl (Array.unsafe_get t.fifo_len ipl - 1);
              Array.unsafe_set t.dropped ipl (Array.unsafe_get t.dropped ipl + 1)
            end
            else
              Array.unsafe_set t.drop_pending ipl
                (Array.unsafe_get t.drop_pending ipl + 1);
            Array.unsafe_set inputs p None
          end
        done;
        let words = inst.Process.fire inputs in
        (* [halted] is a pure function of process state and state only
           advances in [fire], so probing right here keeps the sticky
           flag as fresh as a scan of every shell each cycle. *)
        if inst.Process.halted () then Bytes.unsafe_set ro.halt_flag l '\001';
        let nl = (n * ll) + l in
        Array.unsafe_set t.firings nl (Array.unsafe_get t.firings nl + 1);
        for q = 0 to n_out - 1 do
          let opl = ((op0 + q) * ll) + l in
          Array.unsafe_set t.emit_val opl (Array.unsafe_get words q);
          Bytes.unsafe_set t.emit_valid opl '\001'
        done;
        if t.record_traces then
          for q = 0 to n_out - 1 do
            let opl = ((op0 + q) * ll) + l in
            t.traces.(opl) <- Token.Valid words.(q) :: t.traces.(opl)
          done
      end
      else begin
        let nl = (n * ll) + l in
        Array.unsafe_set t.stalls nl (Array.unsafe_get t.stalls nl + 1);
        if !ready then
          Array.unsafe_set t.output_blocked nl
            (Array.unsafe_get t.output_blocked nl + 1)
        else
          Array.unsafe_set t.input_starved nl
            (Array.unsafe_get t.input_starved nl + 1);
        for q = 0 to n_out - 1 do
          Bytes.unsafe_set t.emit_valid (((op0 + q) * ll) + l) '\000'
        done;
        if t.record_traces then
          for q = 0 to n_out - 1 do
            let opl = ((op0 + q) * ll) + l in
            t.traces.(opl) <- Token.Void :: t.traces.(opl)
          done
      end
    done
  done;
  (* Phase 3: simultaneous shift — all relay emissions are computed from
     the pre-shift state before any acceptance. *)
  if t.unbounded then reserve t;
  let buf = t.fifo_buf and stride = t.stride in
  for c = 0 to t.n_chans - 1 do
    let op = Array.unsafe_get t.chan_src_op c in
    let ip = Array.unsafe_get t.chan_dst_ip c in
    for a = 0 to ro.n_act - 1 do
      let l = Array.unsafe_get ro.act a in
      let cl = (c * ll) + l in
      let opl = (op * ll) + l in
      let base = Array.unsafe_get t.rs_off cl in
      let k = Array.unsafe_get t.rs_cnt cl in
      let tc_valid, tc_val =
        if k = 0 then
          (Bytes.unsafe_get t.emit_valid opl = '\001', Array.unsafe_get t.emit_val opl)
        else begin
          for i = 0 to k - 1 do
            let r = base + i in
            if
              Bytes.unsafe_get t.stage_stops r = '\001'
              || Array.unsafe_get t.rs_len r = 0
            then Bytes.unsafe_set t.rs_out_valid r '\000'
            else begin
              Bytes.unsafe_set t.rs_out_valid r '\001';
              let head = Array.unsafe_get t.rs_head r in
              Array.unsafe_set t.rs_out_val r
                (Array.unsafe_get t.rs_val ((2 * r) + head));
              Array.unsafe_set t.rs_head r (1 - head);
              Array.unsafe_set t.rs_len r (Array.unsafe_get t.rs_len r - 1)
            end
          done;
          if Bytes.unsafe_get t.emit_valid opl = '\001' then
            rs_accept t base (Array.unsafe_get t.emit_val opl);
          for i = 1 to k - 1 do
            if Bytes.unsafe_get t.rs_out_valid (base + i - 1) = '\001' then
              rs_accept t (base + i) (Array.unsafe_get t.rs_out_val (base + i - 1))
          done;
          ( Bytes.unsafe_get t.rs_out_valid (base + k - 1) = '\001',
            Array.unsafe_get t.rs_out_val (base + k - 1) )
        end
      in
      let h = Bytes.unsafe_get t.hook cl in
      if h = '\000' then begin
        if tc_valid then begin
          let ipl = (ip * ll) + l in
          Array.unsafe_set t.chan_delivered cl
            (Array.unsafe_get t.chan_delivered cl + 1);
          if Array.unsafe_get t.drop_pending ipl > 0 then begin
            Array.unsafe_set t.drop_pending ipl
              (Array.unsafe_get t.drop_pending ipl - 1);
            Array.unsafe_set t.dropped ipl (Array.unsafe_get t.dropped ipl + 1)
          end
          else begin
            let len = Array.unsafe_get t.fifo_len ipl in
            if len >= Array.unsafe_get t.cap l then token_lost ();
            let ring = Array.unsafe_get t.ring l in
            let slot = Array.unsafe_get t.fifo_head ipl + len in
            let slot = if slot >= ring then slot - ring else slot in
            Array.unsafe_set buf ((ipl * stride) + slot) tc_val;
            Array.unsafe_set t.fifo_len ipl (len + 1)
          end
        end
      end
      else begin
        match Array.unsafe_get t.faults l, Array.unsafe_get t.links l with
        | Some f, _ when h = '\001' ->
          Fault.deliver f ~chan:c ~valid:tc_valid ~value:tc_val
            ~can_accept:(Array.unsafe_get t.f_can cl)
            ~accept:(Array.unsafe_get t.f_acc cl)
        | _, Some k ->
          Link.channel_step k ~chan:c ~cycle:cyc ~produced_valid:tc_valid
            ~produced_value:tc_val ~can_accept:(Array.unsafe_get t.f_can cl)
            ~accept:(Array.unsafe_get t.f_acc cl)
        | _ -> assert false
      end
    done
  done;
  (match t.tel with
  | None -> ()
  | Some tl -> Telemetry.commit_cycle tl ~delivered:t.chan_delivered);
  ro.clock <- cyc + 1;
  for a = 0 to ro.n_act - 1 do
    let l = Array.unsafe_get ro.act a in
    if Bytes.unsafe_get t.fired l = '\001' then ro.quiet.(l) <- 0
    else ro.quiet.(l) <- ro.quiet.(l) + 1;
    Bytes.unsafe_set t.fired l '\000'
  done

let step t =
  reopen t.ro;
  advance t

let run_lanes t ~budgets ~cancels = run_roster t.ro advance t ~budgets ~cancels

let run ?(cancel = Wp_util.Cancel.never) ?(max_cycles = 1_000_000) t =
  (run_lanes t ~budgets:[| max_cycles |] ~cancels:[| cancel |]).(0)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let cycles ?(lane = 0) t = lane_cycles t.ro lane
let outcome t ~lane = t.ro.finished.(lane)
let network ?(lane = 0) t = t.nets.(lane)
let delivered ?(lane = 0) t c = t.chan_delivered.((c * t.n_lanes) + lane)

let fault_injections ?(lane = 0) t =
  match t.faults.(lane) with Some f -> Fault.injections f | None -> 0

let link_summary t = Option.map Link.summary t.links.(0)

let telemetry_report t =
  Option.map (fun tl -> Telemetry.report_of tl ~link:(link_summary t)) t.tel

let node_stats ?(lane = 0) t n =
  let ll = t.n_lanes in
  let lo = t.in_base.(n) and hi = t.in_base.(n + 1) in
  let per a = Array.init (hi - lo) (fun p -> a.(((lo + p) * ll) + lane)) in
  {
    Shell.firings = t.firings.((n * ll) + lane);
    stalls = t.stalls.((n * ll) + lane);
    input_starved = t.input_starved.((n * ll) + lane);
    output_blocked = t.output_blocked.((n * ll) + lane);
    required_counts = per t.required_counts;
    dropped = per t.dropped;
  }

let output_trace ?(lane = 0) t node port =
  List.rev t.traces.(((t.out_base.(node) + port) * t.n_lanes) + lane)

(* ------------------------------------------------------------------ *)
(* Table recorder                                                     *)
(* ------------------------------------------------------------------ *)

type table_cycle = {
  tc_fired : int array;  (* shells firing this cycle, ascending *)
  tc_starved : int array;  (* stalled, missing an input *)
  tc_blocked : int array;  (* stalled, ready but backpressured *)
  tc_deliver : int array;  (* channels delivering a token *)
  tc_consumed : int array;  (* input ports the firing shells read *)
  tc_dropped : int array;  (* input ports that discarded a token *)
  tc_any : bool;
}

(* A one-lane kernel of placeholder processes: [fire] returns one
   preallocated array and nothing halts, so no user closure runs and no
   process data matters, and each shell's [required] answers the mask
   the caller forces into [req].  FIFO lengths, relay-station fills and
   pending drops are all the state a firing decision reads. *)
type recorder = {
  k : t;
  req : bool array array;
  scratch : int array;
  mutable last : string; (* the state [k] is in, as last returned *)
}

let recorder ~capacity net =
  let n_nodes = Network.node_count net in
  let outs = ref 1 in
  for n = 0 to n_nodes - 1 do
    outs := max !outs (Process.n_outputs (Network.node_process net n))
  done;
  let words = Array.make !outs 0 in
  let req =
    Array.init n_nodes (fun n -> Array.make (Process.n_inputs (Network.node_process net n)) true)
  in
  let placeholder n =
    { Process.required = (fun () -> req.(n)); fire = (fun _ -> words); halted = (fun () -> false) }
  in
  let k =
    compile ~instances:(Array.init n_nodes placeholder) ~record_traces:false
      ~telemetry:Telemetry.off
      [|
        {
          net;
          mode = Shell.Oracle;
          capacity;
          fault = Fault.none;
          max_cycles = max_int;
          cancel = Wp_util.Cancel.never;
        };
      |]
  in
  { k; req; scratch = Array.make (max k.n_in (max n_nodes k.n_chans)) 0; last = "" }

(* A state is every FIFO length, relay-station fill and pending drop in
   turn, each a base-128 varint: mostly one byte per count, and
   [Hashtbl.hash] reads a string whole. *)
let state r =
  let b = Buffer.create 64 in
  let rec put v =
    if v < 128 then Buffer.add_uint8 b v
    else begin
      Buffer.add_uint8 b (v land 127 lor 128);
      put (v lsr 7)
    end
  in
  List.iter (Array.iter put) [ r.k.fifo_len; r.k.rs_len; r.k.drop_pending ];
  let key = Buffer.contents b in
  r.last <- key;
  key

let restore r key =
  let pos = ref 0 in
  let rec get shift =
    let c = Char.code key.[!pos] in
    incr pos;
    if c < 128 then c lsl shift else ((c land 127) lsl shift) lor get (shift + 7)
  in
  List.iter
    (fun (counts : int array) ->
      for i = 0 to Array.length counts - 1 do
        counts.(i) <- get 0
      done)
    [ r.k.fifo_len; r.k.rs_len; r.k.drop_pending ]

(* The ids whose counter moved since the last call, ascending, collected
   in [scratch]; the counters restart from 0. *)
let moved scratch counts n =
  let k = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get counts i > 0 then begin
      Array.unsafe_set scratch !k i;
      incr k;
      Array.unsafe_set counts i 0
    end
  done;
  if !k = 0 then [||] else Array.sub scratch 0 !k

(* Every shell is counted as fired, blocked or starved each cycle, and
   a port's reads and discards move by one at most (a pending drop means
   an empty FIFO), so the counters' moves over one [advance] are the row. *)
let transition r ~masks key =
  let k = r.k in
  if key != r.last then restore r key;
  for n = 0 to k.n_nodes - 1 do
    let m = r.req.(n) and ib = k.in_base.(n) in
    for p = 0 to Array.length m - 1 do
      m.(p) <- Bytes.get masks (ib + p) <> '\000'
    done
  done;
  advance k;
  let moved = moved r.scratch in
  let fired = moved k.firings k.n_nodes in
  let row =
    {
      tc_fired = fired;
      tc_starved = moved k.input_starved k.n_nodes;
      tc_blocked = moved k.output_blocked k.n_nodes;
      tc_deliver = moved k.chan_delivered k.n_chans;
      tc_consumed = moved k.required_counts k.n_in;
      tc_dropped = moved k.dropped k.n_in;
      tc_any = Array.length fired > 0;
    }
  in
  (row, state r)

(* In Plain mode with no faults a shell fires on token counts alone, so
   the firing table is the recorder under all-true masks, stepped from
   reset until a state repeats. *)
let record ~max_cycles ~capacity net =
  let r = recorder ~capacity net in
  let masks = Bytes.make r.k.n_in '\001' in
  let seen = Hashtbl.create 1024 in
  let rec go cycle key rows =
    match Hashtbl.find_opt seen key with
    | Some first -> Some (first, cycle - first, Array.of_list (List.rev rows))
    | None when cycle >= max_cycles -> None
    | None ->
      Hashtbl.add seen key cycle;
      let row, key' = transition r ~masks key in
      go (cycle + 1) key' (row :: rows)
  in
  go 0 (state r) []
