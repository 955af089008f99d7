(* Compiled handshake kernel.

   [Engine] is the readable reference interpreter: it steps the object
   model ({!Wp_lis.Shell}, {!Wp_lis.Relay_station}), so every token it
   moves is a boxed [Token.Valid] that lands in an option cell of a
   ring FIFO, and each channel and relay station is a record it visits
   in turn.  This module compiles a validated network into flat integer
   arrays once, then steps it with no per-cycle allocation of its own
   while nothing fires.
   A firing allocates: the kernel boxes each input it reads as [Some v]
   (two words; [Process.fire] takes an [int option array]), the
   user-supplied [Process.instance] closures allocate what they
   allocate, and [record_traces] adds a cons per output.

   It is the library's only compiled handshake loop, and one kernel is
   one run: its processes, relay-station counts, FIFO capacity, fault
   program and link layer are its network's own.  The same step records
   the table-replay kernel's firing tables ([record]), and both kernels
   run in one run loop ([roster]).

   Layout (all indices are dense ints):
   - ports and channels follow [meta_of]: global input port
     [in_base.(node) + port], output ports likewise, and a CSR list of
     each node's outgoing channels in increasing channel order;
   - each FIFO is a ring of [ring] slots in [fifo_buf] — void never
     enters a FIFO, so no validity bit is needed there — and per-cycle
     emissions live in [emit_val] with a parallel [emit_valid] bitmask
     instead of boxed [Token.t];
   - every relay station is the same 2-register micro-FIFO as
     {!Wp_lis.Relay_station}, stored as two int slots plus head/len in
     a pool where each channel owns a slice.

   The step reproduces the reference engine's three phases (stop
   propagation, firing, simultaneous shift) in the identical order, so
   outcomes, delivered counts, per-shell statistics and traces are
   byte-identical — the test batteries assert exactly that.

   Three features are rare, so a kernel without them pays one branch
   per phase:
   - link protection ([link]): the link layer owns a protected wire,
     so the channel gets no relay slots, its producer stop comes from
     {!Link.producer_stop}, and its shift is {!Link.channel_step};
   - unbounded FIFOs ([cap = max_int]): before each shift every ring
     keeps room for what one cycle can bring, doubling [ring] when it
     runs short;
   - telemetry ([tel]), through the runtime's bulk scratch protocol. *)

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
(* The run loop                                                       *)
(* ------------------------------------------------------------------ *)

(* What both compiled kernels share: a run's clock, sticky halt flag and
   quiet counter.  A kernel's [advance] steps the run by one cycle: it
   sets [halted] right after a firing that halts, resets or bumps
   [quiet] and bumps [clock]. *)
type roster = {
  mutable clock : int;
  mutable halted : bool;
  mutable quiet : int; (* cycles since a shell last fired *)
  quiescence : int; (* the deadlock window *)
}

(* The deadlock window is {!Engine}'s: 16 + 4 × (nodes + channels +
   relay stations) cycles, plus the link layer's [bonus].  A process can
   be terminal at reset; the first check must see it. *)
let roster ?(bonus = 0) m instances =
  {
    clock = 0;
    halted = Array.exists (fun inst -> inst.Process.halted ()) instances;
    quiet = 0;
    quiescence =
      16 + (4 * (m.m_n_nodes + m.m_n_chans + m.m_chan_rs_base.(m.m_n_chans))) + bonus;
  }

(* The termination check, in Engine.run's order: halt, quiescence
   window, the cycle budget, then the cancellation poll (every
   [Engine.cancel_interval] cycles).  A later call with a larger budget
   resumes the run. *)
let run_roster r advance k ~budget ~cancel =
  let poll = not (Wp_util.Cancel.is_never cancel) in
  let rec loop () =
    if r.halted then Engine.Halted r.clock
    else if r.quiet > r.quiescence then Engine.Deadlocked r.clock
    else if r.clock >= budget then Engine.Exhausted r.clock
    else if
      poll
      && r.clock land (Engine.cancel_interval - 1) = 0
      && Wp_util.Cancel.cancelled cancel
    then Engine.Cancelled r.clock
    else begin
      advance k;
      loop ()
    end
  in
  loop ()

(* Kernel state lives in plain [int array]s: the element type is known
   statically, so reads and writes compile to bare loads and stores. *)
type ia = int array

type t = {
  n_nodes : int;
  n_chans : int;
  n_in : int; (* input ports *)
  record_traces : bool;
  net : Network.t;
  oracle : bool;
  cap : int; (* a FIFO is full at [cap]; max_int if unbounded *)
  mutable ring : int; (* FIFO ring size; [cap] when bounded *)
  fault : Fault.t option;
  link : Link.t option;
  tel : Telemetry.t option;
  in_base : int array; (* n_nodes + 1 *)
  out_base : int array; (* n_nodes + 1 *)
  chan_src_op : int array;
  chan_dst_ip : int array;
  out_chan_base : int array; (* n_nodes + 1 *)
  out_chan_ids : int array;
  instances : Process.instance array; (* per node *)
  inputs_scratch : int option array array;
      (* per node, reused every cycle: a [Some v] store into an old
         slot enters the remembered set at most once per minor
         collection, so reuse is cheaper than reallocating *)
  plain_masks : bool array array; (* per node *)
  (* per input port *)
  mutable fifo_buf : ia; (* [(ip * ring) + slot] *)
  fifo_head : ia;
  fifo_len : ia;
  drop_pending : ia;
  required_counts : ia;
  dropped : ia;
  (* per output port *)
  emit_val : ia;
  emit_valid : Bytes.t;
  (* per node *)
  firings : ia;
  stalls : ia;
  input_starved : ia;
  output_blocked : ia;
  (* per channel *)
  chan_delivered : ia;
  producer_stop : Bytes.t;
  hook : Bytes.t;
      (* how the shift delivers — '\000' straight into the FIFO, '\001'
         through Fault.deliver, '\002' through the link *)
  rs_off : int array;
  rs_cnt : int array;
  (* per relay slot *)
  rs_val : ia; (* 2 per slot *)
  rs_head : ia;
  rs_len : ia;
  stage_stops : Bytes.t;
  rs_out_val : ia;
  rs_out_valid : Bytes.t;
  (* consumer hooks of faulted and protected channels *)
  f_can : (unit -> bool) array;
  f_acc : (int -> unit) array;
  traces : int Token.t list array; (* per output port; newest first *)
  ro : roster;
}

let ia n = Array.make (max 1 n) 0

let token_lost () = failwith "Fast shell: token lost (stop protocol violated)"

(* Push onto the FIFO of input port [ip]. *)
let push t ip v =
  let len = t.fifo_len.(ip) in
  if len >= t.cap then token_lost ();
  let r = t.ring in
  let slot = t.fifo_head.(ip) + len in
  let slot = if slot >= r then slot - r else slot in
  t.fifo_buf.((ip * r) + slot) <- v;
  t.fifo_len.(ip) <- len + 1

let rs_accept t r v =
  let len = Array.unsafe_get t.rs_len r in
  if len >= 2 then
    failwith "Fast relay station: datum lost (stop protocol violated)";
  Array.unsafe_set t.rs_val ((2 * r) + ((Array.unsafe_get t.rs_head r + len) land 1)) v;
  Array.unsafe_set t.rs_len r (len + 1)

(* ------------------------------------------------------------------ *)
(* Compile                                                            *)
(* ------------------------------------------------------------------ *)

(* [instances] default to fresh ones made from the network's
   processes. *)
let compile ?instances ~record_traces ~telemetry ~capacity ~fault ~mode net =
  let m = meta_of net in
  let n_nodes = m.m_n_nodes and n_chans = m.m_n_chans in
  let in_base = m.m_in_base and out_base = m.m_out_base in
  let chan_dst_ip = m.m_chan_dst_ip in
  let n_in = in_base.(n_nodes) and n_out = out_base.(n_nodes) in
  let fault = if Fault.is_none fault then None else Some (Fault.make fault ~n_chans) in
  let link = Link.make ?fault net in
  (* Relay pool: a slice per channel.  A protected wire belongs to its
     link layer and gets no slots. *)
  let rs_off = ia n_chans and rs_cnt = ia n_chans in
  let hook = Bytes.make (max 1 n_chans) '\000' in
  let slots = ref 0 in
  for c = 0 to n_chans - 1 do
    match link with
    | Some k when Link.is_protected k ~chan:c -> Bytes.set hook c '\002'
    | _ ->
      if Option.is_some fault then Bytes.set hook c '\001';
      rs_off.(c) <- !slots;
      rs_cnt.(c) <- Network.relay_stations net c;
      slots := !slots + rs_cnt.(c)
  done;
  let ring = if capacity = 0 then 8 else capacity in
  let instances =
    match instances with
    | Some i -> i
    | None -> Array.init n_nodes (fun n -> (Network.node_process net n).Process.make ())
  in
  let n_inputs n = in_base.(n + 1) - in_base.(n) in
  let no_can () = false in
  let t =
    {
      n_nodes;
      n_chans;
      n_in;
      record_traces;
      net;
      oracle = mode = Shell.Oracle;
      cap = (if capacity = 0 then max_int else capacity);
      ring;
      fault;
      link;
      tel = Telemetry.make telemetry net;
      in_base;
      out_base;
      chan_src_op = m.m_chan_src_op;
      chan_dst_ip;
      out_chan_base = m.m_out_chan_base;
      out_chan_ids = m.m_out_chan_ids;
      instances;
      inputs_scratch = Array.init n_nodes (fun n -> Array.make (n_inputs n) None);
      plain_masks = Array.init n_nodes (fun n -> Array.make (n_inputs n) true);
      fifo_buf = ia (n_in * ring);
      fifo_head = ia n_in;
      fifo_len = ia n_in;
      drop_pending = ia n_in;
      required_counts = ia n_in;
      dropped = ia n_in;
      emit_val = ia n_out;
      emit_valid = Bytes.make (max 1 n_out) '\000';
      firings = ia n_nodes;
      stalls = ia n_nodes;
      input_starved = ia n_nodes;
      output_blocked = ia n_nodes;
      chan_delivered = ia n_chans;
      producer_stop = Bytes.make (max 1 n_chans) '\000';
      hook;
      rs_off;
      rs_cnt;
      rs_val = ia (2 * !slots);
      rs_head = ia !slots;
      rs_len = ia !slots;
      stage_stops = Bytes.make (max 1 !slots) '\000';
      rs_out_val = ia !slots;
      rs_out_valid = Bytes.make (max 1 !slots) '\000';
      f_can = Array.make (max 1 n_chans) no_can;
      f_acc = Array.make (max 1 n_chans) ignore;
      traces = Array.make (max 1 n_out) [];
      ro = roster ?bonus:(Option.map Link.quiescence_bonus link) m instances;
    }
  in
  (* Consumer hooks for Fault.deliver and Link.channel_step need live
     closures: allocate them once here, not per cycle. *)
  for c = 0 to n_chans - 1 do
    if Bytes.get hook c <> '\000' then begin
      let ip = chan_dst_ip.(c) in
      t.f_can.(c) <- (fun () -> not (t.fifo_len.(ip) >= t.cap && t.drop_pending.(ip) = 0));
      t.f_acc.(c) <-
        (fun v ->
          t.chan_delivered.(c) <- t.chan_delivered.(c) + 1;
          if t.drop_pending.(ip) > 0 then begin
            t.drop_pending.(ip) <- t.drop_pending.(ip) - 1;
            t.dropped.(ip) <- t.dropped.(ip) + 1
          end
          else push t ip v)
    end
  done;
  (* Reset: one initial token per channel — the reset value of the
     producer's output register, latched in the consumer FIFO. *)
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net c in
    let v = (Network.node_process net src_node).Process.reset_outputs.(src_port) in
    push t chan_dst_ip.(c) v;
    Option.iter (fun f -> Fault.note_reset f ~chan:c ~value:v) fault
  done;
  t

let create ?(capacity = 2) ?(record_traces = false) ?(fault = Fault.none)
    ?(telemetry = Telemetry.off) ~mode net =
  if capacity < 0 then invalid_arg "Fast.create: negative capacity";
  Network.validate net;
  compile ~record_traces ~telemetry ~capacity ~fault ~mode net

(* ------------------------------------------------------------------ *)
(* Rare features                                                      *)
(* ------------------------------------------------------------------ *)

(* Unbounded FIFOs: re-lay every ring at twice the size, oldest token
   first. *)
let grow t =
  let r = t.ring in
  let r' = 2 * r in
  let buf = ia (t.n_in * r') in
  for ip = 0 to t.n_in - 1 do
    let h = t.fifo_head.(ip) in
    for i = 0 to t.fifo_len.(ip) - 1 do
      let slot = if h + i >= r then h + i - r else h + i in
      buf.((ip * r') + i) <- t.fifo_buf.((ip * r) + slot)
    done;
    t.fifo_head.(ip) <- 0
  done;
  t.fifo_buf <- buf;
  t.ring <- r'

(* Before the shift, every unbounded ring keeps room for the two tokens
   one cycle can bring: a delivery and a fault's duplicate. *)
let reserve t =
  let short = ref false in
  for ip = 0 to t.n_in - 1 do
    if t.fifo_len.(ip) + 2 > t.ring then short := true
  done;
  if !short then grow t

(* Protected wires: the producer stalls on window or credit exhaustion,
   never on a propagated stop. *)
let link_stops t k =
  for c = 0 to t.n_chans - 1 do
    if Bytes.get t.hook c = '\002' then
      Bytes.set t.producer_stop c (if Link.producer_stop k ~chan:c then '\001' else '\000')
  done

(* Start-of-cycle telemetry: occupancy and stop samples, then every
   shell's stall class, written straight into the runtime's scratch (the
   bulk protocol; one cross-module call per phase, not per element).
   Firing pops only a shell's own FIFOs and [required] is pure, so
   classifying before any shell fires sees what the firing loop sees.
   The oracle probe runs, as in {!Engine.step}, only for a shell that is
   not ready and whose outputs are clear: [required] allocates inside
   process closures. *)
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
    let outputs_clear = !first < 0 in
    let ready =
      not (missing (if t.oracle then inst.Process.required () else t.plain_masks.(n)))
    in
    let oracle_ready =
      (not ready) && outputs_clear && not (missing (inst.Process.required ()))
    in
    let link_blocked = ready && (not outputs_clear) && Bytes.get t.hook !first = '\002' in
    cls.(n) <-
      Telemetry.cls_code
        (Telemetry.classify ~fired:(ready && outputs_clear) ~ready ~outputs_clear ~oracle_ready
           ~link_blocked)
  done

(* ------------------------------------------------------------------ *)
(* Step                                                               *)
(* ------------------------------------------------------------------ *)

let advance t =
  let ro = t.ro in
  let cyc = ro.clock in
  (* Phase 1: propagate stops backwards along each relay chain. *)
  for c = 0 to t.n_chans - 1 do
    let ip = Array.unsafe_get t.chan_dst_ip c in
    let stop =
      ref
        ((Array.unsafe_get t.fifo_len ip >= t.cap
         && Array.unsafe_get t.drop_pending ip = 0)
        ||
        match t.fault with
        | None -> false
        | Some f -> Fault.stalled f ~cycle:cyc ~chan:c)
    in
    let base = Array.unsafe_get t.rs_off c in
    for i = Array.unsafe_get t.rs_cnt c - 1 downto 0 do
      let r = base + i in
      Bytes.unsafe_set t.stage_stops r (if !stop then '\001' else '\000');
      (* stop_out = stop_in && both registers full *)
      stop := !stop && Array.unsafe_get t.rs_len r >= 2
    done;
    Bytes.unsafe_set t.producer_stop c (if !stop then '\001' else '\000')
  done;
  (match t.link with None -> () | Some k -> link_stops t k);
  (match t.tel with None -> () | Some tl -> observe t tl);
  (* Phase 2: firing decisions, emissions into the flat scratch. *)
  let fired = ref false in
  let buf = t.fifo_buf and ring = t.ring in
  for n = 0 to t.n_nodes - 1 do
    let ib = Array.unsafe_get t.in_base n in
    let n_in = Array.unsafe_get t.in_base (n + 1) - ib in
    let op0 = Array.unsafe_get t.out_base n in
    let n_out = Array.unsafe_get t.out_base (n + 1) - op0 in
    let inputs = Array.unsafe_get t.inputs_scratch n in
    let inst = Array.unsafe_get t.instances n in
    let outputs_clear =
      let ok = ref true in
      for j = Array.unsafe_get t.out_chan_base n to Array.unsafe_get t.out_chan_base (n + 1) - 1
      do
        if Bytes.unsafe_get t.producer_stop (Array.unsafe_get t.out_chan_ids j) = '\001'
        then ok := false
      done;
      !ok
    in
    let mask =
      if t.oracle then inst.Process.required () else Array.unsafe_get t.plain_masks n
    in
    let ready = ref true in
    for p = 0 to n_in - 1 do
      if Array.unsafe_get mask p && Array.unsafe_get t.fifo_len (ib + p) = 0 then
        ready := false
    done;
    if !ready && outputs_clear then begin
      fired := true;
      for p = 0 to n_in - 1 do
        let ip = ib + p in
        if Array.unsafe_get mask p then begin
          Array.unsafe_set t.required_counts ip (Array.unsafe_get t.required_counts ip + 1);
          let head = Array.unsafe_get t.fifo_head ip in
          let v = Array.unsafe_get buf ((ip * ring) + head) in
          let head' = head + 1 in
          Array.unsafe_set t.fifo_head ip (if head' >= ring then 0 else head');
          Array.unsafe_set t.fifo_len ip (Array.unsafe_get t.fifo_len ip - 1);
          Array.unsafe_set inputs p (Some v)
        end
        else begin
          (* Oracle skip: the token of the current tag is useless —
             discard it now if buffered, or on arrival. *)
          if Array.unsafe_get t.fifo_len ip > 0 then begin
            let head' = Array.unsafe_get t.fifo_head ip + 1 in
            Array.unsafe_set t.fifo_head ip (if head' >= ring then 0 else head');
            Array.unsafe_set t.fifo_len ip (Array.unsafe_get t.fifo_len ip - 1);
            Array.unsafe_set t.dropped ip (Array.unsafe_get t.dropped ip + 1)
          end
          else Array.unsafe_set t.drop_pending ip (Array.unsafe_get t.drop_pending ip + 1);
          Array.unsafe_set inputs p None
        end
      done;
      let words = inst.Process.fire inputs in
      (* [halted] is a pure function of process state and state only
         advances in [fire], so probing right here keeps the sticky
         flag as fresh as a scan of every shell each cycle. *)
      if inst.Process.halted () then ro.halted <- true;
      Array.unsafe_set t.firings n (Array.unsafe_get t.firings n + 1);
      for q = 0 to n_out - 1 do
        Array.unsafe_set t.emit_val (op0 + q) (Array.unsafe_get words q);
        Bytes.unsafe_set t.emit_valid (op0 + q) '\001'
      done;
      if t.record_traces then
        for q = 0 to n_out - 1 do
          t.traces.(op0 + q) <- Token.Valid words.(q) :: t.traces.(op0 + q)
        done
    end
    else begin
      Array.unsafe_set t.stalls n (Array.unsafe_get t.stalls n + 1);
      if !ready then
        Array.unsafe_set t.output_blocked n (Array.unsafe_get t.output_blocked n + 1)
      else Array.unsafe_set t.input_starved n (Array.unsafe_get t.input_starved n + 1);
      for q = 0 to n_out - 1 do
        Bytes.unsafe_set t.emit_valid (op0 + q) '\000'
      done;
      if t.record_traces then
        for q = 0 to n_out - 1 do
          t.traces.(op0 + q) <- Token.Void :: t.traces.(op0 + q)
        done
    end
  done;
  (* Phase 3: simultaneous shift — all relay emissions are computed from
     the pre-shift state before any acceptance. *)
  if t.cap = max_int then reserve t;
  let buf = t.fifo_buf and ring = t.ring in
  for c = 0 to t.n_chans - 1 do
    let op = Array.unsafe_get t.chan_src_op c in
    let ip = Array.unsafe_get t.chan_dst_ip c in
    let base = Array.unsafe_get t.rs_off c in
    let k = Array.unsafe_get t.rs_cnt c in
    let tc_valid, tc_val =
      if k = 0 then
        (Bytes.unsafe_get t.emit_valid op = '\001', Array.unsafe_get t.emit_val op)
      else begin
        for i = 0 to k - 1 do
          let r = base + i in
          if Bytes.unsafe_get t.stage_stops r = '\001' || Array.unsafe_get t.rs_len r = 0
          then Bytes.unsafe_set t.rs_out_valid r '\000'
          else begin
            Bytes.unsafe_set t.rs_out_valid r '\001';
            let head = Array.unsafe_get t.rs_head r in
            Array.unsafe_set t.rs_out_val r (Array.unsafe_get t.rs_val ((2 * r) + head));
            Array.unsafe_set t.rs_head r (1 - head);
            Array.unsafe_set t.rs_len r (Array.unsafe_get t.rs_len r - 1)
          end
        done;
        if Bytes.unsafe_get t.emit_valid op = '\001' then
          rs_accept t base (Array.unsafe_get t.emit_val op);
        for i = 1 to k - 1 do
          if Bytes.unsafe_get t.rs_out_valid (base + i - 1) = '\001' then
            rs_accept t (base + i) (Array.unsafe_get t.rs_out_val (base + i - 1))
        done;
        ( Bytes.unsafe_get t.rs_out_valid (base + k - 1) = '\001',
          Array.unsafe_get t.rs_out_val (base + k - 1) )
      end
    in
    let h = Bytes.unsafe_get t.hook c in
    if h = '\000' then begin
      if tc_valid then begin
        Array.unsafe_set t.chan_delivered c (Array.unsafe_get t.chan_delivered c + 1);
        if Array.unsafe_get t.drop_pending ip > 0 then begin
          Array.unsafe_set t.drop_pending ip (Array.unsafe_get t.drop_pending ip - 1);
          Array.unsafe_set t.dropped ip (Array.unsafe_get t.dropped ip + 1)
        end
        else begin
          let len = Array.unsafe_get t.fifo_len ip in
          if len >= t.cap then token_lost ();
          let slot = Array.unsafe_get t.fifo_head ip + len in
          let slot = if slot >= ring then slot - ring else slot in
          Array.unsafe_set buf ((ip * ring) + slot) tc_val;
          Array.unsafe_set t.fifo_len ip (len + 1)
        end
      end
    end
    else begin
      match t.fault, t.link with
      | Some f, _ when h = '\001' ->
        Fault.deliver f ~chan:c ~valid:tc_valid ~value:tc_val
          ~can_accept:(Array.unsafe_get t.f_can c) ~accept:(Array.unsafe_get t.f_acc c)
      | _, Some k ->
        Link.channel_step k ~chan:c ~cycle:cyc ~produced_valid:tc_valid
          ~produced_value:tc_val ~can_accept:(Array.unsafe_get t.f_can c)
          ~accept:(Array.unsafe_get t.f_acc c)
      | _ -> assert false
    end
  done;
  (match t.tel with
  | None -> ()
  | Some tl -> Telemetry.commit_cycle tl ~delivered:t.chan_delivered);
  ro.clock <- cyc + 1;
  if !fired then ro.quiet <- 0 else ro.quiet <- ro.quiet + 1

let step = advance

let run ?(cancel = Wp_util.Cancel.never) ?(max_cycles = 1_000_000) t =
  run_roster t.ro advance t ~budget:max_cycles ~cancel

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let cycles t = t.ro.clock
let network t = t.net
let delivered t c = t.chan_delivered.(c)

let fault_injections t =
  match t.fault with Some f -> Fault.injections f | None -> 0

let link_summary t = Option.map Link.summary t.link

let telemetry_report t =
  Option.map (fun tl -> Telemetry.report_of tl ~link:(link_summary t)) t.tel

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
(* Table recorder                                                     *)
(* ------------------------------------------------------------------ *)

type table_cycle = {
  tc_fired : int array;  (* shells firing this cycle, ascending *)
  tc_blocked : int array;  (* stalled, ready but backpressured *)
  tc_deliver : int array;  (* channels delivering a token *)
  tc_consumed : int array;  (* input ports the firing shells read *)
  tc_dropped : int array;  (* input ports that discarded a token *)
}

(* A kernel of placeholder processes: [fire] returns one
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
      ~telemetry:Telemetry.off ~capacity ~fault:Fault.none ~mode:Shell.Oracle net
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

(* A shell's firing and blocked counters, a channel's delivered count
   and a port's reads and discards move by one at most per cycle (a
   pending drop means an empty FIFO), so the counters' moves over one
   [advance] are the row; a shell that neither fired nor blocked
   starved. *)
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
  let row =
    {
      tc_fired = moved k.firings k.n_nodes;
      tc_blocked = moved k.output_blocked k.n_nodes;
      tc_deliver = moved k.chan_delivered k.n_chans;
      tc_consumed = moved k.required_counts k.n_in;
      tc_dropped = moved k.dropped k.n_in;
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
