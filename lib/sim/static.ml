(* Static-schedule kernel: one count-only prepass, then table replay.

   The prepass replicates Fast's three-phase step on occupancies alone
   (FIFO lengths and relay-station fills — in Plain mode with no
   faults these determine firing exactly), hashing the state vector
   each cycle until it repeats.  That yields a transient prefix plus a
   period, and per-cycle tables of fired / starved / blocked shells
   and delivered channels.  Replay then walks the table: scheduled
   shells fire their real process closures on real data (values travel
   through per-channel append-only queues instead of FIFOs — channel
   order is FIFO order because [Network.connect] makes ports and
   channels one-to-one), scheduled stalls bump the same counters Fast
   bumps, scheduled deliveries bump [delivered].  Everything
   observable stays byte-identical to the dynamic engines while the
   per-cycle cost drops to a few array reads. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token
module Process = Wp_lis.Process
module Digraph = Wp_graph.Digraph
module Cycle_ratio = Wp_graph.Cycle_ratio
module Schedule = Wp_graph.Schedule

exception Unschedulable of string

let unschedulable fmt = Printf.ksprintf (fun s -> raise (Unschedulable s)) fmt

(* One cycle of the precomputed table. *)
type table_cycle = {
  tc_fired : int array;  (* shells firing this cycle, ascending *)
  tc_starved : int array;  (* stalled, missing an input *)
  tc_blocked : int array;  (* stalled, ready but backpressured *)
  tc_deliver : int array;  (* channels delivering a token *)
  tc_any : bool;
}

type t = {
  net : Network.t;
  record_traces : bool;
  n_chans : int;
  instances : Process.instance array;
  in_base : int array;
  out_base : int array;
  ip_chan : int array;  (* global input port -> feeding channel *)
  op_chan : int array;  (* global output port -> driven channel *)
  chan_dst_ip : int array;
  (* the schedule *)
  transient : int;
  period : int;
  table : table_cycle array;  (* length transient + period *)
  (* per-shell statistics, identical meaning to Fast's *)
  firings : int array;
  stalls : int array;
  input_starved : int array;
  output_blocked : int array;
  required_counts : int array;
  dropped : int array;  (* always 0: oracle skips are unschedulable *)
  inputs_scratch : int option array array;
  traces : int Token.t list array;  (* newest first *)
  (* per-channel value stream: absolute index 0 is the reset token;
     [q_buf.(c)] holds indices [q_off.(c) ..< q_off.(c) + q_len.(c)]
     (the consumed prefix is compacted away on growth, so the buffer
     stays bounded by the tokens actually in flight) *)
  q_buf : int array array;
  q_off : int array;
  q_len : int array;
  consumed : int array;
  chan_delivered : int array;
  (* clocking *)
  mutable clock : int;
  mutable halted : bool;
      (* sticky: some process reports [halted].  [halted] depends only on
         process state and state only advances in [fire], so probing right
         after each firing keeps this as fresh as a scan of every shell. *)
  mutable last_fired : bool;
  mutable quiet_cycles : int;
  quiescence : int;
}

(* ------------------------------------------------------------------ *)
(* Count-only prepass                                                 *)
(* ------------------------------------------------------------------ *)

(* A generous ceiling: the reachable occupancy space of the paper's
   networks cycles within tens of cycles, but a pathological graph
   could wander longer before closing its orbit. *)
let prepass_budget = 1 lsl 16

let prepass ~capacity ~n_nodes ~n_chans ~in_base ~out_base ~chan_src_op
    ~chan_dst_ip ~chan_rs_base ~out_chan_base ~out_chan_ids =
  let n_in_total = in_base.(n_nodes) in
  let total_rs = chan_rs_base.(n_chans) in
  let fifo_len = Array.make (max 1 n_in_total) 0 in
  let rs_len = Array.make (max 1 total_rs) 0 in
  let stage_stops = Array.make (max 1 total_rs) false in
  let rs_out_valid = Array.make (max 1 total_rs) false in
  let producer_stop = Array.make (max 1 n_chans) false in
  let emit_valid = Array.make (max 1 out_base.(n_nodes)) false in
  (* Reset: one token per channel, exactly as in [Fast.create]. *)
  for c = 0 to n_chans - 1 do
    let ip = chan_dst_ip.(c) in
    if fifo_len.(ip) < capacity then fifo_len.(ip) <- fifo_len.(ip) + 1
  done;
  let state_key () =
    let key = Array.make (n_in_total + total_rs) 0 in
    Array.blit fifo_len 0 key 0 n_in_total;
    Array.blit rs_len 0 key n_in_total total_rs;
    key
  in
  let seen : (int array, int) Hashtbl.t = Hashtbl.create 1024 in
  let records = ref [] in
  let result = ref None in
  let cycle = ref 0 in
  while !result = None do
    (match Hashtbl.find_opt seen (state_key ()) with
    | Some first -> result := Some (first, !cycle - first)
    | None ->
        if !cycle >= prepass_budget then
          unschedulable
            "no periodic steady state within %d cycles (capacity %d)"
            prepass_budget capacity;
        Hashtbl.add seen (state_key ()) !cycle;
        (* Phase 1: stop propagation. *)
        for c = 0 to n_chans - 1 do
          let stop = ref (fifo_len.(chan_dst_ip.(c)) >= capacity) in
          let base = chan_rs_base.(c) in
          for i = chan_rs_base.(c + 1) - 1 - base downto 0 do
            let r = base + i in
            stage_stops.(r) <- !stop;
            stop := !stop && rs_len.(r) >= 2
          done;
          producer_stop.(c) <- !stop
        done;
        (* Phase 2: firing decisions. *)
        let fired = ref [] and starved = ref [] and blocked = ref [] in
        let any = ref false in
        for n = 0 to n_nodes - 1 do
          let outputs_clear =
            let ok = ref true in
            for j = out_chan_base.(n) to out_chan_base.(n + 1) - 1 do
              if producer_stop.(out_chan_ids.(j)) then ok := false
            done;
            !ok
          in
          let ready = ref true in
          for p = 0 to in_base.(n + 1) - in_base.(n) - 1 do
            if fifo_len.(in_base.(n) + p) = 0 then ready := false
          done;
          let op0 = out_base.(n) in
          if !ready && outputs_clear then begin
            any := true;
            fired := n :: !fired;
            for p = 0 to in_base.(n + 1) - in_base.(n) - 1 do
              let ip = in_base.(n) + p in
              fifo_len.(ip) <- fifo_len.(ip) - 1
            done;
            for q = 0 to out_base.(n + 1) - op0 - 1 do
              emit_valid.(op0 + q) <- true
            done
          end
          else begin
            (if !ready then blocked := n :: !blocked
             else starved := n :: !starved);
            for q = 0 to out_base.(n + 1) - op0 - 1 do
              emit_valid.(op0 + q) <- false
            done
          end
        done;
        (* Phase 3: simultaneous shift and delivery. *)
        let deliver = ref [] in
        for c = 0 to n_chans - 1 do
          let op = chan_src_op.(c) in
          let base = chan_rs_base.(c) in
          let k = chan_rs_base.(c + 1) - base in
          let tc_valid =
            if k = 0 then emit_valid.(op)
            else begin
              for i = 0 to k - 1 do
                let r = base + i in
                if stage_stops.(r) || rs_len.(r) = 0 then
                  rs_out_valid.(r) <- false
                else begin
                  rs_out_valid.(r) <- true;
                  rs_len.(r) <- rs_len.(r) - 1
                end
              done;
              if emit_valid.(op) then rs_len.(base) <- rs_len.(base) + 1;
              for i = 1 to k - 1 do
                if rs_out_valid.(base + i - 1) then
                  rs_len.(base + i) <- rs_len.(base + i) + 1
              done;
              rs_out_valid.(base + k - 1)
            end
          in
          if tc_valid then begin
            deliver := c :: !deliver;
            let ip = chan_dst_ip.(c) in
            if fifo_len.(ip) >= capacity then
              failwith "Static prepass: token lost (stop protocol violated)";
            fifo_len.(ip) <- fifo_len.(ip) + 1
          end
        done;
        records :=
          {
            tc_fired = Array.of_list (List.rev !fired);
            tc_starved = Array.of_list (List.rev !starved);
            tc_blocked = Array.of_list (List.rev !blocked);
            tc_deliver = Array.of_list (List.rev !deliver);
            tc_any = !any;
          }
          :: !records;
        incr cycle)
  done;
  let transient, period =
    match !result with Some tp -> tp | None -> assert false
  in
  (* Keep only the transient plus one full period. *)
  let all = Array.of_list (List.rev !records) in
  (transient, period, Array.sub all 0 (transient + period))

(* ------------------------------------------------------------------ *)
(* Shared CSR metadata                                                *)
(* ------------------------------------------------------------------ *)

(* Flattened topology: every engine in this library derives the same
   arrays from a network; factoring them out lets {!tables} serve both
   this module and the batch kernel's static lane groups. *)
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

let prepass_of_meta ~capacity m =
  prepass ~capacity ~n_nodes:m.m_n_nodes ~n_chans:m.m_n_chans
    ~in_base:m.m_in_base ~out_base:m.m_out_base ~chan_src_op:m.m_chan_src_op
    ~chan_dst_ip:m.m_chan_dst_ip ~chan_rs_base:m.m_chan_rs_base
    ~out_chan_base:m.m_out_chan_base ~out_chan_ids:m.m_out_chan_ids

(* ------------------------------------------------------------------ *)
(* Schedule memo                                                      *)
(* ------------------------------------------------------------------ *)

(* A schedule depends only on (capacity, per-channel relay stations,
   topology shape) — never on process data.  A sweep scenario replays
   one schedule on the batch kernel and again here, and the serve daemon
   replays the same machines all day, so tables are memoised across
   calls.  The key spells out everything the prepass reads.  Guarded by
   a mutex: runner pools call in from several domains.  Cached tables
   are immutable once built, so sharing them is safe.

   The memo is bounded by entries and by the words its tables retain:
   an insert that would cross either bound empties it first, and a
   table larger than the whole word budget is returned uncached. *)

let memo_entries = 256
let memo_words = 2_000_000 (* 16 MB of 64-bit words *)

let memo : (string, int * int * table_cycle array) Hashtbl.t = Hashtbl.create 64
let memo_mutex = Mutex.create ()
let memo_held = ref 0 (* words retained by [memo]'s tables *)

let schedule_key ~capacity net =
  let b = Buffer.create 128 in
  let n_nodes = Network.node_count net in
  let n_chans = Network.channel_count net in
  Printf.bprintf b "%d|%d|%d" capacity n_nodes n_chans;
  for n = 0 to n_nodes - 1 do
    let p = Network.node_process net n in
    Printf.bprintf b "|%d.%d" (Process.n_inputs p) (Process.n_outputs p)
  done;
  for c = 0 to n_chans - 1 do
    let sn, sp = Network.channel_src net c in
    let dn, dp = Network.channel_dst net c in
    Printf.bprintf b "|%d.%d.%d.%d.%d" sn sp dn dp
      (Network.relay_stations net c)
  done;
  Buffer.contents b

(* Heap words of a table: one slot per row, each row a 5-field record
   and four int arrays with their headers. *)
let table_words (_, _, table) =
  Array.fold_left
    (fun acc tc ->
      acc + 11
      + Array.length tc.tc_fired + Array.length tc.tc_starved
      + Array.length tc.tc_blocked + Array.length tc.tc_deliver)
    (1 + Array.length table) table

let memoised ~capacity net compute =
  let key = schedule_key ~capacity net in
  Mutex.lock memo_mutex;
  let hit = Hashtbl.find_opt memo key in
  Mutex.unlock memo_mutex;
  match hit with
  | Some s -> s
  | None ->
    let s = compute () in
    let words = table_words s in
    Mutex.lock memo_mutex;
    (* Another domain may have cached the same key meanwhile: keep its
       copy, so every caller shares one table. *)
    let s =
      match Hashtbl.find_opt memo key with
      | Some s' -> s'
      | None ->
        if words <= memo_words then begin
          if
            Hashtbl.length memo >= memo_entries
            || !memo_held + words > memo_words
          then begin
            Hashtbl.reset memo;
            memo_held := 0
          end;
          Hashtbl.add memo key s;
          memo_held := !memo_held + words
        end;
        s
    in
    Mutex.unlock memo_mutex;
    s

let tables ~capacity net =
  if capacity <= 0 then
    unschedulable "unbounded FIFOs have no finite occupancy state";
  memoised ~capacity net (fun () -> prepass_of_meta ~capacity (meta_of net))

(* ------------------------------------------------------------------ *)
(* Compile                                                            *)
(* ------------------------------------------------------------------ *)

let create ?(capacity = 2) ?(record_traces = false) ?fault
    ?(telemetry = Telemetry.off) ~mode net =
  if capacity < 0 then invalid_arg "Static.create: negative capacity";
  Network.validate net;
  (match mode with
  | Shell.Plain -> ()
  | Shell.Oracle ->
      unschedulable "oracle mode: input masks are data-dependent");
  (match fault with
  | Some spec when not (Fault.is_none spec) ->
      unschedulable "fault injection perturbs the firing pattern"
  | _ -> ());
  if not (Telemetry.is_off telemetry) then
    unschedulable "telemetry instrumentation needs per-cycle observation";
  if capacity = 0 then
    unschedulable "unbounded FIFOs have no finite occupancy state";
  let n_nodes = Network.node_count net in
  let n_chans = Network.channel_count net in
  for c = 0 to n_chans - 1 do
    if Network.protection net c <> None then
      unschedulable "channel %d is link-protected" c
  done;
  let procs = Array.init n_nodes (fun n -> Network.node_process net n) in
  let instances =
    Array.init n_nodes (fun n -> procs.(n).Process.make ())
  in
  let m = meta_of net in
  let in_base = m.m_in_base in
  let out_base = m.m_out_base in
  let n_in_total = in_base.(n_nodes) in
  let n_out_total = out_base.(n_nodes) in
  let ip_chan = m.m_ip_chan in
  let op_chan = m.m_op_chan in
  let chan_dst_ip = m.m_chan_dst_ip in
  let total_rs = m.m_chan_rs_base.(n_chans) in
  let transient, period, table =
    memoised ~capacity net (fun () -> prepass_of_meta ~capacity m)
  in
  let quiescence = 16 + (4 * (n_nodes + n_chans + total_rs)) in
  let q_buf = Array.init (max 1 n_chans) (fun _ -> Array.make 16 0) in
  let q_len = Array.make (max 1 n_chans) 0 in
  (* Reset values seed each channel's stream. *)
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net c in
    q_buf.(c).(0) <- procs.(src_node).Process.reset_outputs.(src_port);
    q_len.(c) <- 1
  done;
  {
    net;
    record_traces;
    n_chans;
    instances;
    in_base;
    out_base;
    ip_chan;
    op_chan;
    chan_dst_ip;
    transient;
    period;
    table;
    firings = Array.make (max 1 n_nodes) 0;
    stalls = Array.make (max 1 n_nodes) 0;
    input_starved = Array.make (max 1 n_nodes) 0;
    output_blocked = Array.make (max 1 n_nodes) 0;
    required_counts = Array.make (max 1 n_in_total) 0;
    dropped = Array.make (max 1 n_in_total) 0;
    inputs_scratch =
      Array.init n_nodes (fun n -> Array.make (Process.n_inputs procs.(n)) None);
    traces = Array.make (max 1 n_out_total) [];
    q_buf;
    q_off = Array.make (max 1 n_chans) 0;
    q_len;
    consumed = Array.make (max 1 n_chans) 0;
    chan_delivered = Array.make (max 1 n_chans) 0;
    clock = 0;
    halted = Array.exists (fun i -> i.Process.halted ()) instances;
    last_fired = false;
    quiet_cycles = 0;
    quiescence;
  }

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)
(* ------------------------------------------------------------------ *)

let queue_push t c v =
  let buf = t.q_buf.(c) in
  let len = t.q_len.(c) in
  let buf =
    if len = Array.length buf then begin
      let keep = t.q_off.(c) + len - t.consumed.(c) in
      if 2 * keep <= len then begin
        (* Compact: drop the consumed prefix instead of growing. *)
        Array.blit buf (t.consumed.(c) - t.q_off.(c)) buf 0 keep;
        t.q_off.(c) <- t.consumed.(c);
        t.q_len.(c) <- keep;
        buf
      end
      else begin
        let fresh = Array.make (2 * len) 0 in
        Array.blit buf 0 fresh 0 len;
        t.q_buf.(c) <- fresh;
        fresh
      end
    end
    else buf
  in
  buf.(t.q_len.(c)) <- v;
  t.q_len.(c) <- t.q_len.(c) + 1

let table_index t =
  if t.clock < t.transient then t.clock
  else t.transient + ((t.clock - t.transient) mod t.period)

let apply_stalls t cls attr =
  for i = 0 to Array.length cls - 1 do
    let n = cls.(i) in
    t.stalls.(n) <- t.stalls.(n) + 1;
    attr.(n) <- attr.(n) + 1;
    if t.record_traces then begin
      let op0 = t.out_base.(n) in
      for q = 0 to t.out_base.(n + 1) - op0 - 1 do
        t.traces.(op0 + q) <- Token.Void :: t.traces.(op0 + q)
      done
    end
  done

let step t =
  let tc = t.table.(table_index t) in
  let fired = tc.tc_fired in
  for i = 0 to Array.length fired - 1 do
    let n = fired.(i) in
    let inputs = t.inputs_scratch.(n) in
    let n_in = t.in_base.(n + 1) - t.in_base.(n) in
    for p = 0 to n_in - 1 do
      let ip = t.in_base.(n) + p in
      t.required_counts.(ip) <- t.required_counts.(ip) + 1;
      let c = t.ip_chan.(ip) in
      inputs.(p) <- Some t.q_buf.(c).(t.consumed.(c) - t.q_off.(c));
      t.consumed.(c) <- t.consumed.(c) + 1
    done;
    let inst = t.instances.(n) in
    let words = inst.Process.fire inputs in
    if inst.Process.halted () then t.halted <- true;
    t.firings.(n) <- t.firings.(n) + 1;
    let op0 = t.out_base.(n) in
    let n_out = t.out_base.(n + 1) - op0 in
    for q = 0 to n_out - 1 do
      queue_push t t.op_chan.(op0 + q) words.(q)
    done;
    if t.record_traces then
      for q = 0 to n_out - 1 do
        t.traces.(op0 + q) <- Token.Valid words.(q) :: t.traces.(op0 + q)
      done
  done;
  apply_stalls t tc.tc_starved t.input_starved;
  apply_stalls t tc.tc_blocked t.output_blocked;
  let deliver = tc.tc_deliver in
  for i = 0 to Array.length deliver - 1 do
    let c = deliver.(i) in
    t.chan_delivered.(c) <- t.chan_delivered.(c) + 1
  done;
  t.clock <- t.clock + 1;
  t.last_fired <- tc.tc_any;
  if tc.tc_any then t.quiet_cycles <- 0
  else t.quiet_cycles <- t.quiet_cycles + 1

let any_halted t = t.halted

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
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let cycles t = t.clock
let mode _ = Shell.Plain
let network t = t.net
let delivered t c = t.chan_delivered.(c)
let fired_last_cycle t = t.last_fired
let quiescence_window t = t.quiescence
let fault_injections _ = 0
let link_stats _ = []
let link_summary _ = None
let telemetry_report _ = None

let buffered t node port =
  let c = t.ip_chan.(t.in_base.(node) + port) in
  1 + t.chan_delivered.(c) - t.consumed.(c)

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
(* The schedule itself                                                *)
(* ------------------------------------------------------------------ *)

let transient t = t.transient
let period t = t.period

let word t n =
  Array.init t.period (fun i ->
      let tc = t.table.(t.transient + i) in
      Array.exists (fun m -> m = n) tc.tc_fired)

let rate t n =
  let w = word t n in
  let ones = Array.fold_left (fun a b -> if b then a + 1 else a) 0 w in
  Cycle_ratio.make_ratio ones t.period

(* ------------------------------------------------------------------ *)
(* Capacity-extended marked graph                                     *)
(* ------------------------------------------------------------------ *)

let capacity_graph ?(capacity = 2) net =
  if capacity <= 0 then
    invalid_arg "Static.capacity_graph: capacity must be positive";
  Network.validate net;
  let g = Digraph.create () in
  let n_nodes = Network.node_count net in
  for n = 0 to n_nodes - 1 do
    ignore
      (Digraph.add_vertex g ~label:(Network.node_process net n).Process.name)
  done;
  let n_chans = Network.channel_count net in
  let tokens = Array.make (max 1 (2 * n_chans)) 0 in
  let time = Array.make (max 1 (2 * n_chans)) 0 in
  List.iter
    (fun c ->
      let src, _ = Network.channel_src net c in
      let dst, _ = Network.channel_dst net c in
      let k = Network.relay_stations net c in
      let label = Network.channel_label net c in
      let fwd = Digraph.add_edge g ~src ~dst ~label in
      tokens.(fwd) <- 1;
      time.(fwd) <- 1 + k;
      let rev = Digraph.add_edge g ~src:dst ~dst:src ~label:(label ^ "'") in
      tokens.(rev) <- capacity + (2 * k) - 1;
      time.(rev) <- 1)
    (Network.channels net);
  (g, (fun e -> tokens.(e)), fun e -> time.(e))

let schedule ?capacity net =
  let g, tokens, time = capacity_graph ?capacity net in
  Schedule.build g ~tokens ~time
