(* Static-schedule kernel: one count-only prepass, then table replay.

   The prepass replicates Fast's three-phase step on occupancies alone
   (FIFO lengths and relay-station fills — in Plain mode with no
   faults these determine firing exactly), hashing the state vector
   each cycle until it repeats.  That yields a transient prefix plus a
   period, and per-cycle tables of fired / starved / blocked shells
   and delivered channels.

   The replay kernel below is the library's only table-replay loop: a
   solo [create] is a one-lane instance, and each of the batch kernel's
   replay groups is a many-lane one.  All lanes of an instance share
   (topology, per-channel relay-station counts, capacity), hence the
   exact same firing schedule, the same quiescence window and — while
   active — the same clock.  A replay cycle touches only the shells
   that fire: they fire their real process closures on real data, and
   everything else (stall counters, delivered counts) is reconstructed
   on demand from cumulative schedule tables, built once per schedule
   next to the table in the memo.  Stall-heavy configurations — exactly
   the wire-pipelined ones this library studies — cost almost nothing
   per cycle, and everything observable stays byte-identical to the
   dynamic engines. *)

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

(* ------------------------------------------------------------------ *)
(* Shared CSR metadata                                                *)
(* ------------------------------------------------------------------ *)

(* Flattened topology: both compiled kernels and the prepass read the
   same arrays, derived once here from a network. *)
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
(* Count-only prepass                                                 *)
(* ------------------------------------------------------------------ *)

(* A generous ceiling: the reachable occupancy space of the paper's
   networks cycles within tens of cycles, but a pathological graph
   could wander longer before closing its orbit. *)
let prepass_budget = 1 lsl 16

let prepass ~capacity m =
  let n_nodes = m.m_n_nodes and n_chans = m.m_n_chans in
  let in_base = m.m_in_base and out_base = m.m_out_base in
  let chan_src_op = m.m_chan_src_op and chan_dst_ip = m.m_chan_dst_ip in
  let chan_rs_base = m.m_chan_rs_base in
  let out_chan_base = m.m_out_chan_base and out_chan_ids = m.m_out_chan_ids in
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

(* Cumulative schedule counts: row [j] covers cycles [0, j), rows
   0 .. transient + period; beyond that, counts extrapolate by whole
   periods.  Every shell fires, blocks or starves in each cycle, so the
   starved counts are what the other two leave. *)
type cum = {
  cum_fired : int array; (* (row * n_nodes) + n *)
  cum_blocked : int array;
  cum_deliver : int array; (* (row * n_chans) + c *)
}

let cum_of m (transient, period, table) =
  let tp = transient + period in
  let build n_ent proj =
    let cum = Array.make (max 1 ((tp + 1) * n_ent)) 0 in
    for j = 0 to tp - 1 do
      Array.blit cum (j * n_ent) cum ((j + 1) * n_ent) n_ent;
      let ids = proj table.(j) in
      for i = 0 to Array.length ids - 1 do
        let e = ((j + 1) * n_ent) + ids.(i) in
        cum.(e) <- cum.(e) + 1
      done
    done;
    cum
  in
  {
    cum_fired = build m.m_n_nodes (fun tc -> tc.tc_fired);
    cum_blocked = build m.m_n_nodes (fun tc -> tc.tc_blocked);
    cum_deliver = build m.m_n_chans (fun tc -> tc.tc_deliver);
  }

(* A schedule: the table and the cumulative counts replays read. *)
type sched = { s_tables : int * int * table_cycle array; s_cum : cum }

let sched_of ~capacity m =
  let tables = prepass ~capacity m in
  { s_tables = tables; s_cum = cum_of m tables }

(* ------------------------------------------------------------------ *)
(* Schedule memo                                                      *)
(* ------------------------------------------------------------------ *)

(* A schedule depends only on (capacity, per-channel relay stations,
   topology shape) — never on process data.  A sweep scenario replays
   one schedule on the batch kernel and again here, and the serve daemon
   replays the same machines all day, so schedules are memoised across
   calls.  The key spells out everything the prepass reads.  Guarded by
   a mutex: runner pools call in from several domains.  Cached schedules
   are immutable once built, so sharing them is safe.

   The memo is bounded by entries and by the words its schedules
   retain: an insert that would cross either bound empties it first,
   and a schedule larger than the whole word budget is returned
   uncached. *)

let memo_entries = 256
let memo_words = 2_000_000 (* 16 MB of 64-bit words *)

let memo : (string, sched) Hashtbl.t = Hashtbl.create 64
let memo_mutex = Mutex.create ()
let memo_held = ref 0 (* words retained by [memo]'s schedules *)

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

(* Heap words of a schedule: one slot per table row, each row a 5-field
   record and four int arrays with their headers, plus the three
   cumulative arrays and the two records holding it all. *)
let sched_words s =
  let _, _, table = s.s_tables in
  let c = s.s_cum in
  Array.fold_left
    (fun acc tc ->
      acc + 11
      + Array.length tc.tc_fired + Array.length tc.tc_starved
      + Array.length tc.tc_blocked + Array.length tc.tc_deliver)
    (1 + Array.length table) table
  + Array.length c.cum_fired + Array.length c.cum_blocked
  + Array.length c.cum_deliver + 14

let lookup ~capacity net compute =
  if capacity <= 0 then
    unschedulable "unbounded FIFOs have no finite occupancy state";
  let key = schedule_key ~capacity net in
  Mutex.lock memo_mutex;
  let hit = Hashtbl.find_opt memo key in
  Mutex.unlock memo_mutex;
  match hit with
  | Some s -> s
  | None ->
    let s = compute () in
    let words = sched_words s in
    Mutex.lock memo_mutex;
    (* Another domain may have cached the same key meanwhile: keep its
       copy, so every caller shares one schedule. *)
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
  (lookup ~capacity net (fun () -> sched_of ~capacity (meta_of net))).s_tables

(* ------------------------------------------------------------------ *)
(* Replay kernel                                                      *)
(* ------------------------------------------------------------------ *)

(* Values flow through per-channel rings whose head/tail cursors are
   shared by every lane: active lanes have consumed and produced the
   same token counts at every cycle, so cursor maintenance is paid once
   per channel, not once per lane.  Cell [(c, slot, l)] lives at
   [q_base.(c) + slot * L + l], lane-inner for contiguity.

   A ring never overflows: a channel with capacity [C] and [k] relay
   stations holds at most [C + 2k] tokens in flight at a cycle
   boundary, plus one transiently when a producer fires earlier in the
   table row than its consumer — stride [C + 2k + 2] leaves a spare
   slot on top of that. *)

type t = {
  n_lanes : int;
  record_traces : bool;
  nets : Network.t array; (* per lane *)
  n_nodes : int;
  n_chans : int;
  instances : Process.instance array; (* [n * L + l] *)
  in_base : int array;
  out_base : int array;
  ip_chan : int array; (* global input port -> feeding channel *)
  op_chan : int array; (* global output port -> driven channel *)
  transient : int;
  period : int;
  table : table_cycle array;
  cum : cum;
  inputs_scratch : int option array array; (* per node, reused *)
  halt_flag : Bytes.t; (* per lane, sticky; set right after a firing *)
  traces : int Token.t list array; (* [(out_port * L) + l]; newest first *)
  q_val : int array;
  q_base : int array;
  q_stride : int array;
  q_head : int array;
  q_tail : int array;
  q_fill : int array;
  quiescence : int;
  mutable quiet : int; (* shared: every lane fires the same pattern *)
  mutable clock : int;
  act : int array; (* running lane ids, first n_act entries *)
  mutable n_act : int;
  finished : Engine.outcome option array;
  lane_end : int array;
}

let create_lanes ?(record_traces = false) ~capacity nets =
  let n_lanes = Array.length nets in
  let net0 = nets.(0) in
  let m = meta_of net0 in
  let s = lookup ~capacity net0 (fun () -> sched_of ~capacity m) in
  let transient, period, table = s.s_tables in
  let n_nodes = m.m_n_nodes and n_chans = m.m_n_chans in
  let rs_base = m.m_chan_rs_base in
  let q_stride =
    Array.init n_chans (fun c -> capacity + (2 * (rs_base.(c + 1) - rs_base.(c))) + 2)
  in
  let q_base = Array.make (n_chans + 1) 0 in
  for c = 0 to n_chans - 1 do
    q_base.(c + 1) <- q_base.(c) + (q_stride.(c) * n_lanes)
  done;
  let proc l n = Network.node_process nets.(l) n in
  let instances =
    Array.init (n_nodes * n_lanes) (fun i ->
        (proc (i mod n_lanes) (i / n_lanes)).Process.make ())
  in
  let t =
    {
      n_lanes;
      record_traces;
      nets;
      n_nodes;
      n_chans;
      instances;
      in_base = m.m_in_base;
      out_base = m.m_out_base;
      ip_chan = m.m_ip_chan;
      op_chan = m.m_op_chan;
      transient;
      period;
      table;
      cum = s.s_cum;
      inputs_scratch =
        Array.init n_nodes (fun n ->
            Array.make (m.m_in_base.(n + 1) - m.m_in_base.(n)) None);
      halt_flag = Bytes.make n_lanes '\000';
      traces = Array.make (max 1 (m.m_out_base.(n_nodes) * n_lanes)) [];
      q_val = Array.make (max 1 q_base.(n_chans)) 0;
      q_base;
      q_stride;
      q_head = Array.make (max 1 n_chans) 0;
      q_tail = Array.make (max 1 n_chans) 1;
      q_fill = Array.make (max 1 n_chans) 1;
      quiescence = 16 + (4 * (n_nodes + n_chans + rs_base.(n_chans)));
      quiet = 0;
      clock = 0;
      act = Array.init n_lanes Fun.id;
      n_act = n_lanes;
      finished = Array.make n_lanes None;
      lane_end = Array.make n_lanes 0;
    }
  in
  (* Reset: slot 0 of every ring holds the channel's reset token. *)
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net0 c in
    for l = 0 to n_lanes - 1 do
      t.q_val.(q_base.(c) + l) <- (proc l src_node).Process.reset_outputs.(src_port)
    done
  done;
  (* A process can be terminal at reset; the first check must see it. *)
  for l = 0 to n_lanes - 1 do
    for n = 0 to n_nodes - 1 do
      if instances.((n * n_lanes) + l).Process.halted () then
        Bytes.set t.halt_flag l '\001'
    done
  done;
  t

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
  for c = 0 to Network.channel_count net - 1 do
    if Network.protection net c <> None then
      unschedulable "channel %d is link-protected" c
  done;
  create_lanes ~record_traces ~capacity [| net |]

let table_index t =
  if t.clock < t.transient then t.clock
  else t.transient + ((t.clock - t.transient) mod t.period)

(* One cycle for every running lane. *)
let advance t =
  let ll = t.n_lanes in
  let tc = t.table.(table_index t) in
  let fired = tc.tc_fired in
  for i = 0 to Array.length fired - 1 do
    let n = Array.unsafe_get fired i in
    let ib = Array.unsafe_get t.in_base n in
    let n_in = Array.unsafe_get t.in_base (n + 1) - ib in
    let op0 = Array.unsafe_get t.out_base n in
    let n_out = Array.unsafe_get t.out_base (n + 1) - op0 in
    let inputs = Array.unsafe_get t.inputs_scratch n in
    for a = 0 to t.n_act - 1 do
      let l = Array.unsafe_get t.act a in
      for p = 0 to n_in - 1 do
        let c = Array.unsafe_get t.ip_chan (ib + p) in
        Array.unsafe_set inputs p
          (Some
             (Array.unsafe_get t.q_val
                (Array.unsafe_get t.q_base c
                + (Array.unsafe_get t.q_head c * ll)
                + l)))
      done;
      let inst = Array.unsafe_get t.instances ((n * ll) + l) in
      let words = inst.Process.fire inputs in
      (* [halted] is a pure function of process state and state only
         advances in [fire], so probing right here keeps the sticky flag
         as fresh as a scan of every shell each cycle. *)
      if inst.Process.halted () then Bytes.unsafe_set t.halt_flag l '\001';
      for q = 0 to n_out - 1 do
        let c = Array.unsafe_get t.op_chan (op0 + q) in
        Array.unsafe_set t.q_val
          (Array.unsafe_get t.q_base c
          + (Array.unsafe_get t.q_tail c * ll)
          + l)
          (Array.unsafe_get words q)
      done;
      if t.record_traces then
        for q = 0 to n_out - 1 do
          let opl = ((op0 + q) * ll) + l in
          t.traces.(opl) <- Token.Valid words.(q) :: t.traces.(opl)
        done
    done;
    (* Advance the shared cursors once per port, after the lanes. *)
    for p = 0 to n_in - 1 do
      let c = Array.unsafe_get t.ip_chan (ib + p) in
      let h = t.q_head.(c) + 1 in
      t.q_head.(c) <- (if h >= t.q_stride.(c) then 0 else h);
      t.q_fill.(c) <- t.q_fill.(c) - 1
    done;
    for q = 0 to n_out - 1 do
      let c = Array.unsafe_get t.op_chan (op0 + q) in
      let s = t.q_tail.(c) + 1 in
      t.q_tail.(c) <- (if s >= t.q_stride.(c) then 0 else s);
      t.q_fill.(c) <- t.q_fill.(c) + 1;
      if t.q_fill.(c) > t.q_stride.(c) then
        failwith "Static replay: value ring overflow (schedule violated)"
    done
  done;
  if t.record_traces then begin
    let voids cls =
      for i = 0 to Array.length cls - 1 do
        let n = cls.(i) in
        let op0 = t.out_base.(n) in
        for q = 0 to t.out_base.(n + 1) - op0 - 1 do
          for a = 0 to t.n_act - 1 do
            let l = t.act.(a) in
            let opl = ((op0 + q) * ll) + l in
            t.traces.(opl) <- Token.Void :: t.traces.(opl)
          done
        done
      done
    in
    voids tc.tc_starved;
    voids tc.tc_blocked
  end;
  t.clock <- t.clock + 1;
  if tc.tc_any then t.quiet <- 0 else t.quiet <- t.quiet + 1

(* Lanes whose state is at the current clock — all of them at creation,
   those that finished at this clock after a run — step again, so a run
   can be resumed with a larger budget. *)
let reopen t =
  t.n_act <- 0;
  for l = 0 to t.n_lanes - 1 do
    if Option.is_none t.finished.(l) || t.lane_end.(l) = t.clock then begin
      t.finished.(l) <- None;
      t.act.(t.n_act) <- l;
      t.n_act <- t.n_act + 1
    end
  done

let step t =
  reopen t;
  advance t

let run_lanes t ~budgets ~cancels =
  reopen t;
  let has_cancel = Array.exists (fun c -> not (Wp_util.Cancel.is_never c)) cancels in
  while t.n_act > 0 do
    (* The termination check, in Engine.run's order: halt, quiescence
       window, the cycle budget, then the cancellation poll (every
       [Engine.cancel_interval] cycles, one clock sample per round).
       The quiet counter is shared: the firing pattern — hence every
       silent-cycle run — is identical across the lanes.  A finished
       lane leaves the running set; the schedule replay is
       lane-independent, so the others keep byte-identical results. *)
    let poll_cancel =
      has_cancel && t.clock land (Engine.cancel_interval - 1) = 0
    in
    let now = if poll_cancel then Wp_util.Cancel.now () else 0. in
    let w = ref 0 in
    for a = 0 to t.n_act - 1 do
      let l = t.act.(a) in
      let fin =
        if Bytes.unsafe_get t.halt_flag l = '\001' then
          Some (Engine.Halted t.clock)
        else if t.quiet > t.quiescence then Some (Engine.Deadlocked t.clock)
        else if t.clock >= budgets.(l) then Some (Engine.Exhausted t.clock)
        else if poll_cancel && Wp_util.Cancel.cancelled_at ~now cancels.(l)
        then Some (Engine.Cancelled t.clock)
        else None
      in
      match fin with
      | Some _ ->
        t.finished.(l) <- fin;
        t.lane_end.(l) <- t.clock
      | None ->
        t.act.(!w) <- l;
        incr w
    done;
    t.n_act <- !w;
    if t.n_act > 0 then advance t
  done;
  Array.map Option.get t.finished

let run ?(cancel = Wp_util.Cancel.never) ?(max_cycles = 1_000_000) t =
  (run_lanes t ~budgets:[| max_cycles |] ~cancels:[| cancel |]).(0)

(* ------------------------------------------------------------------ *)
(* Accessors: schedule-table arithmetic, O(1) per query               *)
(* ------------------------------------------------------------------ *)

(* Occurrences of entity [e] during cycles [0, cycles). *)
let count t cum n_ent e cycles =
  let tp = t.transient + t.period in
  if cycles <= tp then cum.((cycles * n_ent) + e)
  else begin
    let r = (cycles - t.transient) mod t.period in
    let k = (cycles - t.transient) / t.period in
    cum.(((t.transient + r) * n_ent) + e)
    + (k * (cum.((tp * n_ent) + e) - cum.((t.transient * n_ent) + e)))
  end

let cycles ?(lane = 0) t =
  match t.finished.(lane) with Some _ -> t.lane_end.(lane) | None -> t.clock

let outcome t ~lane = t.finished.(lane)
let network ?(lane = 0) t = t.nets.(lane)

let delivered ?(lane = 0) t c =
  count t t.cum.cum_deliver t.n_chans c (cycles ~lane t)

let node_stats ?(lane = 0) t n =
  let e = cycles ~lane t in
  let f = count t t.cum.cum_fired t.n_nodes n e in
  let blocked = count t t.cum.cum_blocked t.n_nodes n e in
  let n_in = t.in_base.(n + 1) - t.in_base.(n) in
  {
    Shell.firings = f;
    stalls = e - f;
    input_starved = e - f - blocked;
    output_blocked = blocked;
    (* Plain mode consumes every input port once per firing and never
       skips a token. *)
    required_counts = Array.make n_in f;
    dropped = Array.make n_in 0;
  }

let output_trace ?(lane = 0) t node port =
  List.rev t.traces.(((t.out_base.(node) + port) * t.n_lanes) + lane)

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
  if capacity < 0 then
    invalid_arg "Static.capacity_graph: negative capacity";
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
      (* Unbounded FIFOs never push back: no slot edge. *)
      if capacity > 0 then begin
        let rev = Digraph.add_edge g ~src:dst ~dst:src ~label:(label ^ "'") in
        tokens.(rev) <- capacity + (2 * k) - 1;
        time.(rev) <- 1
      end)
    (Network.channels net);
  (g, (fun e -> tokens.(e)), fun e -> time.(e))

let mcr ?capacity net =
  let g, tokens, time = capacity_graph ?capacity net in
  fst (Cycle_ratio.throughput_bound (Cycle_ratio.minimum g ~cost:tokens ~time))

let schedule ?capacity net =
  let g, tokens, time = capacity_graph ?capacity net in
  Schedule.build g ~tokens ~time
