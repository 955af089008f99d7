(* Static-schedule kernel: a recorded firing table, then table replay.

   In Plain mode with no faults, FIFO lengths and relay-station fills
   determine firing exactly.  {!Fast.record} steps Fast's own handshake
   on placeholder processes until that state repeats, which yields a
   transient prefix plus a period, and per-cycle rows of fired /
   starved / blocked shells and delivering channels.  This module keeps
   the memo of those tables and replays them; the lane loop around the
   replay (running set, clock, termination check) is Fast's.

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

type table_cycle = Fast.table_cycle = {
  tc_fired : int array;
  tc_starved : int array;
  tc_blocked : int array;
  tc_deliver : int array;
  tc_any : bool;
}

(* A generous ceiling: the reachable occupancy space of the paper's
   networks cycles within tens of cycles, but a pathological graph
   could wander longer before closing its orbit. *)
let record_budget = 1 lsl 16

(* Cumulative schedule counts: row [j] covers cycles [0, j), rows
   0 .. transient + period; beyond that, counts extrapolate by whole
   periods.  Every shell fires, blocks or starves in each cycle, so the
   starved counts are what the other two leave. *)
type cum = {
  cum_fired : int array; (* (row * n_nodes) + n *)
  cum_blocked : int array;
  cum_deliver : int array; (* (row * n_chans) + c *)
}

let cum_of net (transient, period, table) =
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
    cum_fired = build (Network.node_count net) (fun tc -> tc.tc_fired);
    cum_blocked = build (Network.node_count net) (fun tc -> tc.tc_blocked);
    cum_deliver = build (Network.channel_count net) (fun tc -> tc.tc_deliver);
  }

(* A schedule: the table and the cumulative counts replays read. *)
type sched = { s_tables : int * int * table_cycle array; s_cum : cum }

let sched_of ~capacity net =
  match Fast.record ~max_cycles:record_budget ~capacity net with
  | Some tables -> { s_tables = tables; s_cum = cum_of net tables }
  | None ->
    unschedulable "no periodic steady state within %d cycles (capacity %d)"
      record_budget capacity

(* ------------------------------------------------------------------ *)
(* Schedule memo                                                      *)
(* ------------------------------------------------------------------ *)

(* A schedule depends only on (capacity, per-channel relay stations,
   topology shape) — never on process data.  A sweep scenario replays
   one schedule on the batch kernel and again here, and the serve daemon
   replays the same machines all day, so schedules are memoised across
   calls.  The key spells out everything the recorder reads.  Guarded by
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

(* The recorder would drive a protected wire through the link layer,
   whose state the key leaves out. *)
let lookup ~capacity net compute =
  if capacity <= 0 then
    unschedulable "unbounded FIFOs have no finite occupancy state";
  for c = 0 to Network.channel_count net - 1 do
    if Network.protection net c <> None then
      unschedulable "channel %d is link-protected" c
  done;
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
  (lookup ~capacity net (fun () -> sched_of ~capacity net)).s_tables

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
  traces : int Token.t list array; (* [(out_port * L) + l]; newest first *)
  q_val : int array;
  q_base : int array;
  q_stride : int array;
  q_head : int array;
  q_tail : int array;
  q_fill : int array;
  ro : Fast.roster;
}

let create_lanes ?(record_traces = false) ~capacity nets =
  let n_lanes = Array.length nets in
  let net0 = nets.(0) in
  let m = Fast.meta_of net0 in
  let s = lookup ~capacity net0 (fun () -> sched_of ~capacity net0) in
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
      traces = Array.make (max 1 (m.m_out_base.(n_nodes) * n_lanes)) [];
      q_val = Array.make (max 1 q_base.(n_chans)) 0;
      q_base;
      q_stride;
      q_head = Array.make (max 1 n_chans) 0;
      q_tail = Array.make (max 1 n_chans) 1;
      q_fill = Array.make (max 1 n_chans) 1;
      ro =
        Fast.roster
          ~quiescence:
            (Array.make n_lanes (16 + (4 * (n_nodes + n_chans + rs_base.(n_chans)))))
          instances;
    }
  in
  (* Reset: slot 0 of every ring holds the channel's reset token. *)
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net0 c in
    for l = 0 to n_lanes - 1 do
      t.q_val.(q_base.(c) + l) <- (proc l src_node).Process.reset_outputs.(src_port)
    done
  done;
  t

let create ?(capacity = 2) ?(record_traces = false) ~mode net =
  if capacity < 0 then invalid_arg "Static.create: negative capacity";
  Network.validate net;
  (match mode with
  | Shell.Plain -> ()
  | Shell.Oracle ->
      unschedulable "oracle mode: input masks are data-dependent");
  (* [lookup] refuses capacity 0 and protected channels. *)
  create_lanes ~record_traces ~capacity [| net |]

(* One cycle for every running lane. *)
let advance t =
  let ll = t.n_lanes in
  let ro = t.ro in
  let cyc = ro.clock in
  let tc =
    t.table.(if cyc < t.transient then cyc
             else t.transient + ((cyc - t.transient) mod t.period))
  in
  let fired = tc.tc_fired in
  for i = 0 to Array.length fired - 1 do
    let n = Array.unsafe_get fired i in
    let ib = Array.unsafe_get t.in_base n in
    let n_in = Array.unsafe_get t.in_base (n + 1) - ib in
    let op0 = Array.unsafe_get t.out_base n in
    let n_out = Array.unsafe_get t.out_base (n + 1) - op0 in
    let inputs = Array.unsafe_get t.inputs_scratch n in
    for a = 0 to ro.n_act - 1 do
      let l = Array.unsafe_get ro.act a in
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
      if inst.Process.halted () then Bytes.unsafe_set ro.halt_flag l '\001';
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
          for a = 0 to ro.n_act - 1 do
            let l = ro.act.(a) in
            let opl = ((op0 + q) * ll) + l in
            t.traces.(opl) <- Token.Void :: t.traces.(opl)
          done
        done
      done
    in
    voids tc.tc_starved;
    voids tc.tc_blocked
  end;
  ro.clock <- cyc + 1;
  for a = 0 to ro.n_act - 1 do
    let l = Array.unsafe_get ro.act a in
    ro.quiet.(l) <- (if tc.tc_any then 0 else ro.quiet.(l) + 1)
  done

let step t =
  Fast.reopen t.ro;
  advance t

let run_lanes t ~budgets ~cancels = Fast.run_roster t.ro advance t ~budgets ~cancels

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

let cycles ?(lane = 0) t = Fast.lane_cycles t.ro lane
let outcome t ~lane = t.ro.finished.(lane)
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

(* The reset marking puts one token on every channel and a token needs
   [1 + relay_stations] cycles to traverse one, so a loop of [m]
   processes and [n] relay stations sustains [m / (m + n)]: the bound
   is {!mcr} of the forward-only (unbounded-FIFO) graph. *)
let throughput_bound net =
  Cycle_ratio.ratio_to_float (mcr ~capacity:0 net)

let cycle_bound ?(slack_num = 1) ?(slack_den = 4) ~work_cycles net =
  if work_cycles < 0 then invalid_arg "Static.cycle_bound: negative work";
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
