(* Table replay: a recorded firing table, or transitions learnt during
   the run, replayed.

   In Plain mode with no faults, FIFO lengths and relay-station fills
   determine firing exactly.  {!Fast.record} steps Fast's own handshake
   on placeholder processes until that state repeats, which yields a
   transient prefix plus a period, and per-cycle rows of fired /
   starved / blocked shells and delivering channels.  This module keeps
   the memo of those tables and replays them; the run loop around the
   replay (clock, termination check) is Fast's.  In Oracle mode the
   masks a shell fires on depend on data, but the handshake is still a
   finite automaton over (occupancy state, with pending drops; every
   shell's masks): an Oracle replay looks each cycle's pair up among the
   transitions met so far, and asks {!Fast.transition} on a miss.

   The replay kernel below is the library's only table-replay loop, one
   run per kernel; runs of one structure share its schedule or learnt
   transitions through the memos, not by stepping together.  A replay
   cycle touches only the shells that fire: they fire their
   real process closures on real data, and the stall counters and
   delivered counts come from cumulative schedule tables built once per
   schedule (Plain), or from each cycle's row (Oracle).  Stall-heavy
   configurations — exactly the wire-pipelined ones this library
   studies — cost almost nothing per cycle, and everything observable
   stays byte-identical to the dynamic engines. *)

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
  tc_consumed : int array;
  tc_dropped : int array;
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
   one schedule through [Batch] and again for its word check, and the
   serve daemon replays the same machines all day, so schedules are
   memoised across calls.  The key spells out everything the recorder
   reads.  Guarded by a mutex: runner pools call in from several
   domains.  Cached schedules are immutable once built, so sharing them
   is safe.

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

(* Heap words of one row: a 7-field record and six int arrays, with
   their headers. *)
let row_words tc =
  14 + Array.length tc.tc_fired + Array.length tc.tc_starved
  + Array.length tc.tc_blocked + Array.length tc.tc_deliver
  + Array.length tc.tc_consumed + Array.length tc.tc_dropped

(* Heap words of a schedule: one slot per table row and the rows, plus
   the three cumulative arrays and the two records holding it all. *)
let sched_words s =
  let _, _, table = s.s_tables in
  let c = s.s_cum in
  Array.fold_left (fun acc tc -> acc + row_words tc) (1 + Array.length table) table
  + Array.length c.cum_fired + Array.length c.cum_blocked
  + Array.length c.cum_deliver + 14

(* The recorder would drive a protected wire through the link layer,
   whose state no key holds, and an unbounded FIFO has no finite
   occupancy state. *)
let check ~capacity net =
  if capacity <= 0 then
    unschedulable "unbounded FIFOs have no finite occupancy state";
  for c = 0 to Network.channel_count net - 1 do
    if Network.protection net c <> None then
      unschedulable "channel %d is link-protected" c
  done

let lookup ~capacity net compute =
  check ~capacity net;
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
(* Learnt transitions (Oracle mode)                                   *)
(* ------------------------------------------------------------------ *)

(* A transition leaves its state under one mask vector: a byte per
   global input port, a copy, since [required] reuses its array.  Like a
   schedule, transitions depend only on the network's structure, never
   on process data, so every replay of one structure — the runs of a
   batch, batch after batch — shares them, memoised under the schedule
   key.  A table is stepped on by one replay at a time ([busy], under
   the memo's mutex): a replay that finds its structure's table busy
   learns into one of its own, and counts its visits to each transition
   in the table until its release.  Transitions are immutable but for
   that count, so a replay may keep following any it has met. *)
type trans = {
  t_masks : Bytes.t;
  t_row : table_cycle;
  t_next : state;
  mutable t_visits : int;
}

and state = { s_key : string; mutable s_out : trans array }

type learnt = {
  states : (string, state) Hashtbl.t;
  mutable all : trans list; (* the transitions in [states] *)
  mutable words : int; (* retained by [states] *)
  mutable busy : bool;
}

let learnt () = { states = Hashtbl.create 16; all = []; words = 0; busy = false }

(* The word budget is the schedule memo's.  The entry bound is small: a
   table pays off while replays of its structure keep coming (a batch's
   runs, a daemon's repeated configurations), and a Table 1
   regeneration walks ~70 structures once each, where holding them all
   grew its peak RSS by ~5 MB (over a fifth) and saved little time. *)
let learnt_entries = 16
let learnt_memo : (string, learnt) Hashtbl.t = Hashtbl.create learnt_entries

let intern g key =
  match Hashtbl.find g.states key with
  | s -> s
  | exception Not_found ->
    let s = { s_key = key; s_out = [||] } in
    Hashtbl.add g.states key s;
    g.words <- g.words + (String.length key / 8) + 9;
    s

(* One Oracle replay: its recorder, the table it stepped on last, where it
   is, this cycle's masks and the shells that fired last (only those
   can have changed theirs: [required] is a function of process state,
   which only [fire] advances), and its stats (visits times rows,
   settled at each release): per node, channel or input port. *)
type oracle = {
  o_key : string;
  o_recorder : Fast.recorder;
  mutable o_table : learnt;
  mutable o_cur : state;
  o_masks : Bytes.t;
  mutable o_fired : int array;
  fired : int array;
  blocked : int array;
  deliver : int array;
  consumed : int array;
  dropped : int array;
}

let own o = if o.o_table.busy then learnt () else o.o_table

(* Before stepping: the structure's memoised table unless another replay
   is on it, then the replay's state in it. *)
let acquire o =
  Mutex.lock memo_mutex;
  let g =
    match Hashtbl.find learnt_memo o.o_key with
    | g when not g.busy -> g
    | _ -> own o
    | exception Not_found ->
      let g = own o in
      if Hashtbl.length learnt_memo >= learnt_entries then Hashtbl.reset learnt_memo;
      Hashtbl.add learnt_memo o.o_key g;
      g
  in
  g.busy <- true;
  Mutex.unlock memo_mutex;
  o.o_table <- g;
  o.o_cur <- intern g o.o_cur.s_key

let add totals ids v =
  for i = 0 to Array.length ids - 1 do
    totals.(ids.(i)) <- totals.(ids.(i)) + v
  done

let rec settle o = function
  | [] -> ()
  | tr :: rest ->
    let v = tr.t_visits and r = tr.t_row in
    if v > 0 then begin
      add o.fired r.tc_fired v;
      add o.blocked r.tc_blocked v;
      add o.deliver r.tc_deliver v;
      add o.consumed r.tc_consumed v;
      add o.dropped r.tc_dropped v;
      tr.t_visits <- 0
    end;
    settle o rest

let release o =
  settle o o.o_table.all;
  Mutex.lock memo_mutex;
  o.o_table.busy <- false;
  Mutex.unlock memo_mutex

(* The transition out of the replay's state under its masks, recorded.
   An insert that would take the memo past [memo_words] empties it
   first, and one that would take this table past it empties the table,
   keeping the replay's state. *)
let learn g o =
  let row, key = Fast.transition o.o_recorder ~masks:o.o_masks o.o_cur.s_key in
  let words = row_words row + (Bytes.length o.o_masks / 8) + 8 in
  Mutex.lock memo_mutex;
  if Hashtbl.fold (fun _ t held -> held + t.words) learnt_memo words > memo_words then
    Hashtbl.reset learnt_memo;
  Mutex.unlock memo_mutex;
  if g.words + words > memo_words then begin
    settle o g.all;
    Hashtbl.reset g.states;
    g.all <- [];
    g.words <- 0;
    o.o_cur <- intern g o.o_cur.s_key
  end;
  let tr = { t_masks = Bytes.copy o.o_masks; t_row = row; t_next = intern g key; t_visits = 0 } in
  o.o_cur.s_out <- Array.append [| tr |] o.o_cur.s_out;
  g.all <- tr :: g.all;
  g.words <- g.words + words;
  tr

(* The replay's transition under this cycle's masks.  A hit swaps to the
   front: runs mostly repeat what they did last. *)
let find g o =
  let out = o.o_cur.s_out in
  let i = ref 0 in
  while
    !i < Array.length out && not (Bytes.equal (Array.unsafe_get out !i).t_masks o.o_masks)
  do
    incr i
  done;
  if !i = Array.length out then learn g o
  else begin
    let tr = Array.unsafe_get out !i in
    if !i > 0 then begin
      Array.unsafe_set out !i (Array.unsafe_get out 0);
      Array.unsafe_set out 0 tr
    end;
    tr
  end

(* ------------------------------------------------------------------ *)
(* Replay kernel                                                      *)
(* ------------------------------------------------------------------ *)

(* Values flow through per-channel rings addressed by firing count.  A
   shell's [f]-th firing (from 0) owns the [f]-th token of each input
   port, whether it reads it or an oracle skips it (a skip discards the
   buffered token, or the next to arrive), and its output is the
   [f + 1]-th token of each output channel, after the reset token.  So
   the firing reads slot [f] of each input ring and writes slot [f + 1]
   of each output ring, and slot 0 holds the reset token: one firing
   counter per node is all the cursor state.  Slot [s] of channel [c]'s
   ring lives at [base c + (s land mask c)].

   A channel with capacity [C] and [k] relay stations holds at most
   [C + 2k] tokens in flight at a cycle boundary, plus one transiently
   when a producer fires earlier in the row than its consumer.  After
   its producer's [f]-th firing it holds [2 + f - count consumer], which
   must stay within [C + 2k + 2]; ring sizes round that bound up to a
   power of two, so no live slot is overwritten.  A pending drop only
   puts the consumer's count ahead: the dropped token's slot is written
   and never read. *)

type plan =
  | Periodic of sched (* Plain: the memoised table *)
  | Learnt of oracle (* Oracle: transitions learnt as the run meets them *)

type t = {
  record_traces : bool;
  n_nodes : int;
  n_chans : int;
  instances : Process.instance array; (* per node *)
  in_base : int array;
  out_base : int array;
  plan : plan;
  mutable row : int; (* Plain: the table row the next cycle replays *)
  masks : Bytes.t; (* per global input port: all ones, or the [o_masks] *)
  inputs_scratch : int option array array; (* per node, reused *)
  traces : int Token.t list array; (* per output port; newest first *)
  count : int array; (* per node: firings so far *)
  q_val : int array;
  ip_ring : int array; (* global input port -> its ring's base *)
  ip_mask : int array; (* ... and slot mask *)
  op_ring : int array; (* global output port -> its ring's base *)
  op_mask : int array;
  op_bound : int array; (* ... the tokens its channel may hold *)
  op_dst : int array; (* ... and the node that channel feeds *)
  ro : Fast.roster;
}

(* An Oracle run's recorder and stats, at reset. *)
let learner ~capacity m net =
  check ~capacity net;
  let n_in = m.Fast.m_in_base.(m.m_n_nodes) in
  let recorder = Fast.recorder ~capacity net in
  let zeros n = Array.make (max 1 n) 0 in
  {
    o_key = schedule_key ~capacity net;
    o_recorder = recorder;
    o_table = learnt ();
    o_cur = { s_key = Fast.state recorder; s_out = [||] };
    o_masks = Bytes.make n_in '\000';
    o_fired = Array.init m.m_n_nodes Fun.id;
    fired = zeros m.m_n_nodes;
    blocked = zeros m.m_n_nodes;
    deliver = zeros m.m_n_chans;
    consumed = Array.make n_in 0;
    dropped = Array.make n_in 0;
  }

let create ?(capacity = 2) ?(record_traces = false) ~mode net =
  if capacity < 0 then invalid_arg "Static.create: negative capacity";
  Network.validate net;
  let m = Fast.meta_of net in
  let plan =
    match mode with
    | Shell.Plain -> Periodic (lookup ~capacity net (fun () -> sched_of ~capacity net))
    | Shell.Oracle -> Learnt (learner ~capacity m net)
  in
  let n_nodes = m.m_n_nodes and n_chans = m.m_n_chans in
  let rs_base = m.m_chan_rs_base in
  let bound c = capacity + (2 * (rs_base.(c + 1) - rs_base.(c))) + 2 in
  let rec pow2 s b = if s >= b then s else pow2 (2 * s) b in
  let mask c = pow2 1 (bound c) - 1 in
  let q_base = Array.make (n_chans + 1) 0 in
  for c = 0 to n_chans - 1 do
    q_base.(c + 1) <- q_base.(c) + mask c + 1
  done;
  (* Per port, from its channel; an array's padding entry has none. *)
  let per chans f = Array.map (fun c -> if c < 0 then 0 else f c) chans in
  let proc n = Network.node_process net n in
  let instances = Array.init n_nodes (fun n -> (proc n).Process.make ()) in
  let t =
    {
      record_traces;
      n_nodes;
      n_chans;
      instances;
      in_base = m.m_in_base;
      out_base = m.m_out_base;
      plan;
      row = 0;
      masks =
        (match plan with
        | Periodic _ -> Bytes.make m.m_in_base.(n_nodes) '\001'
        | Learnt o -> o.o_masks);
      inputs_scratch =
        Array.init n_nodes (fun n ->
            Array.make (m.m_in_base.(n + 1) - m.m_in_base.(n)) None);
      traces = Array.make (max 1 m.m_out_base.(n_nodes)) [];
      count = Array.make (max 1 n_nodes) 0;
      q_val = Array.make (max 1 q_base.(n_chans)) 0;
      ip_ring = per m.m_ip_chan (Array.get q_base);
      ip_mask = per m.m_ip_chan mask;
      op_ring = per m.m_op_chan (Array.get q_base);
      op_mask = per m.m_op_chan mask;
      op_bound = per m.m_op_chan bound;
      op_dst = per m.m_op_chan (fun c -> fst (Network.channel_dst net c));
      ro = Fast.roster m instances;
    }
  in
  (* Reset: slot 0 of every ring holds the channel's reset token. *)
  for c = 0 to n_chans - 1 do
    let src_node, src_port = Network.channel_src net c in
    t.q_val.(q_base.(c)) <- (proc src_node).Process.reset_outputs.(src_port)
  done;
  t

(* This cycle's row of an Oracle replay: the masks, then the transition
   under them. *)
let take t o =
  let m = o.o_masks and fired = o.o_fired in
  for i = 0 to Array.length fired - 1 do
    let n = Array.unsafe_get fired i in
    let req = (Array.unsafe_get t.instances n).Process.required () in
    let ib = Array.unsafe_get t.in_base n in
    for p = 0 to Array.unsafe_get t.in_base (n + 1) - ib - 1 do
      Bytes.unsafe_set m (ib + p) (if Array.unsafe_get req p then '\001' else '\000')
    done
  done;
  let tr = find o.o_table o in
  tr.t_visits <- tr.t_visits + 1;
  o.o_cur <- tr.t_next;
  o.o_fired <- tr.t_row.tc_fired;
  tr.t_row

let advance t =
  let ro = t.ro in
  let tc =
    match t.plan with
    | Periodic { s_tables = transient, period, table; _ } ->
      let r = t.row in
      t.row <- (if r + 1 < transient + period then r + 1 else transient);
      table.(r)
    | Learnt o -> take t o
  in
  let fired = tc.tc_fired in
  for i = 0 to Array.length fired - 1 do
    let n = Array.unsafe_get fired i in
    let f = Array.unsafe_get t.count n in
    let ib = Array.unsafe_get t.in_base n in
    let n_in = Array.unsafe_get t.in_base (n + 1) - ib in
    let op0 = Array.unsafe_get t.out_base n in
    let n_out = Array.unsafe_get t.out_base (n + 1) - op0 in
    let inputs = Array.unsafe_get t.inputs_scratch n in
    (* A firing reads exactly the ports its mask requires: all of them
       in Plain mode, and in Oracle mode those of the masks [take] read
       this cycle, the key of the transition taken. *)
    for p = 0 to n_in - 1 do
      let ip = ib + p in
      if Bytes.unsafe_get t.masks ip <> '\000' then
        Array.unsafe_set inputs p
          (Some
             (Array.unsafe_get t.q_val
                (Array.unsafe_get t.ip_ring ip + (f land Array.unsafe_get t.ip_mask ip))))
      else Array.unsafe_set inputs p None
    done;
    let inst = Array.unsafe_get t.instances n in
    let words = inst.Process.fire inputs in
    (* [halted] is a pure function of process state and state only
       advances in [fire], so probing right here keeps the sticky flag
       as fresh as a scan of every shell each cycle. *)
    if inst.Process.halted () then ro.halted <- true;
    for q = 0 to n_out - 1 do
      let op = op0 + q in
      Array.unsafe_set t.q_val
        (Array.unsafe_get t.op_ring op + ((f + 1) land Array.unsafe_get t.op_mask op))
        (Array.unsafe_get words q)
    done;
    if t.record_traces then
      for q = 0 to n_out - 1 do
        t.traces.(op0 + q) <- Token.Valid words.(q) :: t.traces.(op0 + q)
      done;
    (* Then each output channel's fill is checked: a consumer later in
       the row has not fired yet, and a self-loop's count already
       includes this firing. *)
    Array.unsafe_set t.count n (f + 1);
    for q = 0 to n_out - 1 do
      let op = op0 + q in
      if
        2 + f - Array.unsafe_get t.count (Array.unsafe_get t.op_dst op)
        > Array.unsafe_get t.op_bound op
      then failwith "Static replay: value ring overflow (schedule violated)"
    done
  done;
  if t.record_traces then begin
    let voids cls =
      for i = 0 to Array.length cls - 1 do
        let n = cls.(i) in
        for op = t.out_base.(n) to t.out_base.(n + 1) - 1 do
          t.traces.(op) <- Token.Void :: t.traces.(op)
        done
      done
    in
    voids tc.tc_starved;
    voids tc.tc_blocked
  end;
  ro.clock <- ro.clock + 1;
  ro.quiet <- (if tc.tc_any then 0 else ro.quiet + 1)

(* An Oracle replay steps holding its table. *)
let holding t f x =
  match t.plan with
  | Periodic _ -> f x
  | Learnt o -> (
    acquire o;
    match f x with
    | r ->
      release o;
      r
    | exception e ->
      release o;
      raise e)

let step t = holding t advance t

let run ?(cancel = Wp_util.Cancel.never) ?(max_cycles = 1_000_000) t =
  holding t (fun t -> Fast.run_roster t.ro advance t ~budget:max_cycles ~cancel) t

(* ------------------------------------------------------------------ *)
(* Accessors: table arithmetic                                        *)
(* ------------------------------------------------------------------ *)

(* Occurrences of entity [e] during cycles [0, cycles) of a schedule. *)
let count s cum n_ent e cycles =
  let transient, period, _ = s.s_tables in
  let tp = transient + period in
  if cycles <= tp then cum.((cycles * n_ent) + e)
  else begin
    let r = (cycles - transient) mod period in
    let k = (cycles - transient) / period in
    cum.(((transient + r) * n_ent) + e)
    + (k * (cum.((tp * n_ent) + e) - cum.((transient * n_ent) + e)))
  end

let cycles t = t.ro.clock

let delivered t c =
  match t.plan with
  | Periodic s -> count s s.s_cum.cum_deliver t.n_chans c (cycles t)
  | Learnt o -> o.deliver.(c)

let node_stats t n =
  let e = cycles t in
  let lo = t.in_base.(n) and hi = t.in_base.(n + 1) in
  let f, blocked, required_counts, dropped =
    match t.plan with
    | Periodic s ->
      let f = count s s.s_cum.cum_fired t.n_nodes n e in
      (* Plain mode consumes every input port once per firing and never
         skips a token. *)
      ( f,
        count s s.s_cum.cum_blocked t.n_nodes n e,
        Array.make (hi - lo) f,
        Array.make (hi - lo) 0 )
    | Learnt o ->
      (o.fired.(n), o.blocked.(n), Array.sub o.consumed lo (hi - lo), Array.sub o.dropped lo (hi - lo))
  in
  {
    Shell.firings = f;
    stalls = e - f;
    input_starved = e - f - blocked;
    output_blocked = blocked;
    required_counts;
    dropped;
  }

let output_trace t node port = List.rev t.traces.(t.out_base.(node) + port)

(* ------------------------------------------------------------------ *)
(* The schedule itself                                                *)
(* ------------------------------------------------------------------ *)

let periodic what t =
  match t.plan with
  | Periodic s -> s.s_tables
  | Learnt _ -> invalid_arg ("Static." ^ what ^ ": an Oracle replay has no periodic table")

let transient t =
  let tr, _, _ = periodic "transient" t in
  tr

let period t =
  let _, p, _ = periodic "period" t in
  p

let word t n =
  let transient, period, table = periodic "word" t in
  Array.init period (fun i ->
      let tc = table.(transient + i) in
      Array.exists (fun m -> m = n) tc.tc_fired)

let rate t n =
  let w = word t n in
  let ones = Array.fold_left (fun a b -> if b then a + 1 else a) 0 w in
  Cycle_ratio.make_ratio ones (Array.length w)

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
