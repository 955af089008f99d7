(* Table replay: a recorded firing table, or transitions learnt during
   the run, replayed.

   In Plain mode with no faults, FIFO lengths and relay-station fills
   determine firing exactly.  {!Fast.record} steps Fast's own handshake
   on placeholder processes until that state repeats, which yields a
   transient prefix plus a period, and per-cycle rows of fired and
   blocked shells, delivering channels and the input ports read or
   discarded; a shell in neither list starved.  In Oracle mode the masks
   a shell fires on depend on data, but the handshake is still a finite
   automaton over (occupancy state, with pending drops; every shell's
   masks): an Oracle replay looks each cycle's pair up among the
   transitions met so far, and asks {!Fast.transition} on a miss.  This
   module keeps one memo of both per structure and replays them; the
   run loop around the replay (clock, termination check) is Fast's.

   The replay kernel below is the library's only table-replay loop, one
   run per kernel; runs of one structure share its table or learnt
   transitions through the memo, not by stepping together.  A replay
   cycle touches only the shells that fire: they fire their real process
   closures on real data.  The stall counters and delivered counts are
   rows times their visits, summed when an observable is read (Plain)
   or settled as an Oracle replay releases its transitions.
   Stall-heavy configurations — exactly the wire-pipelined ones this
   library studies — cost almost nothing per cycle, and everything
   observable stays byte-identical to the dynamic engines. *)

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
  tc_blocked : int array;
  tc_deliver : int array;
  tc_consumed : int array;
  tc_dropped : int array;
}

(* A generous ceiling: the reachable occupancy space of the paper's
   networks cycles within tens of cycles, but a pathological graph
   could wander longer before closing its orbit. *)
let record_budget = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* The memo                                                           *)
(* ------------------------------------------------------------------ *)

(* A Plain table and the transitions Oracle replays learn depend only on
   (capacity, per-channel relay stations, topology shape) — never on
   process data.  A sweep scenario replays one table as its primary run
   and again for its word check, and the serve daemon replays the same
   machines all day, so both are memoised across calls, in one entry per
   structure.  The key spells out everything the recorder reads.
   Guarded by a mutex: runner pools call in from several domains.

   A table is immutable once recorded, so sharing it is safe.  Learnt
   transitions are immutable but for a visit count, so an entry's
   transitions are stepped on by one replay at a time ([busy], under the
   mutex): a replay that finds its structure's entry busy learns into
   one of its own, and counts its visits to each transition until its
   release.  A replay may keep following any transition it has met.

   The memo is bounded by entries and by the words they retain: an
   insert that would cross either bound empties it first, and a table
   larger than the whole word budget is returned uncached.  The entry
   bound is small: an entry pays off while replays of its structure keep
   coming (a sweep's runs, a daemon's repeated configurations), and a
   Table 1 regeneration walks ~70 structures once each, where holding
   all of their transitions grew its peak RSS by ~5 MB (over a fifth)
   and saved little time; re-recording its 1–4-row tables costs it
   about 1%. *)

let memo_entries = 16
let memo_words = 2_000_000 (* 16 MB of 64-bit words *)

(* A transition leaves its state under one mask vector: a byte per
   global input port, a copy, since [required] reuses its array. *)
type trans = {
  t_masks : Bytes.t;
  t_row : table_cycle;
  t_next : state;
  mutable t_visits : int;
}

and state = { s_key : string; mutable s_out : trans array }

type entry = {
  mutable table : (int * int * table_cycle array) option; (* Plain *)
  mutable table_words : int;
  states : (string, state) Hashtbl.t; (* Oracle *)
  mutable all : trans list; (* the transitions in [states] *)
  mutable words : int; (* retained by [states] *)
  mutable busy : bool;
}

let entry () =
  { table = None; table_words = 0; states = Hashtbl.create 16; all = []; words = 0; busy = false }

let memo : (string, entry) Hashtbl.t = Hashtbl.create memo_entries
let memo_mutex = Mutex.create ()

(* Under [memo_mutex]: the words the memo's entries retain. *)
let held () = Hashtbl.fold (fun _ e acc -> acc + e.table_words + e.words) memo 0

(* Under [memo_mutex]: [e] becomes [key]'s entry, the memo emptied first
   when it is full. *)
let insert key e =
  if Hashtbl.length memo >= memo_entries then Hashtbl.reset memo;
  Hashtbl.add memo key e

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

(* Heap words of one row: a 5-field record and five int arrays, with
   their headers. *)
let row_words tc =
  11 + Array.length tc.tc_fired + Array.length tc.tc_blocked
  + Array.length tc.tc_deliver + Array.length tc.tc_consumed
  + Array.length tc.tc_dropped

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

let tables ~capacity net =
  check ~capacity net;
  let key = schedule_key ~capacity net in
  let cached () =
    match Hashtbl.find_opt memo key with Some { table = Some s; _ } -> Some s | _ -> None
  in
  match Mutex.protect memo_mutex cached with
  | Some s -> s
  | None ->
    let ((_, _, rows) as s) =
      match Fast.record ~max_cycles:record_budget ~capacity net with
      | Some s -> s
      | None ->
        unschedulable "no periodic steady state within %d cycles (capacity %d)"
          record_budget capacity
    in
    (* The triple, the row array and its rows. *)
    let words = Array.fold_left (fun acc tc -> acc + row_words tc) (5 + Array.length rows) rows in
    Mutex.protect memo_mutex (fun () ->
        (* Another domain may have cached the same key meanwhile: keep
           its copy, so every caller shares one table. *)
        match cached () with
        | Some s' -> s'
        | None ->
          if words <= memo_words then begin
            if held () + words > memo_words then Hashtbl.reset memo;
            let e =
              match Hashtbl.find_opt memo key with
              | Some e -> e
              | None ->
                let e = entry () in
                insert key e;
                e
            in
            e.table <- Some s;
            e.table_words <- words
          end;
          s)

(* ------------------------------------------------------------------ *)
(* Learnt transitions (Oracle mode)                                   *)
(* ------------------------------------------------------------------ *)

let intern g key =
  match Hashtbl.find g.states key with
  | s -> s
  | exception Not_found ->
    let s = { s_key = key; s_out = [||] } in
    Hashtbl.add g.states key s;
    g.words <- g.words + (String.length key / 8) + 9;
    s

(* A run's stats: per node, channel or input port, each row's ids times
   its visits. *)
type totals = {
  fired : int array;
  blocked : int array;
  deliver : int array;
  consumed : int array;
  dropped : int array;
}

let add ids v counts =
  for i = 0 to Array.length ids - 1 do
    counts.(ids.(i)) <- counts.(ids.(i)) + v
  done

let add_row s r v =
  add r.tc_fired v s.fired;
  add r.tc_blocked v s.blocked;
  add r.tc_deliver v s.deliver;
  add r.tc_consumed v s.consumed;
  add r.tc_dropped v s.dropped

(* One Oracle replay: its recorder, the entry it stepped on last, where
   it is, this cycle's masks and the shells that fired last (only those
   can have changed theirs: [required] is a function of process state,
   which only [fire] advances). *)
type oracle = {
  o_key : string;
  o_recorder : Fast.recorder;
  mutable o_table : entry;
  mutable o_cur : state;
  o_masks : Bytes.t;
  mutable o_fired : int array;
}

let own o = if o.o_table.busy then entry () else o.o_table

(* Before stepping: the structure's entry unless another replay is on
   it, then the replay's state in it.  Runs once per [step], so it
   allocates nothing on a hit. *)
let acquire o =
  Mutex.lock memo_mutex;
  let g =
    match Hashtbl.find memo o.o_key with
    | g when not g.busy -> g
    | _ -> own o
    | exception Not_found ->
      let g = own o in
      insert o.o_key g;
      g
  in
  g.busy <- true;
  Mutex.unlock memo_mutex;
  o.o_table <- g;
  o.o_cur <- intern g o.o_cur.s_key

let rec settle s = function
  | [] -> ()
  | tr :: rest ->
    if tr.t_visits > 0 then begin
      add_row s tr.t_row tr.t_visits;
      tr.t_visits <- 0
    end;
    settle s rest

let release s o =
  settle s o.o_table.all;
  Mutex.lock memo_mutex;
  o.o_table.busy <- false;
  Mutex.unlock memo_mutex

(* The transition out of the replay's state under its masks, recorded.
   An insert that would take the memo past [memo_words] empties it
   first, and one that would take this entry's transitions past it
   empties them, keeping the replay's state. *)
let learn s g o =
  let row, key = Fast.transition o.o_recorder ~masks:o.o_masks o.o_cur.s_key in
  let words = row_words row + (Bytes.length o.o_masks / 8) + 8 in
  Mutex.lock memo_mutex;
  if held () + words > memo_words then Hashtbl.reset memo;
  Mutex.unlock memo_mutex;
  if g.words + words > memo_words then begin
    settle s g.all;
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
let find s g o =
  let out = o.o_cur.s_out in
  let i = ref 0 in
  while
    !i < Array.length out && not (Bytes.equal (Array.unsafe_get out !i).t_masks o.o_masks)
  do
    incr i
  done;
  if !i = Array.length out then learn s g o
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
   its producer's [f]-th firing it holds [2 + f - firings consumer], which
   must stay within [C + 2k + 2]; ring sizes round that bound up to a
   power of two, so no live slot is overwritten.  A pending drop only
   puts the consumer's count ahead: the dropped token's slot is written
   and never read. *)

type plan =
  | Periodic of (int * int * table_cycle array) (* Plain: the memoised table *)
  | Learnt of oracle (* Oracle: transitions learnt as the run meets them *)

type t = {
  record_traces : bool;
  n_nodes : int;
  instances : Process.instance array; (* per node *)
  in_base : int array;
  out_base : int array;
  plan : plan;
  mutable row : int; (* Plain: the table row the next cycle replays *)
  masks : Bytes.t; (* per global input port: all ones, or the [o_masks] *)
  inputs_scratch : int option array array; (* per node, reused *)
  traces : int Token.t list array; (* per output port; newest first *)
  firings : int array; (* per node: firings so far *)
  q_val : int array;
  ip_ring : int array; (* global input port -> its ring's base *)
  ip_mask : int array; (* ... and slot mask *)
  op_ring : int array; (* global output port -> its ring's base *)
  op_mask : int array;
  op_bound : int array; (* ... the tokens its channel may hold *)
  op_dst : int array; (* ... and the node that channel feeds *)
  totals : totals;
  mutable summed : int; (* Plain: the clock [totals] were summed at *)
  ro : Fast.roster;
}

(* An Oracle run's recorder, at reset. *)
let learner ~capacity m net =
  check ~capacity net;
  let recorder = Fast.recorder ~capacity net in
  {
    o_key = schedule_key ~capacity net;
    o_recorder = recorder;
    o_table = entry ();
    o_cur = { s_key = Fast.state recorder; s_out = [||] };
    o_masks = Bytes.make m.Fast.m_in_base.(m.m_n_nodes) '\000';
    o_fired = Array.init m.m_n_nodes Fun.id;
  }

let create ?(capacity = 2) ?(record_traces = false) ~mode net =
  if capacity < 0 then invalid_arg "Static.create: negative capacity";
  Network.validate net;
  let m = Fast.meta_of net in
  let plan =
    match mode with
    | Shell.Plain -> Periodic (tables ~capacity net)
    | Shell.Oracle -> Learnt (learner ~capacity m net)
  in
  let n_nodes = m.m_n_nodes and n_chans = m.m_n_chans in
  let n_in = m.m_in_base.(n_nodes) in
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
  let zeros n = Array.make (max 1 n) 0 in
  let t =
    {
      record_traces;
      n_nodes;
      instances;
      in_base = m.m_in_base;
      out_base = m.m_out_base;
      plan;
      row = 0;
      masks =
        (match plan with
        | Periodic _ -> Bytes.make n_in '\001'
        | Learnt o -> o.o_masks);
      inputs_scratch =
        Array.init n_nodes (fun n ->
            Array.make (m.m_in_base.(n + 1) - m.m_in_base.(n)) None);
      traces = Array.make (max 1 m.m_out_base.(n_nodes)) [];
      firings = zeros n_nodes;
      q_val = zeros q_base.(n_chans);
      ip_ring = per m.m_ip_chan (Array.get q_base);
      ip_mask = per m.m_ip_chan mask;
      op_ring = per m.m_op_chan (Array.get q_base);
      op_mask = per m.m_op_chan mask;
      op_bound = per m.m_op_chan bound;
      op_dst = per m.m_op_chan (fun c -> fst (Network.channel_dst net c));
      totals =
        {
          fired = zeros n_nodes;
          blocked = zeros n_nodes;
          deliver = zeros n_chans;
          consumed = zeros n_in;
          dropped = zeros n_in;
        };
      summed = 0;
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
  let tr = find t.totals o.o_table o in
  tr.t_visits <- tr.t_visits + 1;
  o.o_cur <- tr.t_next;
  o.o_fired <- tr.t_row.tc_fired;
  tr.t_row

let advance t =
  let ro = t.ro in
  let tc =
    match t.plan with
    | Periodic (transient, period, table) ->
      let r = t.row in
      t.row <- (if r + 1 < transient + period then r + 1 else transient);
      table.(r)
    | Learnt o -> take t o
  in
  let fired = tc.tc_fired in
  for i = 0 to Array.length fired - 1 do
    let n = Array.unsafe_get fired i in
    let f = Array.unsafe_get t.firings n in
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
    Array.unsafe_set t.firings n (f + 1);
    for q = 0 to n_out - 1 do
      let op = op0 + q in
      if
        2 + f - Array.unsafe_get t.firings (Array.unsafe_get t.op_dst op)
        > Array.unsafe_get t.op_bound op
      then failwith "Static replay: value ring overflow (schedule violated)"
    done
  done;
  (* Every shell the row does not fire emits a void token: one walk
     beside the ascending fired list finds them. *)
  if t.record_traces then begin
    let j = ref 0 in
    for n = 0 to t.n_nodes - 1 do
      if !j < Array.length fired && fired.(!j) = n then incr j
      else
        for op = t.out_base.(n) to t.out_base.(n + 1) - 1 do
          t.traces.(op) <- Token.Void :: t.traces.(op)
        done
    done
  end;
  ro.clock <- ro.clock + 1;
  ro.quiet <- (if Array.length fired > 0 then 0 else ro.quiet + 1)

(* An Oracle replay steps holding its entry. *)
let holding t f x =
  match t.plan with
  | Periodic _ -> f x
  | Learnt o -> (
    acquire o;
    match f x with
    | r ->
      release t.totals o;
      r
    | exception e ->
      release t.totals o;
      raise e)

let step t = holding t advance t

let run ?(cancel = Wp_util.Cancel.never) ?(max_cycles = 1_000_000) t =
  holding t (fun t -> Fast.run_roster t.ro advance t ~budget:max_cycles ~cancel) t

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let cycles t = t.ro.clock

(* The run's totals so far.  An Oracle replay settled its visits at its
   last release.  A Plain replay sums its rows times their visits when
   its clock has moved since the last sum: by clock [e], transient row
   [r] was replayed once if [r < e], and periodic row [r] once per
   period from cycle [r] on. *)
let totals t =
  (match t.plan with
  | Periodic (transient, period, table) when t.summed <> cycles t ->
    let e = cycles t and s = t.totals in
    List.iter
      (fun a -> Array.fill a 0 (Array.length a) 0)
      [ s.fired; s.blocked; s.deliver; s.consumed; s.dropped ];
    for r = 0 to min e (Array.length table) - 1 do
      add_row s table.(r) (if r < transient then 1 else 1 + ((e - 1 - r) / period))
    done;
    t.summed <- e
  | _ -> ());
  t.totals

let delivered t c = (totals t).deliver.(c)

let node_stats t n =
  let s = totals t in
  let e = cycles t and f = s.fired.(n) and blocked = s.blocked.(n) in
  let lo = t.in_base.(n) and hi = t.in_base.(n + 1) in
  {
    Shell.firings = f;
    stalls = e - f;
    input_starved = e - f - blocked;
    output_blocked = blocked;
    required_counts = Array.sub s.consumed lo (hi - lo);
    dropped = Array.sub s.dropped lo (hi - lo);
  }

let output_trace t node port = List.rev t.traces.(t.out_base.(node) + port)

(* ------------------------------------------------------------------ *)
(* The schedule itself                                                *)
(* ------------------------------------------------------------------ *)

let periodic what t =
  match t.plan with
  | Periodic s -> s
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

let cycle_bound ~work_cycles net =
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
  base + (base / 4) + 64 + (8 * structure)
