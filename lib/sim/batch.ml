(* Composite structure-of-arrays batch kernel.

   Lanes are partitioned at [create] time:

   - Plain-mode, unfaulted lanes are {e statically schedulable}: their
     firing pattern is a pure function of (topology, per-channel
     relay-station counts, FIFO capacity) — a marked graph — so lanes
     agreeing on those share ONE count-only prepass table
     ({!Static.tables}, memoised there and shared with Static.create)
     and replay it together in [Replay] below.  A replay cycle touches
     only the shells that fire — no stop propagation, no readiness
     scan, no stall accounting: scheduled shells fire their real process
     closures on values in per-channel rings, and {e everything else}
     (stall counters, delivered counts, buffered occupancies) is
     reconstructed on demand from cumulative schedule tables shared by
     the whole group.  Stall-heavy configurations — exactly the
     wire-pipelined ones this library studies — cost almost nothing
     per cycle.

   - Oracle-mode and faulted lanes are data-dependent, so they step on
     the dynamic SoA kernel in [Dyn]: Fast.step with one extra inner
     loop over active lanes, entity-outer / lane-inner ([e * L + l])
     so consecutive iterations touch adjacent cells and per-entity
     setup is amortized across lanes.

   Both sub-kernels mirror Fast cycle by cycle as a correctness
   obligation, not a style choice: the differential battery requires
   byte-identical outcomes, cycle counts, delivered counts, stats and
   traces.  When editing, diff against Fast.step phase by phase. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token
module Process = Wp_lis.Process

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

exception Unbatchable of string

let unbatchable fmt = Printf.ksprintf (fun s -> raise (Unbatchable s)) fmt

let ia n = Array.make (max 1 n) 0

(* ------------------------------------------------------------------ *)
(* Dynamic kernel: Oracle and faulted lanes                           *)
(* ------------------------------------------------------------------ *)

module Dyn = struct
  type t = {
    n_lanes : int;
    n_nodes : int;
    n_chans : int;
    record_traces : bool;
    nets : Network.t array; (* per lane *)
    oracle : bool array; (* per lane *)
    cap : int array; (* per lane, >= 1 *)
    cap_max : int;
    faults : Fault.t option array; (* per lane *)
    budget : int array; (* per lane max_cycles *)
    cancels : Wp_util.Cancel.t array; (* per lane *)
    has_cancel : bool; (* any non-[never] token in [cancels] *)
    quiescence : int array; (* per lane *)
    (* shared structure (validated equal across lanes) *)
    in_base : int array; (* n_nodes + 1 *)
    out_base : int array; (* n_nodes + 1 *)
    chan_src_op : int array;
    chan_dst_ip : int array;
    out_chan_base : int array; (* n_nodes + 1 *)
    out_chan_ids : int array;
    (* per (node, lane) process instances, flat [n * L + l] *)
    instances : Process.instance array;
    inputs_scratch : int option array array;
        (* per node, reused every cycle: a [Some v] store into an old
           slot enters the remembered set at most once per minor
           collection, so reuse is cheaper than reallocating *)
    plain_masks : bool array array; (* per node *)
    halt_flag : Bytes.t; (* per lane, sticky; updated right after a fire *)
    (* SoA lane state; cell index is [entity * L + lane] unless noted *)
    fifo_buf : ia; (* [(ip * L + l) * cap_max + slot], ring mod cap.(l) *)
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
    (* relay pool: per-(chan, lane) slice of a global slot array, grouped
       per channel so lanes of one channel are contiguous *)
    rs_off : int array; (* n_chans * L *)
    rs_cnt : int array; (* n_chans * L *)
    rs_val : ia; (* 2 * total_slots *)
    rs_head : ia;
    rs_len : ia;
    stage_stops : Bytes.t;
    rs_out_val : ia;
    rs_out_valid : Bytes.t;
    (* faulted-lane delivery hooks, preallocated at [c * L + l] *)
    f_can : (unit -> bool) array;
    f_acc : (int -> unit) array;
    traces : int Token.t list array; (* [(out_port * L) + l]; only if record_traces *)
    (* scheduling *)
    mutable clock : int;
    act : int array; (* active lane ids, first n_act entries *)
    mutable n_act : int;
    finished : Engine.outcome option array; (* per lane *)
    lane_end : int array; (* per lane: clock at finish *)
    quiet : int array; (* per lane *)
    fired : Bytes.t; (* per lane, per-cycle scratch *)
  }

  (* ---------------------------------------------------------------- *)
  (* Compile                                                          *)
  (* ---------------------------------------------------------------- *)

  let create ~record_traces lanes =
    let n_lanes = Array.length lanes in
    let net0 = lanes.(0).net in
    let n_nodes = Network.node_count net0 in
    let n_chans = Network.channel_count net0 in
    let procs0 = Array.init n_nodes (fun n -> Network.node_process net0 n) in
    let prefix f =
      let base = Array.make (n_nodes + 1) 0 in
      for n = 0 to n_nodes - 1 do
        base.(n + 1) <- base.(n) + f procs0.(n)
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
    for c = 0 to n_chans - 1 do
      let src_node, src_port = Network.channel_src net0 c in
      let dst_node, dst_port = Network.channel_dst net0 c in
      chan_src_node.(c) <- src_node;
      chan_src_op.(c) <- out_base.(src_node) + src_port;
      chan_dst_ip.(c) <- in_base.(dst_node) + dst_port
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
    (* relay pool: per-(chan, lane) slices, lanes of a channel contiguous *)
    let rs_off = Array.make (max 1 (n_chans * n_lanes)) 0 in
    let rs_cnt = Array.make (max 1 (n_chans * n_lanes)) 0 in
    let total_slots = ref 0 in
    for c = 0 to n_chans - 1 do
      for l = 0 to n_lanes - 1 do
        let k = Network.relay_stations lanes.(l).net c in
        rs_off.((c * n_lanes) + l) <- !total_slots;
        rs_cnt.((c * n_lanes) + l) <- k;
        total_slots := !total_slots + k
      done
    done;
    let quiescence =
      Array.init n_lanes (fun l ->
          let rs =
            List.fold_left
              (fun acc c -> acc + Network.relay_stations lanes.(l).net c)
              0
              (Network.channels lanes.(l).net)
          in
          16 + (4 * (n_nodes + n_chans + rs)))
    in
    let faults =
      Array.map
        (fun ln ->
          if Fault.is_none ln.fault then None
          else Some (Fault.make ln.fault ~n_chans))
        lanes
    in
    let cap = Array.map (fun ln -> ln.capacity) lanes in
    let cap_max = Array.fold_left max 1 cap in
    let dummy_inst =
      {
        Process.required = (fun () -> [||]);
        fire = (fun _ -> [||]);
        halted = (fun () -> false);
      }
    in
    let instances = Array.make (max 1 (n_nodes * n_lanes)) dummy_inst in
    let lane_procs =
      Array.map
        (fun ln -> Array.init n_nodes (fun n -> Network.node_process ln.net n))
        lanes
    in
    for n = 0 to n_nodes - 1 do
      for l = 0 to n_lanes - 1 do
        instances.((n * n_lanes) + l) <- lane_procs.(l).(n).Process.make ()
      done
    done;
    let no_can () = false in
    let t =
      {
        n_lanes;
        n_nodes;
        n_chans;
        record_traces;
        nets = Array.map (fun ln -> ln.net) lanes;
        oracle = Array.map (fun ln -> ln.mode = Shell.Oracle) lanes;
        cap;
        cap_max;
        faults;
        budget = Array.map (fun ln -> ln.max_cycles) lanes;
        cancels = Array.map (fun ln -> ln.cancel) lanes;
        has_cancel =
          Array.exists (fun ln -> not (Wp_util.Cancel.is_never ln.cancel)) lanes;
        quiescence;
        in_base;
        out_base;
        chan_src_op;
        chan_dst_ip;
        out_chan_base;
        out_chan_ids;
        instances;
        inputs_scratch =
          Array.init n_nodes (fun n ->
              Array.make (Process.n_inputs procs0.(n)) None);
        plain_masks =
          Array.init n_nodes (fun n ->
              Array.make (Process.n_inputs procs0.(n)) true);
        halt_flag = Bytes.make n_lanes '\000';
        fifo_buf = ia (n_in_total * n_lanes * cap_max);
        fifo_head = ia (n_in_total * n_lanes);
        fifo_len = ia (n_in_total * n_lanes);
        drop_pending = ia (n_in_total * n_lanes);
        required_counts = ia (n_in_total * n_lanes);
        dropped = ia (n_in_total * n_lanes);
        emit_val = ia (n_out_total * n_lanes);
        emit_valid = Bytes.make (max 1 (n_out_total * n_lanes)) '\000';
        firings = ia (n_nodes * n_lanes);
        stalls = ia (n_nodes * n_lanes);
        input_starved = ia (n_nodes * n_lanes);
        output_blocked = ia (n_nodes * n_lanes);
        chan_delivered = ia (n_chans * n_lanes);
        producer_stop = Bytes.make (max 1 (n_chans * n_lanes)) '\000';
        rs_off;
        rs_cnt;
        rs_val = ia (2 * !total_slots);
        rs_head = ia !total_slots;
        rs_len = ia !total_slots;
        stage_stops = Bytes.make (max 1 !total_slots) '\000';
        rs_out_val = ia !total_slots;
        rs_out_valid = Bytes.make (max 1 !total_slots) '\000';
        f_can = Array.make (max 1 (n_chans * n_lanes)) no_can;
        f_acc = Array.make (max 1 (n_chans * n_lanes)) ignore;
        traces = Array.make (max 1 (n_out_total * n_lanes)) [];
        clock = 0;
        act = Array.init (max 1 n_lanes) (fun l -> l);
        n_act = n_lanes;
        finished = Array.make n_lanes None;
        lane_end = Array.make n_lanes 0;
        quiet = Array.make n_lanes 0;
        fired = Bytes.make n_lanes '\000';
      }
    in
    let fifo_push_exn ipl capl v =
      let len = t.fifo_len.(ipl) in
      if len >= capl then
        failwith "Batch shell: token lost (stop protocol violated)"
      else begin
        let head = t.fifo_head.(ipl) in
        (* head < capl and len < capl, so one conditional subtract replaces
           the integer division of [mod]. *)
        let slot = head + len in
        let slot = if slot >= capl then slot - capl else slot in
        t.fifo_buf.((ipl * cap_max) + slot) <- v;
        t.fifo_len.(ipl) <- len + 1
      end
    in
    (* A process can in principle be terminal at reset; seed the sticky
       halt flags so the first run-loop check agrees with Fast. *)
    for l = 0 to n_lanes - 1 do
      let h = ref false in
      for n = 0 to n_nodes - 1 do
        if (not !h) && (instances.((n * n_lanes) + l)).Process.halted () then
          h := true
      done;
      if !h then Bytes.set t.halt_flag l '\001'
    done;
    (* Per-(channel, lane) delivery hooks for faulted lanes: Fault.deliver
       needs live closures, so allocate them once here instead of per
       cycle (Fast allocates per cycle; the decisions are identical). *)
    for l = 0 to n_lanes - 1 do
      match faults.(l) with
      | None -> ()
      | Some _ ->
        for c = 0 to n_chans - 1 do
          let cl = (c * n_lanes) + l in
          let ipl = (chan_dst_ip.(c) * n_lanes) + l in
          let capl = cap.(l) in
          t.f_can.(cl) <-
            (fun () ->
              not
                (t.fifo_len.(ipl) >= capl && t.drop_pending.(ipl) = 0));
          t.f_acc.(cl) <-
            (fun v ->
              t.chan_delivered.(cl) <- t.chan_delivered.(cl) + 1;
              if t.drop_pending.(ipl) > 0 then begin
                t.drop_pending.(ipl) <- t.drop_pending.(ipl) - 1;
                t.dropped.(ipl) <- t.dropped.(ipl) + 1
              end
              else fifo_push_exn ipl capl v)
        done
    done;
    (* Reset: one initial token per channel per lane. *)
    for l = 0 to n_lanes - 1 do
      for c = 0 to n_chans - 1 do
        let src_node, src_port = Network.channel_src net0 c in
        let reset_value =
          lane_procs.(l).(src_node).Process.reset_outputs.(src_port)
        in
        fifo_push_exn ((chan_dst_ip.(c) * n_lanes) + l) cap.(l) reset_value;
        match faults.(l) with
        | Some f -> Fault.note_reset f ~chan:c ~value:reset_value
        | None -> ()
      done
    done;
    t

  (* ---------------------------------------------------------------- *)
  (* Step                                                             *)
  (* ---------------------------------------------------------------- *)

  let step t =
    let ll = t.n_lanes in
    let cyc = t.clock in
    (* Phase 1: propagate stops backwards along each relay chain. *)
    for c = 0 to t.n_chans - 1 do
      let ip = Array.unsafe_get t.chan_dst_ip c in
      for a = 0 to t.n_act - 1 do
        let l = Array.unsafe_get t.act a in
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
          stop := !stop && Array.unsafe_get t.rs_len r >= 2
        done;
        Bytes.unsafe_set t.producer_stop cl (if !stop then '\001' else '\000')
      done
    done;
    (* Phase 2: firing decisions, emissions into the flat scratch. *)
    for n = 0 to t.n_nodes - 1 do
      let ocb = Array.unsafe_get t.out_chan_base n in
      let oce = Array.unsafe_get t.out_chan_base (n + 1) in
      let ib = Array.unsafe_get t.in_base n in
      let n_in = Array.unsafe_get t.in_base (n + 1) - ib in
      let op0 = Array.unsafe_get t.out_base n in
      let n_out = Array.unsafe_get t.out_base (n + 1) - op0 in
      let inputs = Array.unsafe_get t.inputs_scratch n in
      let plain = Array.unsafe_get t.plain_masks n in
      for a = 0 to t.n_act - 1 do
        let l = Array.unsafe_get t.act a in
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
          if Array.unsafe_get t.oracle l then inst.Process.required ()
          else plain
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
          let capl = Array.unsafe_get t.cap l in
          for p = 0 to n_in - 1 do
            let ipl = ((ib + p) * ll) + l in
            if Array.unsafe_get mask p then begin
              Array.unsafe_set t.required_counts ipl
                (Array.unsafe_get t.required_counts ipl + 1);
              let head = Array.unsafe_get t.fifo_head ipl in
              let v = Array.unsafe_get t.fifo_buf ((ipl * t.cap_max) + head) in
              let head' = head + 1 in
              Array.unsafe_set t.fifo_head ipl
                (if head' >= capl then 0 else head');
              Array.unsafe_set t.fifo_len ipl
                (Array.unsafe_get t.fifo_len ipl - 1);
              Array.unsafe_set inputs p (Some v)
            end
            else begin
              (* Oracle skip: discard the useless token now or on arrival. *)
              if Array.unsafe_get t.fifo_len ipl > 0 then begin
                let head = Array.unsafe_get t.fifo_head ipl in
                let head' = head + 1 in
                Array.unsafe_set t.fifo_head ipl
                  (if head' >= capl then 0 else head');
                Array.unsafe_set t.fifo_len ipl
                  (Array.unsafe_get t.fifo_len ipl - 1);
                Array.unsafe_set t.dropped ipl
                  (Array.unsafe_get t.dropped ipl + 1)
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
             per-lane flag exactly as fresh as Fast's end-of-cycle scan —
             without paying [n_nodes] closure calls per lane per cycle. *)
          if inst.Process.halted () then Bytes.unsafe_set t.halt_flag l '\001';
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
    (* Phase 3: simultaneous shift; relay emissions computed pre-shift. *)
    for c = 0 to t.n_chans - 1 do
      let op = Array.unsafe_get t.chan_src_op c in
      let ip = Array.unsafe_get t.chan_dst_ip c in
      for a = 0 to t.n_act - 1 do
        let l = Array.unsafe_get t.act a in
        let cl = (c * ll) + l in
        let opl = (op * ll) + l in
        let base = Array.unsafe_get t.rs_off cl in
        let k = Array.unsafe_get t.rs_cnt cl in
        let tc_valid, tc_val =
          if k = 0 then
            ( Bytes.unsafe_get t.emit_valid opl = '\001',
              Array.unsafe_get t.emit_val opl )
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
            let accept r v =
              if Array.unsafe_get t.rs_len r >= 2 then
                failwith "Batch relay station: datum lost (stop protocol violated)"
              else begin
                Array.unsafe_set t.rs_val
                  ((2 * r)
                  + ((Array.unsafe_get t.rs_head r
                     + Array.unsafe_get t.rs_len r)
                     land 1))
                  v;
                Array.unsafe_set t.rs_len r (Array.unsafe_get t.rs_len r + 1)
              end
            in
            if Bytes.unsafe_get t.emit_valid opl = '\001' then
              accept base (Array.unsafe_get t.emit_val opl);
            for i = 1 to k - 1 do
              if Bytes.unsafe_get t.rs_out_valid (base + i - 1) = '\001' then
                accept (base + i) (Array.unsafe_get t.rs_out_val (base + i - 1))
            done;
            ( Bytes.unsafe_get t.rs_out_valid (base + k - 1) = '\001',
              Array.unsafe_get t.rs_out_val (base + k - 1) )
          end
        in
        match Array.unsafe_get t.faults l with
        | None ->
          if tc_valid then begin
            let ipl = (ip * ll) + l in
            Array.unsafe_set t.chan_delivered cl
              (Array.unsafe_get t.chan_delivered cl + 1);
            if Array.unsafe_get t.drop_pending ipl > 0 then begin
              Array.unsafe_set t.drop_pending ipl
                (Array.unsafe_get t.drop_pending ipl - 1);
              Array.unsafe_set t.dropped ipl
                (Array.unsafe_get t.dropped ipl + 1)
            end
            else begin
              let capl = Array.unsafe_get t.cap l in
              let len = Array.unsafe_get t.fifo_len ipl in
              if len >= capl then
                failwith "Batch shell: token lost (stop protocol violated)"
              else begin
                let head = Array.unsafe_get t.fifo_head ipl in
                let slot = head + len in
                let slot = if slot >= capl then slot - capl else slot in
                Array.unsafe_set t.fifo_buf ((ipl * t.cap_max) + slot) tc_val;
                Array.unsafe_set t.fifo_len ipl (len + 1)
              end
            end
          end
        | Some f ->
          Fault.deliver f ~chan:c ~valid:tc_valid ~value:tc_val
            ~can_accept:(Array.unsafe_get t.f_can cl)
            ~accept:(Array.unsafe_get t.f_acc cl)
      done
    done;
    t.clock <- t.clock + 1;
    for a = 0 to t.n_act - 1 do
      let l = Array.unsafe_get t.act a in
      if Bytes.unsafe_get t.fired l = '\001' then t.quiet.(l) <- 0
      else t.quiet.(l) <- t.quiet.(l) + 1;
      Bytes.unsafe_set t.fired l '\000'
    done

  let lane_halted t l = Bytes.unsafe_get t.halt_flag l = '\001'

  let run t =
    while t.n_act > 0 do
      (* Same per-lane termination checks, in the same order, as Fast.run:
         halt, quiescence-window deadlock, the cycle budget, then the
         cancellation poll (every [Engine.cancel_interval] cycles, one
         clock sample shared by every lane of the round).  A cancelled
         lane is compacted out exactly like a finished one, so its
         siblings' results stay byte-identical. *)
      let poll_cancel =
        t.has_cancel && t.clock land (Engine.cancel_interval - 1) = 0
      in
      let now = if poll_cancel then Wp_util.Cancel.now () else 0. in
      let w = ref 0 in
      for a = 0 to t.n_act - 1 do
        let l = t.act.(a) in
        let fin =
          if lane_halted t l then Some (Engine.Halted t.clock)
          else if t.quiet.(l) > t.quiescence.(l) then
            Some (Engine.Deadlocked t.clock)
          else if t.clock >= t.budget.(l) then Some (Engine.Exhausted t.clock)
          else if
            poll_cancel && Wp_util.Cancel.cancelled_at ~now t.cancels.(l)
          then Some (Engine.Cancelled t.clock)
          else None
        in
        match fin with
        | Some o ->
          t.finished.(l) <- Some o;
          t.lane_end.(l) <- t.clock
        | None ->
          t.act.(!w) <- l;
          incr w
      done;
      t.n_act <- !w;
      if t.n_act > 0 then step t
    done;
    Array.map
      (function Some o -> o | None -> assert false)
      t.finished

  (* ---------------------------------------------------------------- *)
  (* Accessors                                                        *)
  (* ---------------------------------------------------------------- *)

  let cycles t = t.clock

  let lane_cycles t ~lane =
    match t.finished.(lane) with Some _ -> t.lane_end.(lane) | None -> t.clock

  let outcome t ~lane = t.finished.(lane)
  let network t ~lane = t.nets.(lane)
  let mode t ~lane = if t.oracle.(lane) then Shell.Oracle else Shell.Plain
  let delivered t ~lane c = t.chan_delivered.((c * t.n_lanes) + lane)

  let fault_injections t ~lane =
    match t.faults.(lane) with Some f -> Fault.injections f | None -> 0

  let node_stats t ~lane n =
    let lo = t.in_base.(n) and hi = t.in_base.(n + 1) in
    let per a = Array.init (hi - lo) (fun p -> a.(((lo + p) * t.n_lanes) + lane)) in
    {
      Shell.firings = t.firings.((n * t.n_lanes) + lane);
      stalls = t.stalls.((n * t.n_lanes) + lane);
      input_starved = t.input_starved.((n * t.n_lanes) + lane);
      output_blocked = t.output_blocked.((n * t.n_lanes) + lane);
      required_counts = per t.required_counts;
      dropped = per t.dropped;
    }

  let output_trace t ~lane node port =
    List.rev t.traces.(((t.out_base.(node) + port) * t.n_lanes) + lane)

  let buffered t ~lane node port =
    t.fifo_len.(((t.in_base.(node) + port) * t.n_lanes) + lane)
end

(* ------------------------------------------------------------------ *)
(* Static-replay kernel: groups of Plain, unfaulted lanes             *)
(* ------------------------------------------------------------------ *)

module Replay = struct
  (* All lanes of a group share (topology, per-channel relay-station
     counts, capacity), hence the exact same firing schedule, the same
     quiescence window and — while active — the same clock.  Values
     flow through per-channel rings whose head/tail cursors are shared
     by every lane: active lanes have consumed and produced the same
     token counts at every cycle, so cursor maintenance is paid once
     per channel, not once per lane.  Cell [(c, slot, l)] lives at
     [q_base.(c) + slot * L + l], lane-inner for contiguity.

     A ring never overflows: a channel with capacity [C] and [k] relay
     stations holds at most [C + 2k] tokens in flight at a cycle
     boundary, plus one transiently when a producer fires earlier in
     the table row than its consumer — stride [C + 2k + 2] leaves a
     spare slot on top of that.

     Stall and delivery accounting does not happen per cycle at all:
     the schedule determines every count, so cumulative tables over
     the transient plus one period (shared by the group) reconstruct
     any lane's statistics at any end cycle in O(1). *)

  type t = {
    n_lanes : int;
    global : int array; (* local lane -> caller's lane id *)
    record_traces : bool;
    nets : Network.t array; (* per local lane *)
    budget : int array; (* per local lane *)
    cancels : Wp_util.Cancel.t array; (* per local lane *)
    has_cancel : bool;
    n_nodes : int;
    n_chans : int;
    instances : Process.instance array; (* [n * L + l] *)
    in_base : int array;
    out_base : int array;
    ip_chan : int array; (* global input port -> feeding channel *)
    op_chan : int array; (* global output port -> driven channel *)
    transient : int;
    period : int;
    table : Static.table_cycle array;
    (* cumulative schedule counts: row [j] covers cycles [0, j),
       rows 0 .. transient + period; beyond that extrapolate with the
       per-period deltas *)
    cum_fired : int array; (* (row * n_nodes) + n *)
    cum_starved : int array;
    cum_blocked : int array;
    cum_deliver : int array; (* (row * n_chans) + c *)
    per_fired : int array; (* per node, one period's worth *)
    per_starved : int array;
    per_blocked : int array;
    per_deliver : int array; (* per channel *)
    inputs_scratch : int option array array; (* per node, as in Dyn *)
    halt_flag : Bytes.t; (* per local lane, sticky *)
    traces : int Token.t list array; (* [(out_port * L) + l] *)
    (* per-channel value rings, cursors shared across lanes *)
    q_val : ia;
    q_base : int array;
    q_stride : int array;
    q_head : int array;
    q_tail : int array;
    q_fill : int array;
    quiescence : int;
    mutable quiet : int;
    mutable clock : int;
    act : int array;
    mutable n_act : int;
    finished : Engine.outcome option array;
    lane_end : int array;
  }

  let create ~record_traces ~capacity ~schedule:(transient, period, table)
      ~global lanes =
    let n_lanes = Array.length lanes in
    let net0 = lanes.(0).net in
    let n_nodes = Network.node_count net0 in
    let n_chans = Network.channel_count net0 in
    let procs0 = Array.init n_nodes (fun n -> Network.node_process net0 n) in
    let prefix f =
      let base = Array.make (n_nodes + 1) 0 in
      for n = 0 to n_nodes - 1 do
        base.(n + 1) <- base.(n) + f procs0.(n)
      done;
      base
    in
    let in_base = prefix Process.n_inputs in
    let out_base = prefix Process.n_outputs in
    let n_in_total = in_base.(n_nodes) in
    let n_out_total = out_base.(n_nodes) in
    let ip_chan = Array.make (max 1 n_in_total) (-1) in
    let op_chan = Array.make (max 1 n_out_total) (-1) in
    let rs = Array.init n_chans (fun c -> Network.relay_stations net0 c) in
    for c = 0 to n_chans - 1 do
      let src_node, src_port = Network.channel_src net0 c in
      let dst_node, dst_port = Network.channel_dst net0 c in
      ip_chan.(in_base.(dst_node) + dst_port) <- c;
      op_chan.(out_base.(src_node) + src_port) <- c
    done;
    let total_rs = Array.fold_left ( + ) 0 rs in
    let lane_procs =
      Array.map
        (fun ln -> Array.init n_nodes (fun n -> Network.node_process ln.net n))
        lanes
    in
    let dummy_inst =
      {
        Process.required = (fun () -> [||]);
        fire = (fun _ -> [||]);
        halted = (fun () -> false);
      }
    in
    let instances = Array.make (max 1 (n_nodes * n_lanes)) dummy_inst in
    for n = 0 to n_nodes - 1 do
      for l = 0 to n_lanes - 1 do
        instances.((n * n_lanes) + l) <- lane_procs.(l).(n).Process.make ()
      done
    done;
    let tp = transient + period in
    let build_cum n_ent proj =
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
    let per_of cum n_ent =
      Array.init n_ent (fun e ->
          cum.((tp * n_ent) + e) - cum.((transient * n_ent) + e))
    in
    let cum_fired = build_cum n_nodes (fun tc -> tc.Static.tc_fired) in
    let cum_starved = build_cum n_nodes (fun tc -> tc.Static.tc_starved) in
    let cum_blocked = build_cum n_nodes (fun tc -> tc.Static.tc_blocked) in
    let cum_deliver = build_cum n_chans (fun tc -> tc.Static.tc_deliver) in
    let q_stride = Array.map (fun k -> capacity + (2 * k) + 2) rs in
    let q_base = Array.make (n_chans + 1) 0 in
    for c = 0 to n_chans - 1 do
      q_base.(c + 1) <- q_base.(c) + (q_stride.(c) * n_lanes)
    done;
    let t =
      {
        n_lanes;
        global;
        record_traces;
        nets = Array.map (fun ln -> ln.net) lanes;
        budget = Array.map (fun ln -> ln.max_cycles) lanes;
        cancels = Array.map (fun ln -> ln.cancel) lanes;
        has_cancel =
          Array.exists (fun ln -> not (Wp_util.Cancel.is_never ln.cancel)) lanes;
        n_nodes;
        n_chans;
        instances;
        in_base;
        out_base;
        ip_chan;
        op_chan;
        transient;
        period;
        table;
        cum_fired;
        cum_starved;
        cum_blocked;
        cum_deliver;
        per_fired = per_of cum_fired n_nodes;
        per_starved = per_of cum_starved n_nodes;
        per_blocked = per_of cum_blocked n_nodes;
        per_deliver = per_of cum_deliver n_chans;
        inputs_scratch =
          Array.init n_nodes (fun n ->
              Array.make (Process.n_inputs procs0.(n)) None);
        halt_flag = Bytes.make n_lanes '\000';
        traces = Array.make (max 1 (n_out_total * n_lanes)) [];
        q_val = ia q_base.(n_chans);
        q_base;
        q_stride;
        q_head = Array.make (max 1 n_chans) 0;
        q_tail = Array.make (max 1 n_chans) 1;
        q_fill = Array.make (max 1 n_chans) 1;
        quiescence = 16 + (4 * (n_nodes + n_chans + total_rs));
        quiet = 0;
        clock = 0;
        act = Array.init (max 1 n_lanes) (fun l -> l);
        n_act = n_lanes;
        finished = Array.make n_lanes None;
        lane_end = Array.make n_lanes 0;
      }
    in
    (* Reset: slot 0 of every ring holds the channel's reset token. *)
    for c = 0 to n_chans - 1 do
      let src_node, src_port = Network.channel_src net0 c in
      for l = 0 to n_lanes - 1 do
        t.q_val.(q_base.(c) + l) <-
          lane_procs.(l).(src_node).Process.reset_outputs.(src_port)
      done
    done;
    (* A process can be terminal at reset; agree with Fast's first check. *)
    for l = 0 to n_lanes - 1 do
      let h = ref false in
      for n = 0 to n_nodes - 1 do
        if (not !h) && (instances.((n * n_lanes) + l)).Process.halted () then
          h := true
      done;
      if !h then Bytes.set t.halt_flag l '\001'
    done;
    t

  let table_index t =
    if t.clock < t.transient then t.clock
    else t.transient + ((t.clock - t.transient) mod t.period)

  let step t =
    let ll = t.n_lanes in
    let tc = t.table.(table_index t) in
    let fired = tc.Static.tc_fired in
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
          failwith "Batch replay: value ring overflow (schedule violated)"
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
      voids tc.Static.tc_starved;
      voids tc.Static.tc_blocked
    end;
    t.clock <- t.clock + 1;
    if tc.Static.tc_any then t.quiet <- 0 else t.quiet <- t.quiet + 1

  let run t =
    while t.n_act > 0 do
      (* Same per-lane checks, in the same order, as Fast.run.  The
         quiet counter is shared: the firing pattern — hence every
         silent-cycle run — is identical across the group's lanes.
         Cancelled lanes leave the act set like finished ones; the
         schedule replay is lane-independent, so survivors keep their
         byte-identical results. *)
      let poll_cancel =
        t.has_cancel && t.clock land (Engine.cancel_interval - 1) = 0
      in
      let now = if poll_cancel then Wp_util.Cancel.now () else 0. in
      let w = ref 0 in
      for a = 0 to t.n_act - 1 do
        let l = t.act.(a) in
        let fin =
          if Bytes.unsafe_get t.halt_flag l = '\001' then
            Some (Engine.Halted t.clock)
          else if t.quiet > t.quiescence then Some (Engine.Deadlocked t.clock)
          else if t.clock >= t.budget.(l) then Some (Engine.Exhausted t.clock)
          else if
            poll_cancel && Wp_util.Cancel.cancelled_at ~now t.cancels.(l)
          then Some (Engine.Cancelled t.clock)
          else None
        in
        match fin with
        | Some o ->
          t.finished.(l) <- Some o;
          t.lane_end.(l) <- t.clock
        | None ->
          t.act.(!w) <- l;
          incr w
      done;
      t.n_act <- !w;
      if t.n_act > 0 then step t
    done;
    Array.map
      (function Some o -> o | None -> assert false)
      t.finished

  (* ---------------------------------------------------------------- *)
  (* Accessors: schedule-table arithmetic, O(1) per query             *)
  (* ---------------------------------------------------------------- *)

  (* Occurrences of entity [e] during cycles [0, cycles). *)
  let count t cum per n_ent e cycles =
    let tp = t.transient + t.period in
    if cycles <= tp then cum.((cycles * n_ent) + e)
    else begin
      let r = (cycles - t.transient) mod t.period in
      let k = (cycles - t.transient - r) / t.period in
      cum.(((t.transient + r) * n_ent) + e) + (k * per.(e))
    end

  let ended t l =
    match t.finished.(l) with Some _ -> t.lane_end.(l) | None -> t.clock

  let cycles t = t.clock
  let lane_cycles t l = ended t l
  let outcome t l = t.finished.(l)
  let network t l = t.nets.(l)

  let delivered t l c =
    count t t.cum_deliver t.per_deliver t.n_chans c (ended t l)

  let node_stats t l n =
    let e = ended t l in
    let f = count t t.cum_fired t.per_fired t.n_nodes n e in
    let starved = count t t.cum_starved t.per_starved t.n_nodes n e in
    let blocked = count t t.cum_blocked t.per_blocked t.n_nodes n e in
    let n_in = t.in_base.(n + 1) - t.in_base.(n) in
    {
      Shell.firings = f;
      stalls = starved + blocked;
      input_starved = starved;
      output_blocked = blocked;
      (* Plain mode consumes every input port once per firing and never
         skips a token. *)
      required_counts = Array.make n_in f;
      dropped = Array.make n_in 0;
    }

  let output_trace t l node port =
    List.rev t.traces.(((t.out_base.(node) + port) * t.n_lanes) + l)

  let buffered t l node port =
    (* 1 (reset token) + delivered - consumed; each firing of [node]
       consumes exactly one token per input port. *)
    let c = t.ip_chan.(t.in_base.(node) + port) in
    let e = ended t l in
    1
    + count t t.cum_deliver t.per_deliver t.n_chans c e
    - count t t.cum_fired t.per_fired t.n_nodes node e
end

(* ------------------------------------------------------------------ *)
(* Topology signature                                                 *)
(* ------------------------------------------------------------------ *)

(* What two lanes must agree on to share one compiled sub-kernel: node
   count, per-node port shapes and channel endpoints.  Relay-station
   counts and capacity are deliberately absent — they vary per lane
   (Dyn) or per replay group.  This is also the key [Topology.signature]
   exposes so sweep drivers can predict lane grouping. *)
let signature net =
  let b = Buffer.create 128 in
  let n_nodes = Network.node_count net in
  let n_chans = Network.channel_count net in
  Printf.bprintf b "n%d|c%d" n_nodes n_chans;
  for n = 0 to n_nodes - 1 do
    let p = Network.node_process net n in
    Printf.bprintf b "|%d.%d" (Process.n_inputs p) (Process.n_outputs p)
  done;
  for c = 0 to n_chans - 1 do
    let sn, sp = Network.channel_src net c in
    let dn, dp = Network.channel_dst net c in
    Printf.bprintf b "|%d.%d.%d.%d" sn sp dn dp
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Composite: partition, dispatch                                     *)
(* ------------------------------------------------------------------ *)

type sub = Dyn_lane of int | Rep_lane of int * int

(* One topology-homogeneous sub-composite: every lane in it shares the
   signature above, so Dyn's shared-structure assumption and Replay's
   shared-schedule assumption both hold within it. *)
type homo = {
  h_global : int array; (* local lane id -> caller's lane id *)
  h_where : sub array; (* local lane id -> owning sub-kernel *)
  h_dyn : Dyn.t option;
  h_dyn_local : int array; (* dyn lane order -> local lane id *)
  h_groups : Replay.t array;
}

type t = {
  n_lanes : int;
  loc : (int * int) array; (* caller's lane id -> (topology, local lane) *)
  homos : homo array;
}

(* Compile one topology-homogeneous lane set.  Lanes are already
   validated (capacity >= 1, no protection, valid network) and agree on
   the topology signature; [global] maps them back to the caller's lane
   ids for error messages. *)
let create_homo ~record_traces ~global lanes =
  let n_lanes = Array.length lanes in
  let net0 = lanes.(0).net in
  let n_chans = Network.channel_count net0 in
  (* Partition: Plain, unfaulted lanes share a data-independent firing
     schedule keyed by (capacity, relay stations per channel); the rest
     step dynamically.  A group whose prepass finds no periodic steady
     state falls back to the dynamic kernel too. *)
  let keys = ref [] in
  let by_key = Hashtbl.create 8 in
  let dyn_ids = ref [] in
  for l = n_lanes - 1 downto 0 do
    let ln = lanes.(l) in
    if ln.mode = Shell.Plain && Fault.is_none ln.fault then begin
      let k =
        ( ln.capacity,
          Array.init n_chans (fun c -> Network.relay_stations ln.net c) )
      in
      (match Hashtbl.find_opt by_key k with
      | None ->
        keys := k :: !keys;
        Hashtbl.add by_key k [ l ]
      | Some ls -> Hashtbl.replace by_key k (l :: ls))
    end
    else dyn_ids := l :: !dyn_ids
  done;
  let groups = ref [] in
  List.iter
    (fun ((capacity, _) as k) ->
      let ids = Hashtbl.find by_key k in
      let rep = List.hd ids in
      match Static.tables ~capacity lanes.(rep).net with
      | schedule ->
        let local = Array.of_list ids in
        let sub = Array.map (fun l -> lanes.(l)) local in
        groups :=
          Replay.create ~record_traces ~capacity ~schedule ~global:local sub
          :: !groups
      | exception Static.Unschedulable _ ->
        dyn_ids := List.merge compare ids !dyn_ids)
    (List.rev !keys);
  let h_groups = Array.of_list (List.rev !groups) in
  let h_dyn_local = Array.of_list !dyn_ids in
  let h_dyn =
    if Array.length h_dyn_local = 0 then None
    else
      Some
        (Dyn.create ~record_traces
           (Array.map (fun l -> lanes.(l)) h_dyn_local))
  in
  let h_where = Array.make n_lanes (Dyn_lane 0) in
  Array.iteri (fun i l -> h_where.(l) <- Dyn_lane i) h_dyn_local;
  Array.iteri
    (fun gi grp ->
      Array.iteri (fun i l -> h_where.(l) <- Rep_lane (gi, i)) grp.Replay.global)
    h_groups;
  { h_global = global; h_where; h_dyn; h_dyn_local; h_groups }

let create ?(record_traces = false) lanes =
  let n_lanes = Array.length lanes in
  if n_lanes = 0 then invalid_arg "Batch.create: empty lane array";
  Array.iteri
    (fun l ln ->
      if ln.capacity < 1 then
        unbatchable "lane %d: capacity %d (unbounded FIFOs are not batchable)"
          l ln.capacity;
      Network.validate ln.net;
      List.iter
        (fun c ->
          if Network.protection ln.net c <> None then
            unbatchable "lane %d: channel %d is link-protected" l c)
        (Network.channels ln.net))
    lanes;
  (* Group lanes by topology signature, in first-appearance order; each
     signature compiles its own sub-composite, so a heterogeneous batch
     (several generated topologies in one call) needs no fallback. *)
  let sig_order = ref [] in
  let by_sig = Hashtbl.create 8 in
  for l = n_lanes - 1 downto 0 do
    let key = signature lanes.(l).net in
    match Hashtbl.find_opt by_sig key with
    | None ->
      sig_order := key :: !sig_order;
      Hashtbl.add by_sig key [ l ]
    | Some ls -> Hashtbl.replace by_sig key (l :: ls)
  done;
  let homos =
    Array.of_list
      (List.map
         (fun key ->
           let global = Array.of_list (Hashtbl.find by_sig key) in
           let sub = Array.map (fun l -> lanes.(l)) global in
           create_homo ~record_traces ~global sub)
         !sig_order)
  in
  let loc = Array.make n_lanes (0, 0) in
  Array.iteri
    (fun hi h -> Array.iteri (fun li g -> loc.(g) <- (hi, li)) h.h_global)
    homos;
  { n_lanes; loc; homos }

let run t =
  let out = Array.make t.n_lanes None in
  Array.iter
    (fun h ->
      (match h.h_dyn with
      | None -> ()
      | Some d ->
        let o = Dyn.run d in
        Array.iteri (fun i l -> out.(h.h_global.(l)) <- Some o.(i)) h.h_dyn_local);
      Array.iter
        (fun grp ->
          let o = Replay.run grp in
          Array.iteri
            (fun i l -> out.(h.h_global.(l)) <- Some o.(i))
            grp.Replay.global)
        h.h_groups)
    t.homos;
  Array.map (function Some o -> o | None -> assert false) out

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let n_lanes t = t.n_lanes

let cycles t =
  Array.fold_left
    (fun acc h ->
      let m = match h.h_dyn with Some d -> max acc (Dyn.cycles d) | None -> acc in
      Array.fold_left (fun acc g -> max acc (Replay.cycles g)) m h.h_groups)
    0 t.homos

let h_dyn h = match h.h_dyn with Some d -> d | None -> assert false

let locate t lane =
  let hi, li = t.loc.(lane) in
  let h = t.homos.(hi) in
  (h, h.h_where.(li))

let lane_cycles t ~lane =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.lane_cycles (h_dyn h) ~lane:i
  | h, Rep_lane (g, i) -> Replay.lane_cycles h.h_groups.(g) i

let outcome t ~lane =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.outcome (h_dyn h) ~lane:i
  | h, Rep_lane (g, i) -> Replay.outcome h.h_groups.(g) i

let network t ~lane =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.network (h_dyn h) ~lane:i
  | h, Rep_lane (g, i) -> Replay.network h.h_groups.(g) i

let mode t ~lane =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.mode (h_dyn h) ~lane:i
  | _, Rep_lane _ -> Shell.Plain

let delivered t ~lane c =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.delivered (h_dyn h) ~lane:i c
  | h, Rep_lane (g, i) -> Replay.delivered h.h_groups.(g) i c

let fault_injections t ~lane =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.fault_injections (h_dyn h) ~lane:i
  | _, Rep_lane _ -> 0

let node_stats t ~lane n =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.node_stats (h_dyn h) ~lane:i n
  | h, Rep_lane (g, i) -> Replay.node_stats h.h_groups.(g) i n

let output_trace t ~lane node port =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.output_trace (h_dyn h) ~lane:i node port
  | h, Rep_lane (g, i) -> Replay.output_trace h.h_groups.(g) i node port

let buffered t ~lane node port =
  match locate t lane with
  | h, Dyn_lane i -> Dyn.buffered (h_dyn h) ~lane:i node port
  | h, Rep_lane (g, i) -> Replay.buffered h.h_groups.(g) i node port
