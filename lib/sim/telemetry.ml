(* Cycle-accurate observability shared by both simulation kernels.

   Allocation discipline: engines write each cycle's observations into
   preallocated scratch arrays; [commit_cycle] folds the scratch into
   flat counter arrays and (optionally) a preallocated ring buffer.
   Nothing on the per-cycle path allocates beyond what the instrumented
   engine itself does — and when the spec is [off] the engines hold no
   runtime at all, so the disabled cost is a single [match] per phase. *)

(* ------------------------------------------------------------------ *)
(* Spec                                                               *)
(* ------------------------------------------------------------------ *)

type spec = { counters : bool; trace_depth : int }

let off = { counters = false; trace_depth = 0 }
let counters = { counters = true; trace_depth = 0 }
let with_trace ?(depth = 65536) () =
  if depth <= 0 then invalid_arg "Telemetry.with_trace: depth must be positive";
  { counters = true; trace_depth = depth }

let is_off s = (not s.counters) && s.trace_depth = 0

let spec_digest s =
  if is_off s then "notel"
  else if s.trace_depth = 0 then "tel"
  else Printf.sprintf "tel+trace:%d" s.trace_depth

(* ------------------------------------------------------------------ *)
(* Stall classification                                               *)
(* ------------------------------------------------------------------ *)

type cls =
  | Fired
  | Oracle_skip
  | Missing_input
  | Output_backpressure
  | Link_credit

let cls_code = function
  | Fired -> 0
  | Oracle_skip -> 1
  | Missing_input -> 2
  | Output_backpressure -> 3
  | Link_credit -> 4

let n_classes = 5

let classify ~fired ~ready ~outputs_clear ~oracle_ready ~link_blocked =
  if fired then Fired
  else if ready then (if link_blocked then Link_credit else Output_backpressure)
  else if outputs_clear && oracle_ready then Oracle_skip
  else Missing_input

(* ------------------------------------------------------------------ *)
(* Runtime                                                            *)
(* ------------------------------------------------------------------ *)

let occ_buckets = 9
let gap_buckets = 9

type t = {
  n_nodes : int;
  n_chans : int;
  node_names : string array;
  chan_labels : string array;
  chan_rs : int array;
  (* per-cycle scratch, refreshed by the hooks *)
  cls_scratch : int array; (* n_nodes, class codes *)
  occ_scratch : int array; (* n_chans *)
  stop_scratch : bool array; (* n_chans *)
  valid_scratch : int array; (* n_chans, deliveries this cycle *)
  prev_delivered : int array;
  (* counters *)
  node_cls_count : int array; (* n_nodes * n_classes *)
  occ_hist : int array; (* n_chans * occ_buckets *)
  gap_hist : int array; (* n_chans * gap_buckets *)
  last_valid_cycle : int array; (* -1 = never *)
  valid_cycles : int array;
  delivered_total : int array;
  stop_cycles : int array;
  mutable cycles : int;
  (* bounded event-trace ring *)
  depth : int;
  chan_words : int;
  trace_cls : int array; (* depth * n_nodes *)
  trace_valid : int array; (* depth * chan_words *)
  trace_stop : int array; (* depth * chan_words *)
  mutable head : int; (* next slot to write *)
  mutable count : int; (* retained entries, <= depth *)
}

let make spec net =
  if is_off spec then None
  else begin
    let n_nodes = Network.node_count net in
    let n_chans = Network.channel_count net in
    let chan_words = max 1 ((n_chans + 62) / 63) in
    let depth = max 0 spec.trace_depth in
    Some
      {
        n_nodes;
        n_chans;
        node_names =
          Array.init n_nodes (fun n ->
              (Network.node_process net n).Wp_lis.Process.name);
        chan_labels = Array.init n_chans (fun c -> Network.channel_label net c);
        chan_rs = Array.init n_chans (fun c -> Network.relay_stations net c);
        cls_scratch = Array.make (max 1 n_nodes) 0;
        occ_scratch = Array.make (max 1 n_chans) 0;
        stop_scratch = Array.make (max 1 n_chans) false;
        valid_scratch = Array.make (max 1 n_chans) 0;
        prev_delivered = Array.make (max 1 n_chans) 0;
        node_cls_count = Array.make (max 1 (n_nodes * n_classes)) 0;
        occ_hist = Array.make (max 1 (n_chans * occ_buckets)) 0;
        gap_hist = Array.make (max 1 (n_chans * gap_buckets)) 0;
        last_valid_cycle = Array.make (max 1 n_chans) (-1);
        valid_cycles = Array.make (max 1 n_chans) 0;
        delivered_total = Array.make (max 1 n_chans) 0;
        stop_cycles = Array.make (max 1 n_chans) 0;
        cycles = 0;
        depth;
        chan_words;
        trace_cls = Array.make (max 1 (depth * n_nodes)) 0;
        trace_valid = Array.make (max 1 (depth * chan_words)) 0;
        trace_stop = Array.make (max 1 (depth * chan_words)) 0;
        head = 0;
        count = 0;
      }
  end

let occ_scratch t = t.occ_scratch
let stop_scratch t = t.stop_scratch
let cls_scratch t = t.cls_scratch

let end_cycle t =
  for n = 0 to t.n_nodes - 1 do
    let code = t.cls_scratch.(n) in
    t.node_cls_count.((n * n_classes) + code) <-
      t.node_cls_count.((n * n_classes) + code) + 1
  done;
  if t.depth > 0 then begin
    let slot = t.head in
    let cls_base = slot * t.n_nodes in
    for n = 0 to t.n_nodes - 1 do
      t.trace_cls.(cls_base + n) <- t.cls_scratch.(n)
    done;
    let word_base = slot * t.chan_words in
    for w = 0 to t.chan_words - 1 do
      t.trace_valid.(word_base + w) <- 0;
      t.trace_stop.(word_base + w) <- 0
    done;
    for c = 0 to t.n_chans - 1 do
      let w = word_base + (c / 63) and bit = 1 lsl (c mod 63) in
      if t.valid_scratch.(c) > 0 then
        t.trace_valid.(w) <- t.trace_valid.(w) lor bit;
      if t.stop_scratch.(c) then t.trace_stop.(w) <- t.trace_stop.(w) lor bit
    done;
    t.head <- (t.head + 1) mod t.depth;
    if t.count < t.depth then t.count <- t.count + 1
  end;
  t.cycles <- t.cycles + 1

let commit_cycle t ~delivered =
  for chan = 0 to t.n_chans - 1 do
    let delta = delivered.(chan) - t.prev_delivered.(chan) in
    t.prev_delivered.(chan) <- delivered.(chan);
    t.valid_scratch.(chan) <- delta;
    let bucket = min t.occ_scratch.(chan) (occ_buckets - 1) in
    t.occ_hist.((chan * occ_buckets) + bucket) <-
      t.occ_hist.((chan * occ_buckets) + bucket) + 1;
    if t.stop_scratch.(chan) then
      t.stop_cycles.(chan) <- t.stop_cycles.(chan) + 1;
    if delta > 0 then begin
      t.valid_cycles.(chan) <- t.valid_cycles.(chan) + 1;
      t.delivered_total.(chan) <- t.delivered_total.(chan) + delta;
      let last = t.last_valid_cycle.(chan) in
      if last >= 0 then begin
        let gap = min (t.cycles - last) gap_buckets in
        t.gap_hist.((chan * gap_buckets) + (gap - 1)) <-
          t.gap_hist.((chan * gap_buckets) + (gap - 1)) + 1
      end;
      t.last_valid_cycle.(chan) <- t.cycles
    end
  done;
  end_cycle t

(* ------------------------------------------------------------------ *)
(* Summaries                                                          *)
(* ------------------------------------------------------------------ *)

type node_summary = {
  node_name : string;
  fired : int;
  oracle_skip : int;
  missing_input : int;
  output_backpressure : int;
  link_credit : int;
}

let node_cycles n =
  n.fired + n.oracle_skip + n.missing_input + n.output_backpressure
  + n.link_credit

type channel_summary = {
  chan_label : string;
  relay_stations : int;
  delivered : int;
  valid_cycles : int;
  stop_cycles : int;
  occupancy : int array;
  gap : int array;
}

let duty ~cycles ch =
  if cycles = 0 then 0.0 else float_of_int ch.delivered /. float_of_int cycles

type summary = {
  cycles : int;
  nodes : node_summary array;
  channels : channel_summary array;
  link : Link.summary option;
}

let summary_of (t : t) ~link =
  {
    cycles = t.cycles;
    nodes =
      Array.init t.n_nodes (fun n ->
          let at k = t.node_cls_count.((n * n_classes) + k) in
          {
            node_name = t.node_names.(n);
            fired = at 0;
            oracle_skip = at 1;
            missing_input = at 2;
            output_backpressure = at 3;
            link_credit = at 4;
          });
    channels =
      Array.init t.n_chans (fun c ->
          {
            chan_label = t.chan_labels.(c);
            relay_stations = t.chan_rs.(c);
            delivered = t.delivered_total.(c);
            valid_cycles = t.valid_cycles.(c);
            stop_cycles = t.stop_cycles.(c);
            occupancy = Array.sub t.occ_hist (c * occ_buckets) occ_buckets;
            gap = Array.sub t.gap_hist (c * gap_buckets) gap_buckets;
          });
    link;
  }

let node_summary_equal a b =
  a.node_name = b.node_name && a.fired = b.fired
  && a.oracle_skip = b.oracle_skip
  && a.missing_input = b.missing_input
  && a.output_backpressure = b.output_backpressure
  && a.link_credit = b.link_credit

let channel_summary_equal a b =
  a.chan_label = b.chan_label
  && a.relay_stations = b.relay_stations
  && a.delivered = b.delivered
  && a.valid_cycles = b.valid_cycles
  && a.stop_cycles = b.stop_cycles
  && a.occupancy = b.occupancy && a.gap = b.gap

let summary_equal a b =
  a.cycles = b.cycles
  && Array.length a.nodes = Array.length b.nodes
  && Array.length a.channels = Array.length b.channels
  && Array.for_all2 node_summary_equal a.nodes b.nodes
  && Array.for_all2 channel_summary_equal a.channels b.channels
  && a.link = b.link

let same_topology a b =
  Array.length a.nodes = Array.length b.nodes
  && Array.length a.channels = Array.length b.channels
  && Array.for_all2 (fun (x : node_summary) y -> x.node_name = y.node_name)
       a.nodes b.nodes
  && Array.for_all2
       (fun (x : channel_summary) y -> x.chan_label = y.chan_label)
       a.channels b.channels

let combine ~op ~latency a b =
  if not (same_topology a b) then
    invalid_arg "Telemetry: summaries describe different topologies";
  {
    cycles = op a.cycles b.cycles;
    nodes =
      Array.map2
        (fun (x : node_summary) (y : node_summary) ->
          {
            node_name = x.node_name;
            fired = op x.fired y.fired;
            oracle_skip = op x.oracle_skip y.oracle_skip;
            missing_input = op x.missing_input y.missing_input;
            output_backpressure = op x.output_backpressure y.output_backpressure;
            link_credit = op x.link_credit y.link_credit;
          })
        a.nodes b.nodes;
    channels =
      Array.map2
        (fun (x : channel_summary) (y : channel_summary) ->
          {
            chan_label = x.chan_label;
            relay_stations = x.relay_stations;
            delivered = op x.delivered y.delivered;
            valid_cycles = op x.valid_cycles y.valid_cycles;
            stop_cycles = op x.stop_cycles y.stop_cycles;
            occupancy = Array.map2 op x.occupancy y.occupancy;
            gap = Array.map2 op x.gap y.gap;
          })
        a.channels b.channels;
    link =
      (match (a.link, b.link) with
      | None, l | l, None -> l
      | Some la, Some lb ->
        Some
          Link.
            {
              protected_channels = op la.protected_channels lb.protected_channels;
              frames_sent = op la.frames_sent lb.frames_sent;
              retransmissions = op la.retransmissions lb.retransmissions;
              timeouts = op la.timeouts lb.timeouts;
              naks = op la.naks lb.naks;
              crc_detected = op la.crc_detected lb.crc_detected;
              dedup_drops = op la.dedup_drops lb.dedup_drops;
              recoveries = op la.recoveries lb.recoveries;
              max_recovery_latency =
                latency la.max_recovery_latency lb.max_recovery_latency;
            });
  }

let merge a b = combine ~op:( + ) ~latency:max a b

let merge_opt acc s =
  match acc with
  | None -> Some s
  | Some a -> if same_topology a s then Some (merge a s) else Some a

let diff later earlier =
  combine ~op:( - ) ~latency:(fun l _ -> l) later earlier

let to_table s =
  let module T = Wp_util.Text_table in
  let nodes =
    T.create
      ~columns:
        [
          ("node", T.Left);
          ("fired", T.Right);
          ("oracle-skip", T.Right);
          ("missing-input", T.Right);
          ("backpressure", T.Right);
          ("link-credit", T.Right);
          ("stall%", T.Right);
        ]
  in
  Array.iter
    (fun n ->
      let cyc = node_cycles n in
      let stalled = cyc - n.fired in
      T.add_row nodes
        [
          n.node_name;
          string_of_int n.fired;
          string_of_int n.oracle_skip;
          string_of_int n.missing_input;
          string_of_int n.output_backpressure;
          string_of_int n.link_credit;
          (if cyc = 0 then "0.0"
           else Printf.sprintf "%.1f" (100.0 *. float_of_int stalled /. float_of_int cyc));
        ])
    s.nodes;
  let chans =
    T.create
      ~columns:
        [
          ("channel", T.Left);
          ("RS", T.Right);
          ("delivered", T.Right);
          ("duty", T.Right);
          ("stop%", T.Right);
          ("occ p50", T.Right);
          ("gap p50", T.Right);
        ]
  in
  let median hist =
    let total = Array.fold_left ( + ) 0 hist in
    if total = 0 then 0
    else begin
      let half = (total + 1) / 2 in
      let acc = ref 0 and m = ref (Array.length hist - 1) in
      (try
         Array.iteri
           (fun i c ->
             acc := !acc + c;
             if !acc >= half then begin
               m := i;
               raise Exit
             end)
           hist
       with Exit -> ());
      !m
    end
  in
  Array.iter
    (fun c ->
      T.add_row chans
        [
          c.chan_label;
          string_of_int c.relay_stations;
          string_of_int c.delivered;
          Printf.sprintf "%.3f" (duty ~cycles:s.cycles c);
          (if s.cycles = 0 then "0.0"
           else
             Printf.sprintf "%.1f"
               (100.0 *. float_of_int c.stop_cycles /. float_of_int s.cycles));
          string_of_int (median c.occupancy);
          string_of_int (median c.gap + 1);
        ])
    s.channels;
  let link_line =
    match s.link with
    | None -> ""
    | Some l ->
      Printf.sprintf
        "link: %d protected channel%s, %d frames, %d retransmissions (%d \
         timeouts, %d NAKs), %d CRC detections, %d dedups, %d recoveries, \
         max recovery latency %d cycles\n"
        l.Link.protected_channels
        (if l.Link.protected_channels = 1 then "" else "s")
        l.Link.frames_sent l.Link.retransmissions l.Link.timeouts l.Link.naks
        l.Link.crc_detected l.Link.dedup_drops l.Link.recoveries
        l.Link.max_recovery_latency
  in
  Printf.sprintf "cycles: %d\n%s\n%s%s" s.cycles (T.render nodes)
    (T.render chans) link_line

(* ------------------------------------------------------------------ *)
(* Event trace                                                        *)
(* ------------------------------------------------------------------ *)

type trace = {
  t0 : int;
  steps : int;
  node_names : string array;
  chan_labels : string array;
  node_cls : int array;
  chan_valid : int array;
  chan_stop : int array;
  chan_words : int;
}

let trace t =
  if t.depth = 0 || t.count = 0 then None
  else begin
    let steps = t.count in
    let oldest = (t.head - t.count + t.depth) mod t.depth in
    let node_cls = Array.make (steps * t.n_nodes) 0 in
    let chan_valid = Array.make (steps * t.chan_words) 0 in
    let chan_stop = Array.make (steps * t.chan_words) 0 in
    for i = 0 to steps - 1 do
      let slot = (oldest + i) mod t.depth in
      Array.blit t.trace_cls (slot * t.n_nodes) node_cls (i * t.n_nodes)
        t.n_nodes;
      Array.blit t.trace_valid (slot * t.chan_words) chan_valid
        (i * t.chan_words) t.chan_words;
      Array.blit t.trace_stop (slot * t.chan_words) chan_stop
        (i * t.chan_words) t.chan_words
    done;
    Some
      {
        t0 = t.cycles - steps;
        steps;
        node_names = Array.copy t.node_names;
        chan_labels = Array.copy t.chan_labels;
        node_cls;
        chan_valid;
        chan_stop;
        chan_words = t.chan_words;
      }
  end

let trace_valid_at tr ~step ~chan =
  tr.chan_valid.((step * tr.chan_words) + (chan / 63))
  land (1 lsl (chan mod 63))
  <> 0

let trace_stop_at tr ~step ~chan =
  tr.chan_stop.((step * tr.chan_words) + (chan / 63)) land (1 lsl (chan mod 63))
  <> 0

let trace_cls_at tr ~step ~node =
  tr.node_cls.((step * Array.length tr.node_names) + node)

(* --- VCD export ---------------------------------------------------- *)

(* Signals in identifier order: a [valid] and a [stop] bit per channel,
   then a [fire] bit per node (stall class 0). *)
let vcd_of_trace ?(timescale = "1ns") tr =
  let bit name f =
    {
      Vcd.vars = [ (1, name) ];
      sample = (fun step -> Some (if f step then 1 else 0));
      render = (fun v -> [ string_of_int v ]);
    }
  in
  let channel c label =
    [
      bit (label ^ "_valid") (fun step -> trace_valid_at tr ~step ~chan:c);
      bit (label ^ "_stop") (fun step -> trace_stop_at tr ~step ~chan:c);
    ]
  in
  let node n name = bit (name ^ "_fire") (fun step -> trace_cls_at tr ~step ~node:n = 0) in
  Vcd.dump ~date:"telemetry export" ~version:"wirepipe telemetry" ~scope:"telemetry"
    ~timescale ~t0:tr.t0 ~steps:tr.steps
    (List.concat (Array.to_list (Array.mapi channel tr.chan_labels))
    @ Array.to_list (Array.mapi node tr.node_names))

(* --- Chrome trace_event export ------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Stable chrome://tracing color names per stall class. *)
let cls_cname = function
  | 0 -> "good" (* fired *)
  | 1 -> "terrible" (* oracle-skip: the recoverable loss *)
  | 2 -> "bad" (* missing-input *)
  | 3 -> "thread_state_iowait" (* output-backpressure *)
  | _ -> "olive" (* link-credit *)

let cls_code_name = function
  | 0 -> "fired"
  | 1 -> "oracle-skip"
  | 2 -> "missing-input"
  | 3 -> "output-backpressure"
  | _ -> "link-credit"

let chrome_of_trace tr =
  let n_nodes = Array.length tr.node_names in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"wirepipe\"}}";
  Array.iteri
    (fun n name ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%S}}"
           n (json_escape name)))
    tr.node_names;
  (* One span per maximal run of identical stall class per node. *)
  for n = 0 to n_nodes - 1 do
    let step = ref 0 in
    while !step < tr.steps do
      let code = trace_cls_at tr ~step:!step ~node:n in
      let start = !step in
      while !step < tr.steps && trace_cls_at tr ~step:!step ~node:n = code do
        incr step
      done;
      Buffer.add_string buf
        (Printf.sprintf
           ",\n{\"name\":%S,\"cat\":\"stall\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"cname\":%S}"
           (cls_code_name code) n (tr.t0 + start) (!step - start)
           (cls_cname code))
    done
  done;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

type report = {
  summary : summary;
  event_trace : trace option;
}

let report_of t ~link = { summary = summary_of t ~link; event_trace = trace t }
