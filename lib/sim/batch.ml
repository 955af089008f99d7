(* Composite batch kernel: grouping, partition and dispatch.

   The stepping lives in the two compiled kernels; this module only
   decides which lanes share which kernel instance, and it is the one
   place that picks the table replay:

   - lanes are grouped by topology {!signature}, and each signature is
     partitioned on its own;
   - Plain-mode, unfaulted lanes are {e statically schedulable}: their
     firing pattern is a pure function of (topology, per-channel
     relay-station counts, FIFO capacity) — a marked graph — so lanes
     agreeing on those become one {!Static} replay instance over the
     schedule {!Static.tables} memoises;
   - each Oracle-mode, unfaulted lane becomes a one-lane {!Static}
     replay of transitions learnt as runs meet them: Oracle lanes fire
     on their own data, so they are never in lockstep;
   - the rest (faults, and any group whose recorded table has no
     periodic steady state) become one many-lane {!Fast} instance.

   Both kernels step lanes exactly as their solo runs do, so every lane
   is byte-identical to running it alone. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token
module Process = Wp_lis.Process

type lane = Fast.lane = {
  net : Network.t;
  mode : Shell.mode;
  capacity : int;
  fault : Fault.spec;
  max_cycles : int;
  cancel : Wp_util.Cancel.t;
}

exception Unbatchable of string

let unbatchable fmt = Printf.ksprintf (fun s -> raise (Unbatchable s)) fmt

(* What two lanes must agree on to share one compiled kernel: node
   count, per-node port shapes and channel endpoints.  Relay-station
   counts and capacity are deliberately absent — they vary per lane
   (Fast) or per replay group.  This is also the key
   [Topology.signature] exposes so sweep drivers can predict lane
   grouping. *)
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

type kernel = Dyn of Fast.t | Rep of Static.t

(* One kernel instance and the caller's lane id of each of its lanes. *)
type sub = { kernel : kernel; ids : int array }

type t = {
  lanes : lane array;
  subs : sub array;
  loc : (int * int) array; (* caller's lane id -> (sub, kernel lane) *)
}

(* Group [ids] by [key] in first-appearance order. *)
let group key ids =
  let order = ref [] and by = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let k = key l in
      match Hashtbl.find_opt by k with
      | None ->
        order := k :: !order;
        Hashtbl.add by k [ l ]
      | Some ls -> Hashtbl.replace by k (l :: ls))
    ids;
  List.rev_map (fun k -> List.rev (Hashtbl.find by k)) !order

(* Partition one signature's lanes into Plain replay groups keyed by
   (capacity, relay stations per channel), one-lane Oracle replays and
   one dynamic instance. *)
let partition ~record_traces lanes ids =
  let replayed l = Fault.is_none lanes.(l).fault in
  let plain l = lanes.(l).mode = Shell.Plain in
  let n_chans = Network.channel_count lanes.(List.hd ids).net in
  let key l =
    ( lanes.(l).capacity,
      Array.init n_chans (fun c -> Network.relay_stations lanes.(l).net c) )
  in
  let dyn = ref (List.filter (fun l -> not (replayed l)) ids) in
  let reps =
    List.filter_map
      (fun g ->
        let ids = Array.of_list g in
        match
          Static.create_lanes ~record_traces ~capacity:lanes.(ids.(0)).capacity
            (Array.map (fun l -> lanes.(l).net) ids)
        with
        | r -> Some { kernel = Rep r; ids }
        | exception Static.Unschedulable _ ->
          dyn := List.merge compare g !dyn;
          None)
      (group key (List.filter (fun l -> replayed l && plain l) ids))
    @ List.map
        (fun l ->
          let r =
            Static.oracle_lane ~record_traces ~capacity:lanes.(l).capacity lanes.(l).net
          in
          { kernel = Rep r; ids = [| l |] })
        (List.filter (fun l -> replayed l && not (plain l)) ids)
  in
  match !dyn with
  | [] -> reps
  | ds ->
    let ids = Array.of_list ds in
    { kernel = Dyn (Fast.create_lanes ~record_traces (Array.map (fun l -> lanes.(l)) ids)); ids }
    :: reps

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
  let subs =
    Array.of_list
      (List.concat_map (partition ~record_traces lanes)
         (group (fun l -> signature lanes.(l).net) (List.init n_lanes Fun.id)))
  in
  let loc = Array.make n_lanes (0, 0) in
  Array.iteri (fun s sub -> Array.iteri (fun i l -> loc.(l) <- (s, i)) sub.ids) subs;
  { lanes; subs; loc }

let run t =
  let out = Array.make (Array.length t.lanes) None in
  Array.iter
    (fun s ->
      let budgets = Array.map (fun l -> t.lanes.(l).max_cycles) s.ids in
      let cancels = Array.map (fun l -> t.lanes.(l).cancel) s.ids in
      let o =
        match s.kernel with
        | Dyn d -> Fast.run_lanes d ~budgets ~cancels
        | Rep r -> Static.run_lanes r ~budgets ~cancels
      in
      Array.iteri (fun i l -> out.(l) <- Some o.(i)) s.ids)
    t.subs;
  Array.map Option.get out

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let n_lanes t = Array.length t.lanes

let locate t lane =
  let s, i = t.loc.(lane) in
  (t.subs.(s).kernel, i)

let lane_cycles t ~lane =
  match locate t lane with
  | Dyn d, i -> Fast.cycles ~lane:i d
  | Rep r, i -> Static.cycles ~lane:i r

let outcome t ~lane =
  match locate t lane with
  | Dyn d, i -> Fast.outcome d ~lane:i
  | Rep r, i -> Static.outcome r ~lane:i

let network t ~lane = t.lanes.(lane).net

let delivered t ~lane c =
  match locate t lane with
  | Dyn d, i -> Fast.delivered ~lane:i d c
  | Rep r, i -> Static.delivered ~lane:i r c

let fault_injections t ~lane =
  match locate t lane with
  | Dyn d, i -> Fast.fault_injections ~lane:i d
  | Rep _, _ -> 0

let node_stats t ~lane n =
  match locate t lane with
  | Dyn d, i -> Fast.node_stats ~lane:i d n
  | Rep r, i -> Static.node_stats ~lane:i r n

let output_trace t ~lane node port =
  match locate t lane with
  | Dyn d, i -> Fast.output_trace ~lane:i d node port
  | Rep r, i -> Static.output_trace ~lane:i r node port
