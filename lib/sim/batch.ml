(* Batched simulation: a per-lane router.

   Each lane gets a one-lane kernel of its own, and this module is the
   one place that picks the table replay: an unfaulted lane replays
   ({!Static}: the memoised firing table in Plain mode, transitions
   learnt as runs meet them in Oracle mode), and a faulted lane, or one
   the replay refuses (capacity 0, link protection, a Plain recording
   with no periodic steady state), runs the handshake ({!Fast}).  Runs
   of one structure share its schedule through the replay's memos, so
   lanes need no lockstep to share it.  Each kernel steps its lane
   exactly as a solo run does. *)

module Shell = Wp_lis.Shell
module Token = Wp_lis.Token
module Process = Wp_lis.Process

type lane = {
  net : Network.t;
  mode : Shell.mode;
  capacity : int;
  fault : Fault.spec;
  max_cycles : int;
  cancel : Wp_util.Cancel.t;
}

(* Node count, per-node port shapes and channel endpoints: the topology
   without its relay-station counts. *)
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

type t = {
  lanes : lane array;
  kernels : kernel array;
  outcomes : Engine.outcome option array;
}

let route ~record_traces ln =
  let handshake () =
    Dyn
      (Fast.create ~capacity:ln.capacity ~record_traces ~fault:ln.fault ~mode:ln.mode
         ln.net)
  in
  if Fault.is_none ln.fault then
    match Static.create ~capacity:ln.capacity ~record_traces ~mode:ln.mode ln.net with
    | r -> Rep r
    | exception Static.Unschedulable _ -> handshake ()
  else handshake ()

let create ?(record_traces = false) lanes =
  {
    lanes;
    kernels = Array.map (route ~record_traces) lanes;
    outcomes = Array.make (Array.length lanes) None;
  }

let run t =
  Array.mapi
    (fun l ln ->
      let cancel = ln.cancel and max_cycles = ln.max_cycles in
      let o =
        match t.kernels.(l) with
        | Dyn d -> Fast.run ~cancel ~max_cycles d
        | Rep r -> Static.run ~cancel ~max_cycles r
      in
      t.outcomes.(l) <- Some o;
      o)
    t.lanes

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let n_lanes t = Array.length t.lanes
let outcome t ~lane = t.outcomes.(lane)
let network t ~lane = t.lanes.(lane).net

let lane_cycles t ~lane =
  match t.kernels.(lane) with Dyn d -> Fast.cycles d | Rep r -> Static.cycles r

let delivered t ~lane c =
  match t.kernels.(lane) with Dyn d -> Fast.delivered d c | Rep r -> Static.delivered r c

let fault_injections t ~lane =
  match t.kernels.(lane) with Dyn d -> Fast.fault_injections d | Rep _ -> 0

let node_stats t ~lane n =
  match t.kernels.(lane) with Dyn d -> Fast.node_stats d n | Rep r -> Static.node_stats r n

let output_trace t ~lane node port =
  match t.kernels.(lane) with
  | Dyn d -> Fast.output_trace d node port
  | Rep r -> Static.output_trace r node port
