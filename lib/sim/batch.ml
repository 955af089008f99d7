(* Many independent runs in one call, each a routed [Sim]. *)

module Process = Wp_lis.Process

type lane = {
  net : Network.t;
  mode : Wp_lis.Shell.mode;
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

type t = { lanes : lane array; sims : Sim.t array }

let create ?record_traces lanes =
  {
    lanes;
    sims =
      Array.map
        (fun ln ->
          Sim.create ~engine:Sim.Fast ~capacity:ln.capacity ?record_traces ~fault:ln.fault
            ~mode:ln.mode ln.net)
        lanes;
  }

let run t =
  Array.map2
    (fun ln sim -> Sim.run ~cancel:ln.cancel ~max_cycles:ln.max_cycles sim)
    t.lanes t.sims

let n_lanes t = Array.length t.lanes
let lane_cycles t ~lane = Sim.cycles t.sims.(lane)
