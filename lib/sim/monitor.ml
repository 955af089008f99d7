module Shell = Wp_lis.Shell
module Process = Wp_lis.Process

type node_report = {
  node_name : string;
  firings : int;
  stalls : int;
  input_starved : int;
  output_blocked : int;
  port_utilization : (string * float) array;
  port_dropped : (string * int) array;
}

type channel_report = {
  channel_label : string;
  relay_stations : int;
  delivered : int;
  channel_throughput : float;
}

type report = {
  cycles : int;
  nodes : node_report list;
  channels : channel_report list;
}

let collect_sim sim =
  let net = Sim.network sim and cycles = Sim.cycles sim in
  let node_report n =
    let proc = Network.node_process net n in
    let stats = Sim.node_stats sim n in
    let firings = stats.Shell.firings in
    let util p count =
      ( proc.Process.input_names.(p),
        if firings = 0 then 0.0 else float_of_int count /. float_of_int firings )
    in
    {
      node_name = proc.Process.name;
      firings;
      stalls = stats.Shell.stalls;
      input_starved = stats.Shell.input_starved;
      output_blocked = stats.Shell.output_blocked;
      port_utilization = Array.mapi util stats.Shell.required_counts;
      port_dropped =
        Array.mapi (fun p d -> (proc.Process.input_names.(p), d)) stats.Shell.dropped;
    }
  in
  let channel_report c =
    let delivered = Sim.delivered sim c in
    {
      channel_label = Network.channel_label net c;
      relay_stations = Network.relay_stations net c;
      delivered;
      channel_throughput =
        (if cycles = 0 then 0.0 else float_of_int delivered /. float_of_int cycles);
    }
  in
  {
    cycles;
    nodes = List.map node_report (Network.nodes net);
    channels = List.map channel_report (Network.channels net);
  }

let collect engine = collect_sim (Sim.of_engine engine)

let node_throughput report name =
  let node = List.find (fun n -> n.node_name = name) report.nodes in
  if report.cycles = 0 then 0.0
  else float_of_int node.firings /. float_of_int report.cycles

let utilization report ~node ~port =
  let n = List.find (fun n -> n.node_name = node) report.nodes in
  let _, u = Array.to_list n.port_utilization |> List.find (fun (p, _) -> p = port) in
  u

let to_table report =
  let module T = Wp_util.Text_table in
  let nodes =
    T.create
      ~columns:
        [
          ("node", T.Left);
          ("firings", T.Right);
          ("stalls", T.Right);
          ("starved", T.Right);
          ("blocked", T.Right);
        ]
  in
  List.iter
    (fun n ->
      T.add_row nodes
        [
          n.node_name;
          string_of_int n.firings;
          string_of_int n.stalls;
          string_of_int n.input_starved;
          string_of_int n.output_blocked;
        ])
    report.nodes;
  let chans =
    T.create
      ~columns:
        [ ("channel", T.Left); ("RS", T.Right); ("delivered", T.Right); ("Th", T.Right) ]
  in
  List.iter
    (fun c ->
      T.add_row chans
        [
          c.channel_label;
          string_of_int c.relay_stations;
          string_of_int c.delivered;
          Printf.sprintf "%.3f" c.channel_throughput;
        ])
    report.channels;
  Printf.sprintf "cycles: %d\n%s\n%s" report.cycles (T.render nodes) (T.render chans)
