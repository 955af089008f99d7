(* Golden generator for the topology module: pins the canonical
   generated instances — node/channel counts, relay-station totals, the
   Howard-MCR rate, the static firing word of block 0, a digest of the
   whole firing table and a digest of every value the blocks emit over
   a traced run — so any change to the generator's seeding, edge order,
   adapter placement, block arithmetic or firing table shows up as a
   diff against topology.expected. *)

module Topology = Wp_topo.Topology
module Network = Wp_sim.Network
module Static = Wp_sim.Static
module Shell = Wp_lis.Shell
module Token = Wp_lis.Token
module Process = Wp_lis.Process
module Cycle_ratio = Wp_graph.Cycle_ratio

let ratio r = Format.asprintf "%a" Cycle_ratio.ratio_pp r

(* Cycles of the traced run behind the data digest. *)
let data_cycles = 256

(* MD5 over every output port's token stream, node by node, port by
   port: a valid token prints its value, a void one prints [-]. *)
let data_digest net =
  let st = Static.create ~capacity:2 ~record_traces:true ~mode:Shell.Plain net in
  ignore (Static.run ~max_cycles:data_cycles st);
  let b = Buffer.create 4096 in
  for n = 0 to Network.node_count net - 1 do
    for q = 0 to Process.n_outputs (Network.node_process net n) - 1 do
      Printf.bprintf b "%d.%d:" n q;
      List.iter
        (function
          | Token.Valid v -> Printf.bprintf b "%d," v
          | Token.Void -> Buffer.add_string b "-,")
        (Static.output_trace st n q);
      Buffer.add_char b '\n'
    done
  done;
  (Static.cycles st, Digest.to_hex (Digest.string (Buffer.contents b)))

(* MD5 over every row of the capacity-2 firing table: the fired,
   starved and blocked shells and the delivering channels.  A row lists
   no starved shells: they are those it neither fires nor blocks. *)
let table_digest net =
  let _, _, rows = Static.tables ~capacity:2 net in
  let b = Buffer.create 4096 in
  let ids a =
    Array.iter (Printf.bprintf b "%d,") a;
    Buffer.add_char b '|'
  in
  Array.iter
    (fun tc ->
      ids tc.Static.tc_fired;
      ids
        (Array.of_list
           (List.filter
              (fun n -> not (Array.mem n tc.tc_fired || Array.mem n tc.tc_blocked))
              (Network.nodes net)));
      ids tc.tc_blocked;
      ids tc.tc_deliver;
      Buffer.add_char b '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin name =
  let spec =
    match Topology.of_string name with
    | Ok t -> t
    | Error e -> failwith (Printf.sprintf "%s: %s" name e)
  in
  let net = Topology.build spec in
  let rs_total =
    List.fold_left
      (fun acc c -> acc + Network.relay_stations net c)
      0 (Network.channels net)
  in
  Printf.printf "== %s ==\n" name;
  Printf.printf "digest %s\n" (Topology.digest spec);
  Printf.printf "nodes %d  channels %d  rs-total %d\n"
    (Network.node_count net) (Network.channel_count net) rs_total;
  Printf.printf "mcr %s\n" (ratio (Topology.mcr net));
  let st = Static.create ~capacity:2 ~mode:Shell.Plain net in
  Printf.printf "transient %d  period %d  rate %s\n" (Static.transient st)
    (Static.period st)
    (ratio (Static.rate st 0));
  let word = Static.word st 0 in
  Printf.printf "word[b0] %s\n"
    (String.init (Array.length word) (fun i -> if word.(i) then '1' else '0'));
  Printf.printf "table %s\n" (table_digest net);
  let cycles, hex = data_digest net in
  Printf.printf "data %d cycles %s\n\n" cycles hex

let () =
  List.iter pin
    [ "ring:16"; "mesh:4x4"; "torus:3x3"; "rand:64:seed0"; "torus:3x3:adapt" ]
