module Token = Wp_lis.Token

type channel_trace = {
  wave_label : string;
  tokens : int Token.t list;
}

let capture_sim sim =
  let net = Sim.network sim in
  List.map
    (fun c ->
      let src_node, src_port = Network.channel_src net c in
      {
        wave_label = Network.channel_label net c;
        tokens = Sim.output_trace sim src_node src_port;
      })
    (Network.channels net)

let capture engine = capture_sim (Sim.of_engine engine)

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as l -> if n = 0 then l else drop (n - 1) rest

let ascii ?(from_cycle = 0) ?(cycles = 40) ?(fmt = string_of_int) traces =
  let window t = take cycles (drop from_cycle t.tokens) in
  (* Column width: widest rendered token in the window, at least 1. *)
  let rendered =
    List.map
      (fun t ->
        ( t.wave_label,
          List.map
            (function Token.Void -> "." | Token.Valid v -> fmt v)
            (window t) ))
      traces
  in
  let cell_width =
    List.fold_left
      (fun acc (_, cells) ->
        List.fold_left (fun acc c -> max acc (String.length c)) acc cells)
      1 rendered
  in
  let label_width =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 0 rendered
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (label, cells) ->
      Buffer.add_string buf (Printf.sprintf "%-*s " label_width label);
      List.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf "|%*s" cell_width c))
        cells;
      Buffer.add_string buf "|\n")
    rendered;
  Buffer.contents buf

(* --- VCD ------------------------------------------------------------ *)

let binary_of_int width v =
  String.init width (fun i ->
      let bit = width - 1 - i in
      if (v lsr bit) land 1 = 1 then '1' else '0')

(* One signal per channel: its data word and valid bit are written
   together whenever the token changes. *)
let vcd ?(timescale = "1ns") traces =
  let signal t =
    let tokens = Array.of_list t.tokens in
    {
      Vcd.vars = [ (32, t.wave_label ^ "_data"); (1, t.wave_label ^ "_valid") ];
      sample = (fun cycle -> if cycle < Array.length tokens then Some tokens.(cycle) else None);
      render =
        (function
        | Token.Valid v -> [ "b" ^ binary_of_int 32 (v land 0xFFFFFFFF); "1" ]
        | Token.Void -> [ "bx"; "0" ]);
    }
  in
  let horizon = List.fold_left (fun acc t -> max acc (List.length t.tokens)) 0 traces in
  Vcd.dump ~date:"reproduction run" ~version:"wirepipe" ~scope:"netlist" ~timescale ~t0:0
    ~steps:horizon (List.map signal traces)
