module Sim = Wp_sim.Sim
module Static = Wp_sim.Static
module Engine = Wp_sim.Engine
module Network = Wp_sim.Network
module Fault = Wp_sim.Fault
module Telemetry = Wp_sim.Telemetry
module Shell = Wp_lis.Shell
module Run_spec = Wp_core.Run_spec
module Protect = Wp_core.Protect
module Pool = Wp_util.Pool
module Shrink = Wp_util.Shrink
module Cycle_ratio = Wp_graph.Cycle_ratio

type scenario = { topo : Topology.spec; spec : Run_spec.t }

type result = {
  r_scenario : scenario;
  r_blocks : int;
  r_channels : int;
  r_outcome : Engine.outcome;
  r_cycles : int;
  r_firings : int;
  r_bound : Cycle_ratio.ratio;
  r_word_rate : Cycle_ratio.ratio option;
  r_word_ok : bool option;
  r_disagreements : string list;
  r_telemetry : Telemetry.summary option;
  r_error : string option;
}

let default_budget = 2048

let budget spec =
  match spec.Run_spec.max_cycles with Some n -> n | None -> default_budget

let expand ~topos ~seeds ~spec =
  if seeds < 1 then invalid_arg "Sweep.expand: seeds < 1";
  List.concat_map
    (fun t ->
      List.init seeds (fun k ->
          { topo = Topology.with_seed t (t.Topology.seed + k); spec }))
    topos

(* --------------------------------------------------------------- *)
(* Replay / repro                                                   *)
(* --------------------------------------------------------------- *)

let replay_command sc =
  let spec = sc.spec in
  let b = Buffer.create 96 in
  Printf.bprintf b "wp_cli sweep --topology %s --seeds 1 --engine %s"
    (Topology.to_string sc.topo)
    (Sim.kind_to_string spec.Run_spec.engine);
  if spec.capacity <> 2 then Printf.bprintf b " --capacity %d" spec.capacity;
  (match spec.max_cycles with
  | Some n -> Printf.bprintf b " --max-cycles %d" n
  | None -> ());
  if not (Fault.is_none spec.fault) then
    Printf.bprintf b " --fault '%s' --fault-seed %d"
      (Fault.to_string spec.fault)
      spec.fault.Fault.seed;
  if not (Protect.is_none spec.protect) then Buffer.add_string b " --protect all";
  if spec.telemetry.Telemetry.counters then Buffer.add_string b " --stall-report";
  if spec.telemetry.Telemetry.trace_depth > 0 then
    Printf.bprintf b " --trace-depth %d" spec.telemetry.Telemetry.trace_depth;
  Buffer.contents b

let sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '-')
    s

let write_repro ?dir sc ~reason =
  let name =
    sanitize
      (Printf.sprintf "sweep-%s-%s" (Topology.to_string sc.topo)
         (Run_spec.digest sc.spec))
  in
  Shrink.write_repro ?dir ~name
    [
      ("topology", Topology.to_sexp sc.topo);
      ("spec", Shrink.Sexp.atom (Run_spec.digest sc.spec));
      ("reason", Shrink.Sexp.atom reason);
      ("replay", Shrink.Sexp.atom (replay_command sc));
    ]

(* --------------------------------------------------------------- *)
(* One engine's observable stats                                    *)
(* --------------------------------------------------------------- *)

type view = {
  v_outcome : Engine.outcome;
  v_cycles : int;
  v_firings : int array; (* per node *)
  v_delivered : int array; (* per channel *)
}

let outcome_str = function
  | Engine.Halted c -> Printf.sprintf "halted@%d" c
  | Engine.Deadlocked c -> Printf.sprintf "deadlocked@%d" c
  | Engine.Exhausted c -> Printf.sprintf "exhausted@%d" c
  | Engine.Cancelled c -> Printf.sprintf "cancelled@%d" c

(* [b] is the checking engine, [a] the primary; any difference is a
   cross-engine bug worth a repro file. *)
let compare_views ~who a b =
  let ds = ref [] in
  let add fmt = Printf.ksprintf (fun s -> ds := s :: !ds) fmt in
  if a.v_outcome <> b.v_outcome then
    add "%s: outcome %s vs %s" who (outcome_str a.v_outcome)
      (outcome_str b.v_outcome);
  if a.v_cycles <> b.v_cycles then
    add "%s: cycles %d vs %d" who a.v_cycles b.v_cycles;
  Array.iteri
    (fun n f ->
      if f <> b.v_firings.(n) then
        add "%s: node %d firings %d vs %d" who n f b.v_firings.(n))
    a.v_firings;
  Array.iteri
    (fun c d ->
      if d <> b.v_delivered.(c) then
        add "%s: channel %d delivered %d vs %d" who c d b.v_delivered.(c))
    a.v_delivered;
  List.rev !ds

(* One engine's observables, read through its accessors. *)
let view net ~outcome ~cycles ~stats ~delivered =
  {
    v_outcome = outcome;
    v_cycles = cycles;
    v_firings =
      Array.init (Network.node_count net) (fun n -> (stats n).Shell.firings);
    v_delivered = Array.init (Network.channel_count net) delivered;
  }

(* --------------------------------------------------------------- *)
(* Primary execution paths                                          *)
(* --------------------------------------------------------------- *)

type prim = { p_view : view; p_tele : Telemetry.summary option }

let run_solo ~engine sc net =
  let spec = sc.spec in
  let sim =
    Sim.create ~engine ~capacity:spec.Run_spec.capacity ~fault:spec.fault
      ~telemetry:spec.telemetry ~mode:Shell.Plain net
  in
  let outcome = Sim.run ~max_cycles:(budget spec) sim in
  let tele =
    Option.map
      (fun (r : Telemetry.report) -> r.Telemetry.summary)
      (Sim.telemetry_report sim)
  in
  {
    p_view =
      view net ~outcome ~cycles:(Sim.cycles sim) ~stats:(Sim.node_stats sim)
        ~delivered:(Sim.delivered sim);
    p_tele = tele;
  }

(* --------------------------------------------------------------- *)
(* Replay and word-rate check                                       *)
(* --------------------------------------------------------------- *)

(* The replay check of a schedulable scenario: a solo table replay to
   the budget, for comparison with the primary, plus an exact measure
   of sustained throughput.  Block 0's firing count over one full
   period against the next must advance by exactly its word's ones
   count ({!word_rate_ok} also holds the word's rate against the MCR
   bound).  Both checkpoints are table arithmetic, read from the word
   without stepping past the budget: between them block 0 fires as the
   word's first cycles say, for as many cycles as the replay ran there.  A
   replay still running at the budget would run on through both: generated
   blocks never halt, and a schedule that fires at all never idles for a
   quiescence window.  Returns the view and [(rate, sustained)]. *)
let replay_check sc net =
  let st = Static.create ~capacity:sc.spec.Run_spec.capacity ~mode:Shell.Plain net in
  let outcome = Static.run ~max_cycles:(budget sc.spec) st in
  let word = Static.word st 0 in
  let t1 = Static.transient st + Static.period st in
  let finish = match outcome with Engine.Exhausted _ -> max_int | _ -> Static.cycles st in
  let ran = max 0 (min (t1 + Static.period st) finish - t1) in
  let ones w = Array.fold_left (fun a f -> if f then a + 1 else a) 0 w in
  ( view net ~outcome ~cycles:(Static.cycles st) ~stats:(Static.node_stats st)
      ~delivered:(Static.delivered st),
    (Static.rate st 0, ones (Array.sub word 0 ran) = ones word) )

(* Millo & de Simone's claim at generated-topology scale: block 0
   sustains its balanced firing word over a full period, and the word's
   rate is the critical cycle ratio of the capacity-extended marked
   graph. *)
let word_rate_ok ~bound ~rate ~sustained =
  sustained && Cycle_ratio.ratio_compare rate bound = 0

(* --------------------------------------------------------------- *)
(* Classification                                                   *)
(* --------------------------------------------------------------- *)

let protected_spec spec = not (Protect.is_none spec.Run_spec.protect)

let apply_protection spec net =
  if protected_spec spec then
    List.iter
      (fun c ->
        Network.set_protection net c (Some { Network.window = 0; timeout = 0 }))
      (Network.channels net)

let schedulable spec =
  spec.Run_spec.capacity >= 1
  && Fault.is_none spec.fault
  && (not (protected_spec spec))
  && Telemetry.is_off spec.telemetry

(* Reference replays are the costliest check; bound them to small nets
   and a deterministic quarter of the seeds (always including the
   family's base seed 0). *)
let check_ref sc net =
  Network.node_count net <= 128 && sc.topo.Topology.seed mod 4 = 0

(* --------------------------------------------------------------- *)
(* One scenario                                                     *)
(* --------------------------------------------------------------- *)

let failed sc e =
  {
    r_scenario = sc;
    r_blocks = 0;
    r_channels = 0;
    r_outcome = Engine.Deadlocked 0;
    r_cycles = 0;
    r_firings = 0;
    r_bound = Cycle_ratio.make_ratio 0 1;
    r_word_rate = None;
    r_word_ok = None;
    r_disagreements = [];
    r_telemetry = None;
    r_error = Some e;
  }

let run_scenario ~check_engines sc =
  match
    let net = Topology.build sc.topo in
    apply_protection sc.spec net;
    (net, run_solo ~engine:sc.spec.Run_spec.engine sc net)
  with
  | exception e -> failed sc (Printexc.to_string e)
  | net, p ->
    let bound = Topology.mcr ~capacity:sc.spec.Run_spec.capacity net in
    let disagreements = ref [] in
    let err = ref None in
    let word = ref None in
    if check_engines then begin
      (if schedulable sc.spec then
         match replay_check sc net with
         | v, w ->
           disagreements := compare_views ~who:"static" p.p_view v;
           word := Some w
         | exception e ->
           err := Some (Printf.sprintf "static check: %s" (Printexc.to_string e)));
      if sc.spec.Run_spec.engine <> Sim.Reference && check_ref sc net then
        match run_solo ~engine:Sim.Reference sc net with
        | q ->
          disagreements :=
            !disagreements @ compare_views ~who:"ref" p.p_view q.p_view
        | exception e ->
          err := Some (Printf.sprintf "ref check: %s" (Printexc.to_string e))
    end;
    {
      r_scenario = sc;
      r_blocks = Network.node_count net;
      r_channels = Network.channel_count net;
      r_outcome = p.p_view.v_outcome;
      r_cycles = p.p_view.v_cycles;
      r_firings = p.p_view.v_firings.(0);
      r_bound = bound;
      r_word_rate = Option.map fst !word;
      r_word_ok =
        Option.map (fun (rate, sustained) -> word_rate_ok ~bound ~rate ~sustained) !word;
      r_disagreements = !disagreements;
      r_telemetry = p.p_tele;
      r_error = !err;
    }

let run ?jobs ?(check_engines = true) scenarios =
  Pool.with_pool ?jobs (fun pool -> Pool.map pool (run_scenario ~check_engines) scenarios)

let ok r =
  r.r_error = None && r.r_disagreements = [] && r.r_word_ok <> Some false

(* --------------------------------------------------------------- *)
(* Report                                                           *)
(* --------------------------------------------------------------- *)

let render results =
  let fams = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun r ->
      let f = Topology.family r.r_scenario.topo in
      match Hashtbl.find_opt fams f with
      | None ->
        order := f :: !order;
        Hashtbl.add fams f [ r ]
      | Some rs -> Hashtbl.replace fams f (r :: rs))
    results;
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-24s %7s %7s %5s %10s %10s %7s %6s %s\n" "topology"
    "blocks" "chans" "scen" "bound" "measured" "agree" "word" "notes";
  List.iter
    (fun f ->
      let rs = List.rev (Hashtbl.find fams f) in
      let oks = List.filter (fun r -> r.r_error = None) rs in
      let blocks = match oks with r :: _ -> r.r_blocks | [] -> 0 in
      let chans = match oks with r :: _ -> r.r_channels | [] -> 0 in
      let bound =
        match oks with
        | r :: _ -> Format.asprintf "%a" Cycle_ratio.ratio_pp r.r_bound
        | [] -> "-"
      in
      let thpt =
        let xs =
          List.filter_map
            (fun r ->
              if r.r_cycles > 0 then
                Some (float_of_int r.r_firings /. float_of_int r.r_cycles)
              else None)
            oks
        in
        match xs with
        | [] -> "-"
        | _ ->
          Printf.sprintf "%.4f"
            (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))
      in
      let agree =
        Printf.sprintf "%d/%d"
          (List.length (List.filter (fun r -> r.r_disagreements = []) oks))
          (List.length oks)
      in
      let word =
        let checks = List.filter_map (fun r -> r.r_word_ok) oks in
        if checks = [] then "-"
        else if List.for_all Fun.id checks then "ok"
        else "FAIL"
      in
      let notes =
        let errs = List.length rs - List.length oks in
        if errs > 0 then Printf.sprintf "%d error(s)" errs else ""
      in
      Printf.bprintf b "%-24s %7d %7d %5d %10s %10s %7s %6s %s\n" f blocks
        chans (List.length rs) bound thpt agree word notes;
      let tele =
        List.fold_left
          (fun acc r ->
            match r.r_telemetry with
            | Some s -> Telemetry.merge_opt acc s
            | None -> acc)
          None oks
      in
      match tele with
      | Some s ->
        Printf.bprintf b "\nstall attribution — %s\n%s\n" f (Telemetry.to_table s)
      | None -> ())
    (List.rev !order);
  Buffer.contents b
