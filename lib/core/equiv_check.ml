module Datapath = Wp_soc.Datapath
module Network = Wp_sim.Network
module Sim = Wp_sim.Sim
module Engine = Wp_sim.Engine
module Fault = Wp_sim.Fault
module Shell = Wp_lis.Shell
module Trace = Wp_lis.Trace
module Process = Wp_lis.Process

module Link = Wp_sim.Link

type verdict = {
  equivalent : bool;
  ports_checked : int;
  events_compared : int;
  first_mismatch : string option;
  golden_outcome : Engine.outcome;
  wp_outcome : Engine.outcome;
  recovery : Link.summary option;
}

(* Run one system and collect, per "BLOCK.port", the output trace (plus
   the link-layer summary when a protection policy is active).  All run
   parameters come in through one [Run_spec.t]. *)
let record_run ~spec ~machine ~mode ~config program =
  let protect =
    if Protect.is_none spec.Run_spec.protect then None
    else Some (Protect.to_fun spec.Run_spec.protect)
  in
  let max_cycles =
    match spec.Run_spec.max_cycles with Some n -> n | None -> 2_000_000
  in
  let dp = Datapath.build ?protect ~machine ~rs:(Config.to_fun config) program in
  let sim =
    Sim.create ~engine:spec.Run_spec.engine ~capacity:spec.Run_spec.capacity
      ~record_traces:true ~fault:spec.Run_spec.fault
      ~telemetry:spec.Run_spec.telemetry ~mode dp.Datapath.network
  in
  let outcome = Sim.run ~max_cycles sim in
  let net = dp.Datapath.network in
  let ports =
    List.concat_map
      (fun node ->
        let proc = Network.node_process net node in
        List.init
          (Array.length proc.Process.output_names)
          (fun p ->
            ( proc.Process.name ^ "." ^ proc.Process.output_names.(p),
              Sim.output_trace sim node p )))
      (Network.nodes net)
  in
  (outcome, ports, Sim.link_summary sim)

let halted = function Engine.Halted _ -> true | _ -> false

let check_spec ~spec ~machine ~mode ~config program =
  let golden_outcome, golden, _ =
    (* The reference run is always clean and unprotected: strip the
       perturbing fields but keep the engine/budget/capacity so the two
       runs remain comparable. *)
    record_run
      ~spec:
        {
          spec with
          Run_spec.fault = Fault.none;
          protect = Protect.none;
          telemetry = Wp_sim.Telemetry.off;
        }
      ~machine ~mode:Shell.Plain ~config:Config.zero program
  in
  let wp_outcome, wp, recovery =
    record_run ~spec ~machine ~mode ~config program
  in
  let ports_checked = ref 0 and events = ref 0 in
  (* A value mismatch is pinned to the port whose tau-filtered streams
     diverge at the {e earliest} informative index — under fault
     injection that names the consumer of the faulted channel rather
     than whichever port happens to come first in node order. *)
  let best_port = ref None and best_index = ref max_int in
  (* If no value diverges but the WP run stops short (deadlock after a
     clean prefix — e.g. a dropped token starves a loop), blame the
     port with the largest informative-event shortfall. *)
  let short_port = ref None and short_by = ref 0 in
  List.iter
    (fun (port, golden_trace) ->
      match List.assoc_opt port wp with
      | None -> if !best_port = None then (best_port := Some port; best_index := -1)
      | Some wp_trace ->
        incr ports_checked;
        let a = Trace.tau_filter golden_trace and b = Trace.tau_filter wp_trace in
        let na = List.length a and nb = List.length b in
        let shorter = min na nb in
        events := !events + shorter;
        let agree = Trace.equivalent_prefix ~eq:( = ) golden_trace wp_trace in
        if agree < shorter && agree < !best_index then begin
          best_index := agree;
          best_port := Some port
        end;
        if na - nb > !short_by then begin
          short_by := na - nb;
          short_port := Some port
        end)
    golden;
  let mismatch =
    match !best_port with
    | Some _ as m -> m
    | None ->
      (* Clean prefixes everywhere; still inequivalent if the golden
         system halts but the WP system deadlocks or runs forever. *)
      if halted golden_outcome && not (halted wp_outcome) then
        match !short_port with Some _ as p -> p | None -> Some "<no progress>"
      else None
  in
  {
    equivalent = mismatch = None;
    ports_checked = !ports_checked;
    events_compared = !events;
    first_mismatch = mismatch;
    golden_outcome;
    wp_outcome;
    recovery;
  }


let check_n_equivalence_spec ~spec ~n ~machine ~mode ~config program =
  let _, golden, _ =
    record_run
      ~spec:
        {
          spec with
          Run_spec.fault = Fault.none;
          protect = Protect.none;
          telemetry = Wp_sim.Telemetry.off;
        }
      ~machine ~mode:Shell.Plain ~config:Config.zero program
  in
  let _, wp, _ = record_run ~spec ~machine ~mode ~config program in
  List.for_all
    (fun (port, golden_trace) ->
      match List.assoc_opt port wp with
      | None -> false
      | Some wp_trace ->
        let enough t = Trace.informative_count t >= n in
        if enough golden_trace && enough wp_trace then
          Trace.n_equivalent ~eq:( = ) ~n golden_trace wp_trace
        else true)
    golden

