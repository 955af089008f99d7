module Network = Wp_sim.Network
module Sim = Wp_sim.Sim
module Engine = Wp_sim.Engine
module Fault = Wp_sim.Fault
module Shell = Wp_lis.Shell
module Process = Wp_lis.Process
module Trace = Wp_lis.Trace
module Token = Wp_lis.Token
module Datapath = Wp_soc.Datapath
module Program = Wp_soc.Program
module Isa = Wp_soc.Isa
module Iss = Wp_soc.Iss
module Asm = Wp_soc.Asm
module Shrink = Wp_util.Shrink

type network_kind = Ring | Diamond | Oracle2

let all_networks = [ Ring; Diamond; Oracle2 ]

let network_name = function
  | Ring -> "ring"
  | Diamond -> "diamond"
  | Oracle2 -> "oracle2"

(* ------------------------------------------------------------------ *)
(* Small checker networks.                                            *)
(*                                                                    *)
(* Every token stream is strictly increasing (injective): two token   *)
(* lineages never collide in value within the checking window, so any *)
(* dropped, duplicated, corrupted or spuriously injected token is     *)
(* guaranteed to produce a visible divergence, not a silent repair.   *)
(* ------------------------------------------------------------------ *)

let got inputs i =
  match inputs.(i) with
  | Some v -> v
  | None -> invalid_arg "Lid_check: reading an input that was not required"

let source2 ~name ~reset_a ~reset_b f =
  {
    Process.name;
    input_names = [||];
    output_names = [| "a"; "b" |];
    reset_outputs = [| reset_a; reset_b |];
    make =
      (fun () ->
        let k = ref 0 in
        {
          Process.required = Process.all_required 0;
          fire =
            (fun _ ->
              let va, vb = f !k in
              incr k;
              [| va; vb |]);
          halted = (fun () -> false);
        });
  }

let join2 ~name ~reset f =
  {
    Process.name;
    input_names = [| "x"; "y" |];
    output_names = [| "out" |];
    reset_outputs = [| reset |];
    make =
      (fun () ->
        {
          Process.required = Process.all_required 2;
          fire =
            (fun inputs -> [| f (got inputs 0) (got inputs 1) |]);
          halted = (fun () -> false);
        });
  }

(* Oracle join: port "b" is only required on even firings — the shell's
   drop-pending machinery discards the odd-tag tokens. *)
let alternating_join ~name ~reset =
  {
    Process.name;
    input_names = [| "a"; "b" |];
    output_names = [| "out" |];
    reset_outputs = [| reset |];
    make =
      (fun () ->
        let count = ref 0 in
        let both = [| true; true |] and only_a = [| true; false |] in
        {
          Process.required =
            (fun () -> if !count mod 2 = 0 then both else only_a);
          fire =
            (fun inputs ->
              let a = got inputs 0 in
              let b = match inputs.(1) with Some v -> v | None -> 0 in
              incr count;
              [| (a * 1_000_000) + b |]);
          halted = (fun () -> false);
        });
  }

let build = function
  | Ring ->
      (* Two +1 relays in a loop; the two circulating token lineages are
         kept 1_000_000 apart so their value streams stay disjoint. *)
      let net = Network.create () in
      let a =
        Network.add net
          (Process.unary ~name:"A" ~input_name:"in" ~output_name:"out"
             ~reset:1_000_000 succ)
      in
      let b =
        Network.add net
          (Process.unary ~name:"B" ~input_name:"in" ~output_name:"out" ~reset:1
             succ)
      in
      let c0 =
        Network.connect net ~src:(a, "out") ~dst:(b, "in") ~relay_stations:1 ()
      in
      let c1 = Network.connect net ~src:(b, "out") ~dst:(a, "in") () in
      (net, Shell.Plain, [ c0; c1 ])
  | Diamond ->
      (* Fork/join: S emits (3k+1, 3k+2); the arms keep the streams in
         disjoint bands; the join's sum is strictly increasing. *)
      let net = Network.create () in
      let s =
        Network.add net
          (source2 ~name:"S" ~reset_a:1 ~reset_b:2 (fun k ->
               ((3 * (k + 1)) + 1, (3 * (k + 1)) + 2)))
      in
      let a =
        Network.add net
          (Process.unary ~name:"A" ~input_name:"in" ~output_name:"out"
             ~reset:9_999 (fun v -> 10_000 + v))
      in
      let b =
        Network.add net
          (Process.unary ~name:"B" ~input_name:"in" ~output_name:"out"
             ~reset:19_999 (fun v -> 20_000 + (2 * v)))
      in
      let j = Network.add net (join2 ~name:"J" ~reset:29_000 ( + )) in
      let k = Network.add net (Process.sink ~name:"K" ~input_name:"in") in
      let _c0 = Network.connect net ~src:(s, "a") ~dst:(a, "in") () in
      let _c1 = Network.connect net ~src:(s, "b") ~dst:(b, "in") () in
      let c2 =
        Network.connect net ~src:(a, "out") ~dst:(j, "x") ~relay_stations:1 ()
      in
      let c3 =
        Network.connect net ~src:(b, "out") ~dst:(j, "y") ~relay_stations:2 ()
      in
      let _c4 = Network.connect net ~src:(j, "out") ~dst:(k, "in") () in
      (net, Shell.Plain, [ c2; c3 ])
  | Oracle2 ->
      (* Two counters feeding an oracle join that skips port "b" on odd
         firings — exercising the drop-pending path under faults. *)
      let net = Network.create () in
      let sa =
        Network.add net
          (Process.pure_source ~name:"SA" ~output_name:"out" ~reset:999
             (fun k -> 1_000 + k))
      in
      let sb =
        Network.add net
          (Process.pure_source ~name:"SB" ~output_name:"out" ~reset:4_999
             (fun k -> 5_000 + k))
      in
      let j = Network.add net (alternating_join ~name:"J" ~reset:0) in
      let k = Network.add net (Process.sink ~name:"K" ~input_name:"in") in
      let c0 =
        Network.connect net ~src:(sa, "out") ~dst:(j, "a") ~relay_stations:1 ()
      in
      let c1 = Network.connect net ~src:(sb, "out") ~dst:(j, "b") () in
      let _c2 = Network.connect net ~src:(j, "out") ~dst:(k, "in") () in
      (net, Shell.Oracle, [ c0; c1 ])

(* ------------------------------------------------------------------ *)
(* Running and comparing                                              *)
(* ------------------------------------------------------------------ *)

type run_result = {
  outcome : Engine.outcome;
  injected : int;
  ports : (string * int list) list; (* tau-filtered, per "NODE.port" *)
  link : Wp_sim.Link.summary option; (* Some iff a channel was protected *)
}

let run_network ?engine ?(protect_first = false) ~max_cycles ~fault kind =
  let net, mode, fault_channels = build kind in
  if protect_first then (
    match fault_channels with
    | c :: _ ->
        Network.set_protection net c
          (Some { Network.window = 0; timeout = 0 })
    | [] -> ());
  let sim = Sim.create ?engine ~record_traces:true ~fault ~mode net in
  let outcome = Sim.run ~max_cycles sim in
  let ports =
    List.concat_map
      (fun node ->
        let proc = Network.node_process net node in
        List.init
          (Array.length proc.Process.output_names)
          (fun p ->
            ( proc.Process.name ^ "." ^ proc.Process.output_names.(p),
              Trace.tau_filter (Sim.output_trace sim node p) )))
      (Network.nodes net)
  in
  {
    outcome;
    injected = Sim.fault_injections sim;
    ports;
    link = Sim.link_summary sim;
  }

(* Compare a faulted run against the clean run of the same engine:
   prefix-compatibility on every port, bounded informative deficit,
   no deadlock.  Returns the first violation, if any. *)
let compare_runs ~clean ~faulted ~deficit_bound =
  let rec prefix_len a b n =
    match (a, b) with
    | x :: a', y :: b' when x = y -> prefix_len a' b' (n + 1)
    | _ -> n
  in
  let check_port (port, clean_events) =
    match List.assoc_opt port faulted.ports with
    | None -> Some (port, "port missing in faulted run")
    | Some faulted_events ->
        let nc = List.length clean_events
        and nf = List.length faulted_events in
        let common = prefix_len clean_events faulted_events 0 in
        if common < min nc nf then
          Some (port, Printf.sprintf "divergence at informative index %d" common)
        else if nf > nc then
          Some (port, Printf.sprintf "faulted run produced %d extra events" (nf - nc))
        else if nc - nf > deficit_bound then
          Some
            ( port,
              Printf.sprintf "liveness: deficit %d exceeds bound %d" (nc - nf)
                deficit_bound )
        else None
  in
  match faulted.outcome with
  | Engine.Deadlocked _ -> Some ("<network>", "deadlock under injected faults")
  | _ -> List.find_map check_port clean.ports

(* ------------------------------------------------------------------ *)
(* Exhaustive stall-schedule enumeration                              *)
(* ------------------------------------------------------------------ *)

type violation = { v_fault : Fault.spec; v_port : string; v_reason : string }

type report = {
  rep_network : network_kind;
  rep_engine : Sim.kind;
  rep_horizon : int;
  rep_fault_channels : int list;
  rep_schedules : int;
  rep_violations : violation list;
}

let schedule_spec ~fault_channels ~horizon bits =
  let clauses =
    List.concat
      (List.mapi
         (fun fi chan ->
           let cycles =
             List.filter
               (fun h -> bits land (1 lsl ((fi * horizon) + h)) <> 0)
               (List.init horizon (fun h -> h))
           in
           if cycles = [] then [] else [ Fault.Stall { chan; cycles } ])
         fault_channels)
  in
  { Fault.seed = 0; clauses }

let exhaustive ?engine ?(horizon = 6) ?(max_cycles = 120) ?(slack = 16) kind =
  let engine = match engine with Some e -> e | None -> Sim.default_kind () in
  let _, _, fault_channels = build kind in
  let f = List.length fault_channels in
  let n_schedules = 1 lsl (f * horizon) in
  let clean = run_network ~engine ~max_cycles ~fault:Fault.none kind in
  let deficit_bound = horizon + slack in
  let violations = ref [] in
  for bits = 0 to n_schedules - 1 do
    let spec = schedule_spec ~fault_channels ~horizon bits in
    let faulted = run_network ~engine ~max_cycles ~fault:spec kind in
    match compare_runs ~clean ~faulted ~deficit_bound with
    | None -> ()
    | Some (port, reason) ->
        violations :=
          { v_fault = spec; v_port = port; v_reason = reason } :: !violations
  done;
  {
    rep_network = kind;
    rep_engine = engine;
    rep_horizon = horizon;
    rep_fault_channels = fault_channels;
    rep_schedules = n_schedules;
    rep_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Static-schedule conformance                                        *)
(*                                                                    *)
(* The exhaustive harness above proves stalls never change WHAT the   *)
(* network computes; this one bounds HOW FAST.  The balanced firing   *)
(* word of the capacity-extended marked graph names an exact rational *)
(* rate; no stall schedule may beat it, and the unperturbed run must  *)
(* achieve it exactly.  Firing counts come from the raw per-cycle     *)
(* output traces (Valid = fired), measured over a period-aligned      *)
(* window in the steady tail, past both the start-up transient and    *)
(* every injected stall.                                              *)
(* ------------------------------------------------------------------ *)

type static_report = {
  st_network : network_kind;
  st_engine : Sim.kind;
  st_rate : Wp_graph.Cycle_ratio.ratio;
  st_schedules : int;
  st_violations : (Fault.spec * string) list;
}

let static_conformance ?engine ?(horizon = 6) kind =
  let engine = match engine with Some e -> e | None -> Sim.default_kind () in
  let net0, mode, fault_channels = build kind in
  (match mode with
  | Shell.Plain -> ()
  | Shell.Oracle ->
      invalid_arg
        "Lid_check.static_conformance: oracle networks have no static schedule");
  (* Default capacity 2 on both sides, matching [Sim.create]. *)
  let sched = Wp_sim.Static.schedule net0 in
  let rate = sched.Wp_graph.Schedule.rate in
  let num = rate.Wp_graph.Cycle_ratio.num
  and den = rate.Wp_graph.Cycle_ratio.den in
  let settle = 32 + horizon in
  let windows = 8 in
  let window = windows * den in
  let max_cycles = settle + window in
  let f = List.length fault_channels in
  let n_schedules = 1 lsl (f * horizon) in
  let violations = ref [] in
  for bits = 0 to n_schedules - 1 do
    let spec = schedule_spec ~fault_channels ~horizon bits in
    let note fmt =
      Printf.ksprintf (fun s -> violations := (spec, s) :: !violations) fmt
    in
    let net, _, _ = build kind in
    let sim = Sim.create ~engine ~record_traces:true ~fault:spec ~mode net in
    (match Sim.run ~max_cycles sim with
    | Engine.Exhausted _ -> () (* free-running: the budget IS the window *)
    | Engine.Halted c | Engine.Deadlocked c | Engine.Cancelled c ->
        note "run ended at cycle %d, before the measurement window closed" c);
    List.iter
      (fun node ->
        let proc = Network.node_process net node in
        if Array.length proc.Process.output_names > 0 then begin
          let trace = Array.of_list (Sim.output_trace sim node 0) in
          if Array.length trace < max_cycles then
            note "node %s: trace covers %d cycles, window needs %d"
              proc.Process.name (Array.length trace) max_cycles
          else begin
            let fired = ref 0 in
            for i = settle to max_cycles - 1 do
              match trace.(i) with
              | Token.Valid _ -> incr fired
              | Token.Void -> ()
            done;
            if !fired > windows * num then
              note "node %s: %d firings in a %d-cycle window beats rate %d/%d"
                proc.Process.name !fired window num den
            else if bits = 0 && !fired <> windows * num then
              note
                "node %s: stall-free run made %d firings in a %d-cycle window, \
                 rate %d/%d demands %d"
                proc.Process.name !fired window num den (windows * num)
          end
        end)
      (Network.nodes net)
  done;
  {
    st_network = kind;
    st_engine = engine;
    st_rate = rate;
    st_schedules = n_schedules;
    st_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Negative controls                                                  *)
(* ------------------------------------------------------------------ *)

type detection = {
  det_fault : Fault.spec;
  det_injected : bool;
  det_detected : bool;
}

type neg_report = {
  neg_network : network_kind;
  neg_engine : Sim.kind;
  neg_cases : detection list;
}

(* Which break kinds make a detectable promise on a given fault channel.
   Drop and Dup change the token stream's length and pairing, which every
   network turns into a value or liveness divergence.  Corrupt and
   Spurious only change {e values}, so they are detectable only on
   channels whose every token actually enters the computation: on
   [Oracle2]'s second channel the oracle's old-tag rule legitimately
   discards stale tokens, and corrupting (or injecting) a token that is
   then discarded is invisible {e by design} — that is the oracle
   absorbing a fault, not the checker missing one. *)
let break_kinds_for kind ~chan_index =
  match (kind, chan_index) with
  | Oracle2, 1 -> [ Fault.Drop; Fault.Dup ]
  | _ -> [ Fault.Drop; Fault.Dup; Fault.Corrupt; Fault.Spurious ]

let negative_controls ?engine ?(max_cycles = 120) kind =
  let engine = match engine with Some e -> e | None -> Sim.default_kind () in
  let _, _, fault_channels = build kind in
  let clean = run_network ~engine ~max_cycles ~fault:Fault.none kind in
  (* The deficit bound is irrelevant for destructive faults (no stalls
     are injected), so any deficit beyond alignment slack is itself a
     detection; keep the same bound as the benign check for symmetry. *)
  let deficit_bound = 16 in
  let cases =
    List.concat
      (List.mapi
         (fun chan_index chan ->
           List.concat_map
             (fun kind_b ->
               List.map
                 (fun nth ->
                   let spec =
                     {
                       Fault.seed = 0;
                       clauses = [ Fault.Break { kind = kind_b; chan; nth } ];
                     }
                   in
                   let faulted = run_network ~engine ~max_cycles ~fault:spec kind in
                   {
                     det_fault = spec;
                     det_injected = faulted.injected > 0;
                     det_detected =
                       compare_runs ~clean ~faulted ~deficit_bound <> None;
                   })
                 [ 0; 2; 7 ])
             (break_kinds_for kind ~chan_index))
         fault_channels)
  in
  { neg_network = kind; neg_engine = engine; neg_cases = cases }

let undetected r =
  List.filter (fun d -> d.det_injected && not d.det_detected) r.neg_cases

(* ------------------------------------------------------------------ *)
(* Recovery sweep: the link layer's exhaustive counterpart.

   Same philosophy as [exhaustive], applied to the defender instead of
   the shells: on the ring with its first fault channel protected by
   [Wp_sim.Link], enumerate EVERY 1-fault and 2-fault drop/corrupt
   placement over the first token indices and demand that the protected
   run stays prefix-compatible with the clean run (bounded deficit, no
   deadlock) — zero informative-token loss.  Each spec is then replayed
   on the UNPROTECTED ring as its own negative control: the same faults
   must still be detected there, proving the protection (not a blind
   checker) is what absorbed them. *)
(* ------------------------------------------------------------------ *)

module Link = Wp_sim.Link

type recovery_case = {
  rc_fault : Fault.spec;
  rc_injected : int;
  rc_retransmissions : int;
  rc_recoveries : int;
  rc_max_latency : int;
}

type recovery_report = {
  recov_engine : Sim.kind;
  recov_window : int;
  recov_timeout : int;
  recov_cases : recovery_case list;
  recov_violations : violation list;
  recov_undetected : Fault.spec list;
}

let recovery_placements ~kinds ~nths =
  let singles =
    List.concat_map (fun k -> List.map (fun n -> [ (k, n) ]) nths) kinds
  in
  let pairs =
    List.concat_map
      (fun k1 ->
        List.concat_map
          (fun k2 ->
            List.concat_map
              (fun n1 ->
                List.filter_map
                  (fun n2 ->
                    if n1 < n2 then Some [ (k1, n1); (k2, n2) ] else None)
                  nths)
              nths)
          kinds)
      kinds
  in
  singles @ pairs

let recovery_sweep ?engine ?(max_cycles = 600) ?(slack = 64) () =
  let engine = match engine with Some e -> e | None -> Sim.default_kind () in
  let kind = Ring in
  (* The ring's protected channel has 1 relay station; a 2-fault episode
     costs at most two full recovery rounds (timeout + round trips), so
     4x the auto timeout plus slack bounds the transient deficit. *)
  let timeout = Link.auto_timeout ~rs:1 in
  let window = Link.auto_window ~rs:1 in
  let deficit_bound = (4 * timeout) + slack in
  let clean = run_network ~engine ~max_cycles ~fault:Fault.none kind in
  let _, _, fault_channels = build kind in
  let chan = List.hd fault_channels in
  let placements =
    recovery_placements
      ~kinds:[ Fault.Drop; Fault.Corrupt ]
      ~nths:[ 0; 1; 2; 3; 4 ]
  in
  let cases = ref [] and violations = ref [] and undetected = ref [] in
  List.iter
    (fun placement ->
      let spec =
        {
          Fault.seed = 0;
          clauses =
            List.map
              (fun (k, nth) -> Fault.Break { kind = k; chan; nth })
              placement;
        }
      in
      let prot =
        run_network ~engine ~protect_first:true ~max_cycles ~fault:spec kind
      in
      (match compare_runs ~clean ~faulted:prot ~deficit_bound with
      | None -> ()
      | Some (port, reason) ->
          violations :=
            { v_fault = spec; v_port = port; v_reason = reason }
            :: !violations);
      let s =
        match prot.link with
        | Some s -> s
        | None -> failwith "Lid_check.recovery_sweep: protection not applied"
      in
      cases :=
        {
          rc_fault = spec;
          rc_injected = prot.injected;
          rc_retransmissions = s.Link.retransmissions;
          rc_recoveries = s.Link.recoveries;
          rc_max_latency = s.Link.max_recovery_latency;
        }
        :: !cases;
      (* Negative control: the same spec on the raw ring must be caught
         (compare_runs already counts a deadlock as a violation). *)
      let raw = run_network ~engine ~max_cycles ~fault:spec kind in
      if
        raw.injected > 0
        && compare_runs ~clean ~faulted:raw ~deficit_bound:16 = None
      then undetected := spec :: !undetected)
    placements;
  {
    recov_engine = engine;
    recov_window = window;
    recov_timeout = timeout;
    recov_cases = List.rev !cases;
    recov_violations = List.rev !violations;
    recov_undetected = List.rev !undetected;
  }

(* ------------------------------------------------------------------ *)
(* Shrinking counterexample driver                                    *)
(* ------------------------------------------------------------------ *)

type repro = {
  r_seed : int;
  r_name : string;
  r_machine : Datapath.machine;
  r_mode : Shell.mode;
  r_engine : Sim.kind;
  r_config : Config.t;
  r_fault : Fault.spec;
  r_text : Isa.instr array;
  r_mem_size : int;
  r_mem_init : (int * int) list;
}

let repro_of_program ~seed ~machine ~mode ~engine ~config ~fault
    (program : Program.t) =
  {
    r_seed = seed;
    r_name = program.Program.name;
    r_machine = machine;
    r_mode = mode;
    r_engine = engine;
    r_config = config;
    r_fault = fault;
    r_text = Array.copy program.Program.text;
    r_mem_size = program.Program.mem_size;
    r_mem_init = program.Program.mem_init;
  }

let listing text =
  String.concat "\n" (Array.to_list (Array.map Isa.to_string text)) ^ "\n"

let program_of_repro r =
  {
    Program.name = r.r_name;
    source = listing r.r_text;
    text = Array.copy r.r_text;
    mem_size = r.r_mem_size;
    mem_init = r.r_mem_init;
    result_region = (0, 0);
  }

(* A candidate program must be a valid, promptly terminating ISS
   workload, otherwise the golden run itself would not halt and the
   equivalence check would be meaningless (and slow). *)
let iss_valid r =
  Array.length r.r_text > 0
  &&
  match
    Iss.run ~max_steps:100_000 ~mem_size:r.r_mem_size ~mem_init:r.r_mem_init
      r.r_text
  with
  | (_ : Iss.result) -> true
  | exception Iss.Fault _ -> false
  | exception Invalid_argument _ -> false

let check_repro ?(max_cycles = 200_000) r =
  iss_valid r
  &&
  match
    Equiv_check.check_spec
      ~spec:(Run_spec.v ~engine:r.r_engine ~max_cycles ~fault:r.r_fault ())
      ~machine:r.r_machine ~mode:r.r_mode ~config:r.r_config
      (program_of_repro r)
  with
  | v -> not v.Equiv_check.equivalent
  | exception _ ->
      (* A stop-protocol violation or a crashed codec is a failure too:
         the counterexample still reproduces it. *)
      true

(* Removing instructions [pos, pos+len) shifts everything after the
   chunk; absolute branch targets must follow.  Targets into the removed
   chunk land on its first survivor; everything is clamped in range. *)
let fixup_branches text ~pos ~len =
  let n = Array.length text in
  Array.map
    (fun i ->
      match i with
      | Isa.Br (c, t) ->
          let t' = if t >= pos + len then t - len else if t >= pos then pos else t in
          let t' = if n = 0 then 0 else max 0 (min t' (n - 1)) in
          Isa.Br (c, t')
      | i -> i)
    text

let candidates r =
  let program_shrinks =
    Seq.map
      (fun (shrunk, pos, len) ->
        { r with r_text = fixup_branches shrunk ~pos ~len })
      (Shrink.chunk_removals r.r_text)
  in
  let config_shrinks =
    List.to_seq
      (List.filter_map
         (fun (conn, count) ->
           if count > 0 then Some { r with r_config = Config.set r.r_config conn 0 }
           else None)
         (Config.to_alist r.r_config))
  in
  let fault_shrinks =
    match r.r_fault.Fault.clauses with
    | [] | [ _ ] -> Seq.empty
    | clauses ->
        Seq.mapi
          (fun i _ ->
            {
              r with
              r_fault =
                {
                  r.r_fault with
                  Fault.clauses = List.filteri (fun j _ -> j <> i) clauses;
                };
            })
          (List.to_seq clauses)
  in
  let nop_shrinks =
    Seq.filter_map
      (fun i ->
        if r.r_text.(i) = Isa.Nop then None
        else begin
          let text = Array.copy r.r_text in
          text.(i) <- Isa.Nop;
          Some { r with r_text = text }
        end)
      (Seq.init (Array.length r.r_text) (fun i -> i))
  in
  Seq.concat
    (List.to_seq [ program_shrinks; config_shrinks; fault_shrinks; nop_shrinks ])

let shrink_repro ?max_cycles r =
  Shrink.fixpoint ~max_rounds:400 ~candidates
    ~still_fails:(fun c -> check_repro ?max_cycles c)
    r

let mode_string = function Shell.Plain -> "plain" | Shell.Oracle -> "oracle"

(* The CLI's --config grammar: comma-separated NAME=N, "none" if empty. *)
let config_cli_string config =
  let parts =
    List.filter_map
      (fun (conn, n) ->
        if n = 0 then None
        else Some (Printf.sprintf "%s=%d" (Datapath.connection_name conn) n))
      (Config.to_alist config)
  in
  match parts with [] -> "none" | _ -> String.concat "," parts

let replay_command ?asm_path r =
  let program_arg =
    match asm_path with Some p -> "asm:" ^ p | None -> "asm:" ^ r.r_name ^ ".asm"
  in
  Printf.sprintf
    "wp_cli equiv -p %s -m %s --mode %s --engine %s --rs \"%s\" --fault \
     \"%s\" --fault-seed %d"
    program_arg
    (Datapath.machine_name r.r_machine)
    (match r.r_mode with Shell.Plain -> "wp1" | Shell.Oracle -> "wp2")
    (Sim.kind_to_string r.r_engine)
    (config_cli_string r.r_config)
    (Fault.to_string r.r_fault)
    r.r_fault.Fault.seed

let write_repro ?dir r =
  let dir = match dir with Some d -> d | None -> Shrink.default_repro_dir () in
  let asm_path = Filename.concat dir (r.r_name ^ ".asm") in
  let open Shrink.Sexp in
  let path =
    Shrink.write_repro ~dir ~name:r.r_name
      [
        ("seed", int r.r_seed);
        ("program", atom r.r_name);
        ("machine", atom (Datapath.machine_name r.r_machine));
        ("mode", atom (mode_string r.r_mode));
        ("engine", atom (Sim.kind_to_string r.r_engine));
        ("config", atom (Config.describe r.r_config));
        ("fault", atom (Fault.to_string r.r_fault));
        ("fault-seed", int r.r_fault.Fault.seed);
        ("mem-size", int r.r_mem_size);
        ( "mem-init",
          List
            (List.map
               (fun (a, v) -> List [ int a; int v ])
               r.r_mem_init) );
        ("instructions", int (Array.length r.r_text));
        ("listing", atom (listing r.r_text));
        ("replay", atom (replay_command ~asm_path r));
      ]
  in
  let oc = open_out asm_path in
  output_string oc (listing r.r_text);
  close_out oc;
  path
