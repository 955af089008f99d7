(* Router battery: a [Sim.create ~engine:Sim.Fast] run is routed to the
   table replay (unfaulted, telemetry off, replayable) or to the Fast
   handshake (anything else), and every routed run must be
   byte-identical to the same run on the handshake itself
   ([Fast.create]) and on the reference interpreter (an independent
   oracle): same outcome (or the same raised message), cycle count,
   delivered counts, per-shell statistics, output traces, fault
   injections, link summary and telemetry report.  Runs deliberately
   differ in program, RS configuration, FIFO capacity, shell mode,
   fault spec, protection and telemetry, so the router sends them to
   both kernels.  The remaining [Batch] surface is a loop over routed
   runs and is held against them too. *)

module Shell = Wp_lis.Shell
module Process = Wp_lis.Process
module Network = Wp_sim.Network
module Fault = Wp_sim.Fault
module Telemetry = Wp_sim.Telemetry
module Batch = Wp_sim.Batch
module Sim = Wp_sim.Sim
module Fast = Wp_sim.Fast
module Static = Wp_sim.Static
module Engine = Wp_sim.Engine
module Datapath = Wp_soc.Datapath
module Program = Wp_soc.Program
module Programs = Wp_soc.Programs
module Random_program = Wp_soc.Random_program
module Cpu = Wp_soc.Cpu
module Config = Wp_core.Config

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let max_cycles = 2_000_000

(* Seed policy mirrors the engine battery in test_soc.ml: program seed
   [s], RS configuration from Prng(1000 + s).  On top of that each run
   gets its own capacity, mode and fault clauses, all derived from the
   seed so every failure names a replayable case. *)
let battery_seeds = 50

let battery_config seed =
  let prng = Wp_util.Prng.create ~seed:(1000 + seed) in
  Config.of_alist
    (List.map
       (fun conn -> (conn, Wp_util.Prng.int prng 3))
       Datapath.all_connections)

let battery_capacity seed = 2 + (seed mod 3)
let battery_mode seed = if seed mod 2 = 0 then Shell.Plain else Shell.Oracle

(* Benign clauses only, so every battery run completes; destructive
   faults are the router test's. *)
let battery_fault seed =
  let clauses = [] in
  let clauses = if seed mod 7 = 3 then "jitter:15@500" :: clauses else clauses in
  let clauses = if seed mod 7 = 5 then "storm:7/2@400" :: clauses else clauses in
  let clauses =
    if seed mod 11 = 4 then "stall:2@3+9+27" :: clauses else clauses
  in
  match clauses with
  | [] -> Fault.none
  | cs -> Fault.of_string ~seed:(2000 + seed) (String.concat "," cs)

let mode_name = function Shell.Plain -> "plain" | Shell.Oracle -> "oracle"

(* ------------------------------------------------------------------ *)
(* Observing a run                                                     *)
(* ------------------------------------------------------------------ *)

(* Every observable of one run, or the message it raised with. *)
type observed = {
  outcome : Engine.outcome;
  cycles : int;
  delivered : int list;
  stats : Shell.stats list;
  traces : int Wp_lis.Token.t list list list;
  injections : int;
  links : Wp_sim.Link.summary option;
  telemetry : Telemetry.report option;
}

let observe net ~run ~cycles ~delivered ~stats ~trace ~injections ~links ~telemetry =
  match run () with
  | exception Failure m -> Error m
  | outcome ->
    Ok
      {
        outcome;
        cycles = cycles ();
        delivered = List.map delivered (Network.channels net);
        stats = List.map stats (Network.nodes net);
        traces =
          List.map
            (fun n -> List.init (Process.n_outputs (Network.node_process net n)) (trace n))
            (Network.nodes net);
        injections = injections ();
        links = links ();
        telemetry = telemetry ();
      }

(* A [Sim] of [engine] (a [Fast] one is routed). *)
let observe_sim ?(max_cycles = max_cycles) ?capacity ?fault ?telemetry ~engine ~mode net =
  let sim = Sim.create ~engine ?capacity ~record_traces:true ?fault ?telemetry ~mode net in
  observe net
    ~run:(fun () -> Sim.run ~max_cycles sim)
    ~cycles:(fun () -> Sim.cycles sim)
    ~delivered:(Sim.delivered sim) ~stats:(Sim.node_stats sim) ~trace:(Sim.output_trace sim)
    ~injections:(fun () -> Sim.fault_injections sim)
    ~links:(fun () -> Sim.link_summary sim)
    ~telemetry:(fun () -> Sim.telemetry_report sim)

(* The handshake itself, whatever the router would pick. *)
let observe_fast ?(max_cycles = max_cycles) ?capacity ?fault ?telemetry ~mode net =
  let f = Fast.create ?capacity ~record_traces:true ?fault ?telemetry ~mode net in
  observe net
    ~run:(fun () -> Fast.run ~max_cycles f)
    ~cycles:(fun () -> Fast.cycles f)
    ~delivered:(Fast.delivered f) ~stats:(Fast.node_stats f) ~trace:(Fast.output_trace f)
    ~injections:(fun () -> Fast.fault_injections f)
    ~links:(fun () -> Fast.link_summary f)
    ~telemetry:(fun () -> Fast.telemetry_report f)

(* The table replay itself. *)
let observe_replay ?(max_cycles = max_cycles) ~mode net =
  let st = Static.create ~record_traces:true ~mode net in
  observe net
    ~run:(fun () -> Static.run ~max_cycles st)
    ~cycles:(fun () -> Static.cycles st)
    ~delivered:(Static.delivered st) ~stats:(Static.node_stats st)
    ~trace:(Static.output_trace st)
    ~injections:(fun () -> 0)
    ~links:(fun () -> None)
    ~telemetry:(fun () -> None)

(* The first observable on which [b] differs from [a], if any. *)
let difference a b =
  match (a, b) with
  | Error m, Error m' when m = m' -> None
  | Error m, _ | _, Error m -> Some ("raised " ^ m)
  | Ok a, Ok b ->
    List.find_opt
      (fun (_, same) -> not same)
      [
        ("outcome", a.outcome = b.outcome);
        ("cycles", a.cycles = b.cycles);
        ("delivered counts", a.delivered = b.delivered);
        ("node stats", a.stats = b.stats);
        ("traces", a.traces = b.traces);
        ("fault injections", a.injections = b.injections);
        ("link summary", a.links = b.links);
        ("telemetry report", a.telemetry = b.telemetry);
      ]
    |> Option.map fst

(* One routed run held against the handshake and the reference on a
   fresh network each; a disagreement is [note]d. *)
let check_routed ~note ~ctx ?capacity ?fault ?telemetry ~mode net =
  let routed = observe_sim ~engine:Sim.Fast ?capacity ?fault ?telemetry ~mode (net ()) in
  List.iter
    (fun (who, other) ->
      match difference routed other with
      | None -> ()
      | Some what -> note (Printf.sprintf "%s: routed Sim and %s differ on %s" ctx who what))
    [
      ("Fast", observe_fast ?capacity ?fault ?telemetry ~mode (net ()));
      ("Engine", observe_sim ~engine:Sim.Reference ?capacity ?fault ?telemetry ~mode (net ()));
    ]

let soc_net ~machine program config () =
  (Datapath.build ~machine ~rs:(Config.to_fun config) program).Datapath.network

let report_failures what = function
  | [] -> ()
  | fs -> Alcotest.failf "%d %s failure(s):\n%s" (List.length fs) what (String.concat "\n" fs)

let battery_for_machine machine =
  let failures = ref [] in
  let note s = failures := s :: !failures in
  for seed = 0 to battery_seeds - 1 do
    let mode = battery_mode seed in
    check_routed ~note
      ~ctx:(Printf.sprintf "seed %d %s/%s" seed (Datapath.machine_name machine) (mode_name mode))
      ~capacity:(battery_capacity seed) ~fault:(battery_fault seed) ~mode
      (soc_net ~machine (Random_program.generate ~seed ()) (battery_config seed))
  done;
  List.rev !failures

let test_battery_pipelined () =
  report_failures "router battery" (battery_for_machine Datapath.Pipelined)

let test_battery_multicycle () =
  report_failures "router battery" (battery_for_machine Datapath.Multicycle)

(* ------------------------------------------------------------------ *)
(* The router                                                          *)
(* ------------------------------------------------------------------ *)

let sort6 () = Programs.extraction_sort ~values:(Programs.sort_values ~seed:3 ~n:6)

(* Run [cases] (name, a function making the network, mode, capacity,
   fault, telemetry) through the router: each equals its Fast and
   Engine runs. *)
let check_router cases =
  let failures = ref [] in
  let note s = failures := s :: !failures in
  List.iter
    (fun (ctx, net, mode, capacity, fault, telemetry) ->
      check_routed ~note ~ctx ~capacity ~fault ~telemetry ~mode net)
    cases;
  report_failures "router" (List.rev !failures)

let plain_case (ctx, net, mode, capacity) = (ctx, net, mode, capacity, Fault.none, Telemetry.off)

(* The replay refuses unbounded FIFOs and the router hands them to
   Fast.  Both machines and both shell modes, with and without relay
   stations. *)
let test_capacity_zero_batches () =
  let program = sort6 () in
  check_router
    (List.concat_map
       (fun machine ->
         List.concat_map
           (fun (rs, config) ->
             List.map
               (fun mode ->
                 plain_case
                   ( Printf.sprintf "capacity 0 %s/%s %s" (Datapath.machine_name machine)
                       (mode_name mode) rs,
                     soc_net ~machine program config,
                     mode,
                     0 ))
               [ Shell.Plain; Shell.Oracle ])
           [ ("no RS", Config.zero); ("battery RS", battery_config 3) ])
       [ Datapath.Pipelined; Datapath.Multicycle ])

(* The replay refuses a link-protected channel and the router hands it
   to Fast.  One protected channel, as a user's --protect list makes, in
   both shell modes, and once under jitter, which the link layer
   absorbs. *)
let test_protection_batches () =
  let program = sort6 () in
  let protected_ () =
    let net = soc_net ~machine:Datapath.Pipelined program (battery_config 4) () in
    Network.set_protection net 0 (Some { Network.window = 4; timeout = 16 });
    net
  in
  check_router
    [
      plain_case ("protected plain", protected_, Shell.Plain, 2);
      plain_case ("protected oracle", protected_, Shell.Oracle, 2);
      ( "protected jitter", protected_, Shell.Plain, 2,
        Fault.of_string ~seed:13 "jitter:10@300", Telemetry.off );
    ]

(* One routed run of every class: unfaulted Plain and Oracle runs
   (replays), a jittered Oracle run, a capacity-0 and a link-protected
   run (unfaulted, so the replay is tried and refuses them), a
   protected-and-jittered run (the one case that caught a router which
   dropped protection), telemetry on, and destructive faults, bare and
   on protected links.  Each equals its Fast and Engine runs. *)
let test_router_mixed_lanes () =
  let plain = soc_net ~machine:Datapath.Pipelined (sort6 ()) (battery_config 5) in
  let protected_ () =
    let net = plain () in
    List.iter
      (fun c -> Network.set_protection net c (Some { Network.window = 4; timeout = 16 }))
      (Network.channels net);
    net
  in
  let jitter = Fault.of_string ~seed:11 "jitter:10@300" in
  let drop = Fault.of_string ~seed:0 "drop:3:1" in
  let counters = Telemetry.counters in
  check_router
    [
      plain_case ("unfaulted plain", plain, Shell.Plain, 2);
      plain_case ("unfaulted oracle", plain, Shell.Oracle, 2);
      ("jitter oracle", plain, Shell.Oracle, 2, jitter, Telemetry.off);
      plain_case ("capacity 0", plain, Shell.Plain, 0);
      plain_case ("link-protected", protected_, Shell.Plain, 2);
      ("protected jitter oracle", protected_, Shell.Oracle, 2, jitter, Telemetry.off);
      ("telemetry plain", plain, Shell.Plain, 2, Fault.none, counters);
      ("telemetry oracle", plain, Shell.Oracle, 2, Fault.none, Telemetry.with_trace ~depth:16 ());
      ("destructive drop", plain, Shell.Oracle, 2, drop, Telemetry.off);
      ("protected drop", protected_, Shell.Plain, 2, drop, Telemetry.off);
    ]

(* A ring of [m] unary +1 relays, as in test_fast.ml. *)
let ring m ~rs =
  let relay name =
    Process.unary ~name ~input_name:"i" ~output_name:"o" ~reset:0 succ
  in
  let net = Network.create () in
  let nodes =
    Array.init m (fun i -> Network.add net (relay (Printf.sprintf "p%d" i)))
  in
  for i = 0 to m - 1 do
    ignore
      (Network.connect net
         ~src:(nodes.(i), "o")
         ~dst:(nodes.((i + 1) mod m), "i")
         ~relay_stations:(if i = m - 1 then rs else 0)
         ())
  done;
  net

let ring_lane m ~rs =
  { Batch.net = ring m ~rs; mode = Shell.Plain; capacity = 2;
    fault = Fault.none; max_cycles = 1_000; cancel = Wp_util.Cancel.never }

(* Batch's surface: different topologies, a faulted and a capacity-0
   lane in one batch, each lane's outcome and cycles those of the same
   routed Sim run alone. *)
let test_mixed_topologies_batch () =
  let lanes =
    [| ring_lane 3 ~rs:1; ring_lane 4 ~rs:1; ring_lane 3 ~rs:0;
       { (ring_lane 5 ~rs:2) with fault = Fault.of_string ~seed:7 "jitter:10@100" };
       { (ring_lane 4 ~rs:2) with capacity = 0 } |]
  in
  checkb "rings 3 and 4 have distinct signatures" false
    (Batch.signature lanes.(0).Batch.net = Batch.signature lanes.(1).Batch.net);
  checkb "rs does not enter the signature" true
    (Batch.signature lanes.(0).Batch.net = Batch.signature lanes.(2).Batch.net);
  let b = Batch.create lanes in
  let out = Batch.run b in
  checki "n_lanes" (Array.length lanes) (Batch.n_lanes b);
  Array.iteri
    (fun lane ln ->
      let sim =
        Sim.create ~engine:Sim.Fast ~capacity:ln.Batch.capacity ~fault:ln.Batch.fault
          ~mode:ln.Batch.mode ln.Batch.net
      in
      let solo = Sim.run ~max_cycles:ln.Batch.max_cycles sim in
      checkb (Printf.sprintf "lane %d outcome" lane) true (out.(lane) = solo);
      checki (Printf.sprintf "lane %d cycles" lane) (Sim.cycles sim) (Batch.lane_cycles b ~lane))
    lanes

let soc_lane ~machine =
  let dp = Datapath.build ~machine ~rs:Cpu.no_relay_stations (sort6 ()) in
  {
    Batch.net = dp.Datapath.network;
    mode = Shell.Plain;
    capacity = 2;
    fault = Fault.none;
    max_cycles;
    cancel = Wp_util.Cancel.never;
  }

(* The two SoC machines share one topology (5 blocks, same wiring), so
   lanes from different machines batch together legitimately. *)
let test_mixed_machines_batch () =
  let b =
    Batch.create
      [| soc_lane ~machine:Datapath.Pipelined; soc_lane ~machine:Datapath.Multicycle |]
  in
  Array.iter
    (function
      | Engine.Halted _ -> ()
      | _ -> Alcotest.fail "mixed-machine lane did not halt")
    (Batch.run b)

(* Destructive Break faults may make process closures raise; a routed
   run must fail with exactly the handshake's and the reference's
   error. *)
let test_destructive_fault_raises_identically () =
  let seed = 9 in
  let net =
    soc_net ~machine:Datapath.Pipelined (Random_program.generate ~seed ()) (battery_config seed)
  in
  let fault = Fault.of_string ~seed:(2000 + seed) "drop:1:4" in
  let routed = observe_sim ~engine:Sim.Fast ~fault ~mode:Shell.Oracle (net ()) in
  checkb "destructive fault raised" true (Result.is_error routed);
  checkb "same error as Fast" true
    (routed = observe_fast ~fault ~mode:Shell.Oracle (net ()));
  checkb "same error as Engine" true
    (routed = observe_sim ~engine:Sim.Reference ~fault ~mode:Shell.Oracle (net ()))

(* ------------------------------------------------------------------ *)
(* Run_spec.run_cpu: the one SoC run path                              *)
(* ------------------------------------------------------------------ *)

module Run_spec = Wp_core.Run_spec

let fast_spec = Run_spec.v ~engine:Sim.Fast ()

let spec_of_args ?fault () =
  match Run_spec.of_args ~engine:"fast" ?fault () with
  | Ok s -> s
  | Error m -> Alcotest.fail m

(* The spec's run on the reference interpreter. *)
let solo_ref ?cancel ?mcr_work (spec : Run_spec.t) ~machine ~mode ~rs program =
  let protect = Run_spec.protect_fun spec in
  Cpu.run ~engine:Sim.Reference ~capacity:spec.Run_spec.capacity ?cancel
    ?max_cycles:spec.Run_spec.max_cycles ?mcr_work ~fault:spec.Run_spec.fault
    ?protect ~telemetry:spec.Run_spec.telemetry ~machine ~mode ~rs program

(* Whether the Fast handshake, stepped on the run's own datapath under
   the full budget, ends as [r] says, at [r]'s cycle, with [r]'s final
   memory. *)
let handshake_agrees (r : Cpu.result) (spec : Run_spec.t) ~machine ~mode ~rs program =
  let dp = Datapath.build ?protect:(Run_spec.protect_fun spec) ~machine ~rs program in
  let f =
    Fast.create ~capacity:spec.Run_spec.capacity ~fault:spec.Run_spec.fault ~mode
      dp.Datapath.network
  in
  let outcome, cycles =
    match Fast.run ~max_cycles f with
    | Engine.Halted c -> (Cpu.Completed, c)
    | Engine.Deadlocked c -> (Cpu.Deadlocked, c)
    | Engine.Exhausted c -> (Cpu.Out_of_cycles, c)
    | Engine.Cancelled c -> (Cpu.Cancelled, c)
  in
  r.Cpu.outcome = outcome
  && r.Cpu.cycles = cycles
  && Some r.Cpu.memory = Option.map (fun get -> get ()) !(dp.Datapath.memory_tap)

(* Every row of Table 1 (the golden's inputs: sort over 10 values and a
   3x3 matmul, both machines), on both wrappers: [run_cpu] returns what
   the reference interpreter returns, and the handshake halts where it
   says. *)
let test_run_cpu_table1_rows () =
  let values = Programs.sort_values ~seed:1 ~n:10 in
  let sort = Programs.extraction_sort ~values in
  let matmul =
    Programs.matrix_multiply ~n:3 ~a:(Programs.matrix_values ~seed:2 ~n:3)
      ~b:(Programs.matrix_values ~seed:3 ~n:3)
  in
  let runner = Wp_core.Runner.create ~jobs:1 ~cache:false () in
  let compared = ref 0 in
  List.iter
    (fun machine ->
      List.iter
        (fun (program, rows) ->
          let golden =
            Wp_core.Experiment.golden ~engine:Sim.Fast ~machine program
          in
          let mcr_work = golden.Cpu.cycles in
          List.iter
            (fun (row : Wp_core.Table1.row) ->
              let record = row.Wp_core.Table1.record in
              let rs = Config.to_fun record.Wp_core.Experiment.config in
              List.iter
                (fun (mode, tabled) ->
                  let r =
                    Run_spec.run_cpu ~mcr_work ~spec:fast_spec ~machine ~mode ~rs
                      program
                  in
                  let what =
                    Printf.sprintf "%s %s row %d %s" (Datapath.machine_name machine)
                      program.Program.name row.Wp_core.Table1.index (mode_name mode)
                  in
                  incr compared;
                  checkb (what ^ " = Engine") true
                    (r = solo_ref ~mcr_work fast_spec ~machine ~mode ~rs program
                    && tabled = r);
                  checkb (what ^ " = Fast") true
                    (handshake_agrees r fast_spec ~machine ~mode ~rs program))
                [
                  (Shell.Plain, record.Wp_core.Experiment.wp1);
                  (Shell.Oracle, record.Wp_core.Experiment.wp2);
                ])
            rows)
        [
          (sort, Wp_core.Table1.sort_rows ~spec:fast_spec ~values ~runner ~machine ());
          (matmul, Wp_core.Table1.matmul_rows ~spec:fast_spec ~n:3 ~runner ~machine ());
        ])
    [ Datapath.Pipelined; Datapath.Multicycle ];
  Wp_core.Runner.shutdown runner;
  checki "Table 1 runs compared" (2 * 2 * (13 + 25)) !compared

(* The battery's seeds: random programs, RS configurations, capacities
   and benign faults, on both machines and both wrappers. *)
let test_run_cpu_battery () =
  for seed = 0 to battery_seeds - 1 do
    let machine =
      if seed mod 2 = 0 then Datapath.Pipelined else Datapath.Multicycle
    in
    let program = Random_program.generate ~seed () in
    let rs = Config.to_fun (battery_config seed) in
    let spec =
      {
        fast_spec with
        Run_spec.capacity = 1 + (seed mod 3);
        fault = battery_fault seed;
      }
    in
    let mcr_work = (Cpu.run_golden ~machine program).Cpu.cycles in
    List.iter
      (fun mode ->
        let r = Run_spec.run_cpu ~mcr_work ~spec ~machine ~mode ~rs program in
        let what = Printf.sprintf "seed %d %s" seed (mode_name mode) in
        checkb (what ^ " = Engine") true
          (r = solo_ref ~mcr_work spec ~machine ~mode ~rs program);
        checkb (what ^ " = Fast") true (handshake_agrees r spec ~machine ~mode ~rs program))
      [ Shell.Plain; Shell.Oracle ]
  done

let matmul2 () = Result.get_ok (Programs.of_string "matmul:2")

(* A destructive fault on an unprotected link derails the CU; the error
   [wp_cli run] prints is the handshake's and the reference's. *)
let test_run_cpu_destructive_error () =
  let machine = Datapath.Pipelined in
  let program = matmul2 () in
  let rs = Cpu.no_relay_stations in
  let spec = spec_of_args ~fault:"drop:3:1" () in
  let error f = match f () with _ -> None | exception Failure m -> Some m in
  List.iter
    (fun mode ->
      let via_run_cpu =
        error (fun () -> Run_spec.run_cpu ~spec ~machine ~mode ~rs program)
      in
      let via_ref = error (fun () -> solo_ref spec ~machine ~mode ~rs program) in
      let via_fast =
        error (fun () ->
            Fast.run ~max_cycles
              (Fast.create ~fault:spec.Run_spec.fault ~mode
                 (Datapath.build ~machine ~rs program).Datapath.network))
      in
      checkb (mode_name mode ^ " raised") true (via_run_cpu <> None);
      checkb (mode_name mode ^ " same message on every kernel") true
        (via_run_cpu = via_fast && via_fast = via_ref))
    [ Shell.Plain; Shell.Oracle ]

let test_run_cpu_cancelled () =
  let machine = Datapath.Pipelined in
  let program = matmul2 () in
  let rs = Config.to_fun (battery_config 3) in
  let cancel = Wp_util.Cancel.create () in
  Wp_util.Cancel.cancel cancel;
  List.iter
    (fun mode ->
      let r = Run_spec.run_cpu ~cancel ~spec:fast_spec ~machine ~mode ~rs program in
      let solo = solo_ref ~cancel fast_spec ~machine ~mode ~rs program in
      checkb (mode_name mode ^ " cancelled") true (r.Cpu.outcome = Cpu.Cancelled);
      checki (mode_name mode ^ " same cycle") solo.Cpu.cycles r.Cpu.cycles;
      checkb (mode_name mode ^ " = Engine") true (r = solo))
    [ Shell.Plain; Shell.Oracle ]

(* ------------------------------------------------------------------ *)
(* The Oracle replay: transitions learnt during the run                *)
(* ------------------------------------------------------------------ *)

(* Configurations on which WP2 halts while stores still sit in relay
   stations (the early-halt defect the completion predicate is to fix):
   fib with six stations, and eight stations over random:0..24.  Until
   that fix lands in the shared run loop their WP2 results stay wrong,
   identically on every kernel. *)
let early_halt_cases () =
  let config s = Result.get_ok (Config.of_string s) in
  let program s = Result.get_ok (Programs.of_string s) in
  ( "fib",
    program "fib",
    config "CU-RF=1,CU-AL=2,CU-DC=2,RF-ALU=1,RF-DC=1,ALU-DC=2" )
  :: List.init 25 (fun k ->
         let name = Printf.sprintf "random:%d" k in
         ( name,
           program name,
           config "CU-RF=1,CU-AL=2,CU-DC=2,RF-ALU=1,RF-DC=1,ALU-CU=1,ALU-DC=2,DC-RF=2" ))

let test_oracle_early_halt () =
  List.iter
    (fun machine ->
      List.iter
        (fun (name, program, config) ->
          let net () =
            (Datapath.build ~machine ~rs:(Config.to_fun config) program).Datapath.network
          in
          let ctx what = Printf.sprintf "%s %s: replay = %s" (Datapath.machine_name machine) name what in
          let replayed = observe_replay ~mode:Shell.Oracle (net ()) in
          checkb (ctx "Fast") true (replayed = observe_fast ~mode:Shell.Oracle (net ()));
          checkb (ctx "Engine") true
            (replayed = observe_sim ~engine:Sim.Reference ~mode:Shell.Oracle (net ()));
          let solo engine =
            Cpu.run ~engine ~machine ~mode:Shell.Oracle ~rs:(Config.to_fun config) program
          in
          checkb
            (Printf.sprintf "%s %s: Cpu.run fast = ref" (Datapath.machine_name machine) name)
            true
            (solo Sim.Fast = solo Sim.Reference))
        (early_halt_cases ()))
    [ Datapath.Pipelined; Datapath.Multicycle ]

(* A run stopped at a budget and resumed with a larger one is the same
   run as one call with the larger budget. *)
let test_oracle_resume () =
  let program = Random_program.generate ~seed:6 () in
  let net () =
    (Datapath.build ~machine:Datapath.Pipelined ~rs:(Config.to_fun (battery_config 6)) program)
      .Datapath.network
  in
  let resumed =
    let n = net () in
    let st = Static.create ~record_traces:true ~mode:Shell.Oracle n in
    let first = Static.run ~max_cycles:100 st in
    checkb "stopped at the first budget" true (first = Engine.Exhausted 100);
    observe n
      ~run:(fun () -> Static.run ~max_cycles st)
      ~cycles:(fun () -> Static.cycles st)
      ~delivered:(Static.delivered st) ~stats:(Static.node_stats st)
      ~trace:(Static.output_trace st)
      ~injections:(fun () -> 0)
      ~links:(fun () -> None)
      ~telemetry:(fun () -> None)
  in
  let once = observe_replay ~mode:Shell.Oracle (net ()) in
  checkb "the run halts" true
    (match once with Ok { outcome = Engine.Halted _; _ } -> true | _ -> false);
  checkb "resumed = one run" true (resumed = once);
  checkb "one run = Fast" true (once = observe_fast ~mode:Shell.Oracle (net ()))

(* Replays of one structure share its learnt table, one replay at a
   time: replays of one configuration in four domains at once (a busy
   table sends the others to tables of their own) each match Fast. *)
let test_oracle_domains () =
  let config = Config.to_fun (battery_config 9) in
  let net seed =
    (Datapath.build ~machine:Datapath.Pipelined ~rs:config (Random_program.generate ~seed ()))
      .Datapath.network
  in
  let seeds d = List.init 4 (fun k -> 100 + (4 * d) + k) in
  let replayed =
    List.map
      (fun d ->
        Domain.spawn (fun () ->
            List.map (fun seed -> observe_replay ~mode:Shell.Oracle (net seed)) (seeds d)))
      [ 0; 1; 2; 3 ]
    |> List.map Domain.join
  in
  List.iteri
    (fun d results ->
      List.iter2
        (fun seed r ->
          checkb (Printf.sprintf "seed %d = Fast" seed) true
            (r = observe_fast ~mode:Shell.Oracle (net seed)))
        (seeds d) results)
    replayed

let () =
  Alcotest.run "batch"
    [
      ( "battery",
        [
          Alcotest.test_case "pipelined 50-seed differential" `Slow
            test_battery_pipelined;
          Alcotest.test_case "multicycle 50-seed differential" `Slow
            test_battery_multicycle;
        ] );
      ( "rejections",
        [
          Alcotest.test_case "capacity 0" `Quick test_capacity_zero_batches;
          Alcotest.test_case "protection" `Quick test_protection_batches;
          Alcotest.test_case "mixed topologies batch fine" `Quick
            test_mixed_topologies_batch;
          Alcotest.test_case "mixed machines batch fine" `Quick
            test_mixed_machines_batch;
          Alcotest.test_case "destructive fault raises identically" `Quick
            test_destructive_fault_raises_identically;
        ] );
      ( "router",
        [
          Alcotest.test_case "mixed lanes = solo Fast = Engine" `Quick
            test_router_mixed_lanes;
        ] );
      ( "run_cpu",
        [
          Alcotest.test_case "Table 1 rows = Fast" `Quick test_run_cpu_table1_rows;
          Alcotest.test_case "50-seed battery = Fast" `Quick test_run_cpu_battery;
          Alcotest.test_case "destructive fault: one error on every path" `Quick
            test_run_cpu_destructive_error;
          Alcotest.test_case "cancelled token: same cycle" `Quick
            test_run_cpu_cancelled;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "early-halt configs: replay = Fast = Engine" `Quick
            test_oracle_early_halt;
          Alcotest.test_case "resumed run = one run" `Quick test_oracle_resume;
          Alcotest.test_case "one structure in four domains = Fast" `Quick
            test_oracle_domains;
        ] );
    ]
