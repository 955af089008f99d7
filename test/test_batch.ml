(* Batch differential battery: every lane of a Wp_sim.Batch run must be
   byte-identical to running the same spec alone, both on the Fast
   kernel (the handshake the router falls back to) and on the reference
   interpreter (an independent oracle) — same outcome, cycle count,
   delivered counts, per-shell statistics, output traces and fault
   injections.  Lanes deliberately differ in program, RS configuration,
   FIFO capacity, shell mode and fault spec, so the router sends them to
   both kernels. *)

module Shell = Wp_lis.Shell
module Process = Wp_lis.Process
module Network = Wp_sim.Network
module Fault = Wp_sim.Fault
module Batch = Wp_sim.Batch
module Sim = Wp_sim.Sim
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
   [s], RS configuration from Prng(1000 + s).  On top of that each lane
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

(* Benign clauses only: destructive Break faults can legitimately make a
   process raise (identically on Fast and Batch — pinned by the
   destructive test below), which would poison the whole batch; the
   Runner's batchability gate excludes them for the same reason. *)
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

(* Compare one batch lane against a solo run of the identical spec on
   [engine], over a freshly built network. *)
let compare_solo ~engine ~note ~seed ~ctx b ~lane ~net ~mode ~capacity ~fault =
  let who = Sim.kind_to_string engine in
  let note fmt = Printf.ksprintf note fmt in
  let sim = Sim.create ~engine ~capacity ~record_traces:true ~fault ~mode (net ()) in
  match Sim.run ~max_cycles sim with
  | exception e -> note "seed %d: %s solo %s raised %s" seed ctx who (Printexc.to_string e)
  | solo_out ->
    let net = Sim.network sim in
    (match Batch.outcome b ~lane with
    | None -> note "seed %d: %s lane %d never finished" seed ctx lane
    | Some out ->
      if out <> solo_out then
        note "seed %d: %s lane %d outcome differs from solo %s" seed ctx lane who);
    if Batch.lane_cycles b ~lane <> Sim.cycles sim then
      note "seed %d: %s lane %d cycle count %d differs from solo %s %d" seed ctx
        lane (Batch.lane_cycles b ~lane) who (Sim.cycles sim);
    if Batch.fault_injections b ~lane <> Sim.fault_injections sim then
      note "seed %d: %s lane %d fault injections differ from %s" seed ctx lane who;
    List.iter
      (fun c ->
        if Batch.delivered b ~lane c <> Sim.delivered sim c then
          note "seed %d: %s lane %d disagrees with %s on delivered(%s)" seed ctx
            lane who (Network.channel_label net c))
      (Network.channels net);
    List.iter
      (fun n ->
        let proc = Network.node_process net n in
        if Batch.node_stats b ~lane n <> Sim.node_stats sim n then
          note "seed %d: %s lane %d disagrees with %s on stats(%s)" seed ctx lane
            who proc.Process.name;
        Array.iteri
          (fun p _ ->
            if Batch.output_trace b ~lane n p <> Sim.output_trace sim n p then
              note "seed %d: %s lane %d disagrees with %s on trace %s.%s" seed
                ctx lane who proc.Process.name proc.Process.output_names.(p))
          proc.Process.output_names)
      (Network.nodes net)

let compare_lane ~note ~seed ~ctx b ~lane ~net ~mode ~capacity ~fault =
  List.iter
    (fun engine -> compare_solo ~engine ~note ~seed ~ctx b ~lane ~net ~mode ~capacity ~fault)
    [ Sim.Fast; Sim.Reference ]

let soc_net ~machine program config () =
  (Datapath.build ~machine ~rs:(Config.to_fun config) program).Datapath.network

let battery_for_machine machine =
  let failures = ref [] in
  let note s = failures := s :: !failures in
  let seeds = List.init battery_seeds Fun.id in
  let lane_of seed =
    let program = Random_program.generate ~seed () in
    let config = battery_config seed in
    let dp = Datapath.build ~machine ~rs:(Config.to_fun config) program in
    {
      Batch.net = dp.Datapath.network;
      mode = battery_mode seed;
      capacity = battery_capacity seed;
      fault = battery_fault seed;
      max_cycles;
      cancel = Wp_util.Cancel.never;
    }
  in
  let b = Batch.create ~record_traces:true (Array.of_list (List.map lane_of seeds)) in
  let (_ : Wp_sim.Engine.outcome array) = Batch.run b in
  List.iter
    (fun seed ->
      let ctx =
        Printf.sprintf "%s/%s" (Datapath.machine_name machine)
          (mode_name (battery_mode seed))
      in
      compare_lane ~note ~seed ~ctx b ~lane:seed
        ~net:(soc_net ~machine (Random_program.generate ~seed ()) (battery_config seed))
        ~mode:(battery_mode seed) ~capacity:(battery_capacity seed)
        ~fault:(battery_fault seed))
    seeds;
  List.rev !failures

let test_battery_pipelined () =
  match battery_for_machine Datapath.Pipelined with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d batch battery failure(s):\n%s" (List.length fs)
      (String.concat "\n" fs)

let test_battery_multicycle () =
  match battery_for_machine Datapath.Multicycle with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d batch battery failure(s):\n%s" (List.length fs)
      (String.concat "\n" fs)

(* ------------------------------------------------------------------ *)
(* The router                                                          *)
(* ------------------------------------------------------------------ *)

let sort6 () = Programs.extraction_sort ~values:(Programs.sort_values ~seed:3 ~n:6)

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

(* Run [cases] (name, network builder, mode, capacity, fault) as one
   batch: no lane is refused, every lane halts, and each equals its solo
   Fast and Engine runs. *)
let check_router ~seed cases =
  let b =
    Batch.create ~record_traces:true
      (Array.of_list
         (List.map
            (fun (_, net, mode, capacity, fault) ->
              { Batch.net = net (); mode; capacity; fault; max_cycles;
                cancel = Wp_util.Cancel.never })
            cases))
  in
  Array.iter
    (function
      | Wp_sim.Engine.Halted _ -> ()
      | _ -> Alcotest.fail "a router lane did not halt")
    (Batch.run b);
  let failures = ref [] in
  let note s = failures := s :: !failures in
  List.iteri
    (fun lane (ctx, net, mode, capacity, fault) ->
      compare_lane ~note ~seed ~ctx b ~lane ~net ~mode ~capacity ~fault)
    cases;
  match List.rev !failures with
  | [] -> ()
  | fs -> Alcotest.failf "%d router failure(s):\n%s" (List.length fs) (String.concat "\n" fs)

(* Batch used to refuse unbounded FIFOs; now the replay refuses them and
   the router hands them to Fast.  Both machines and both shell modes,
   with and without relay stations. *)
let test_capacity_zero_batches () =
  let program = sort6 () in
  check_router ~seed:3
    (List.concat_map
       (fun machine ->
         List.concat_map
           (fun (rs, config) ->
             List.map
               (fun mode ->
                 ( Printf.sprintf "capacity 0 %s/%s %s" (Datapath.machine_name machine)
                     (mode_name mode) rs,
                   soc_net ~machine program config, mode, 0, Fault.none ))
               [ Shell.Plain; Shell.Oracle ])
           [ ("no RS", Config.zero); ("battery RS", battery_config 3) ])
       [ Datapath.Pipelined; Datapath.Multicycle ])

(* Batch used to refuse a link-protected channel; now the replay refuses
   it and the router hands it to Fast.  One protected channel, as a
   user's --protect list makes, in both shell modes, and once under
   jitter, which the link layer absorbs. *)
let test_protection_batches () =
  let program = sort6 () in
  let protected_ () =
    let net = soc_net ~machine:Datapath.Pipelined program (battery_config 4) () in
    Network.set_protection net 0 (Some { Network.window = 4; timeout = 16 });
    net
  in
  check_router ~seed:4
    [
      ("protected plain", protected_, Shell.Plain, 2, Fault.none);
      ("protected oracle", protected_, Shell.Oracle, 2, Fault.none);
      ("protected jitter", protected_, Shell.Plain, 2, Fault.of_string ~seed:13 "jitter:10@300");
    ]

(* One batch of every kind of lane the router sees: unfaulted Plain and
   Oracle lanes (replays), and a faulted, a capacity-0 and a
   link-protected lane (the last two are unfaulted, so the replay is
   tried and refuses them).  Each lane equals its solo Fast and Engine
   runs. *)
let test_router_mixed_lanes () =
  let plain = soc_net ~machine:Datapath.Pipelined (sort6 ()) (battery_config 5) in
  let protected_ () =
    let net = plain () in
    List.iter
      (fun c -> Network.set_protection net c (Some { Network.window = 4; timeout = 16 }))
      (Network.channels net);
    net
  in
  check_router ~seed:5
    [
      ("unfaulted plain", plain, Shell.Plain, 2, Fault.none);
      ("unfaulted oracle", plain, Shell.Oracle, 2, Fault.none);
      ("jitter", plain, Shell.Oracle, 2, Fault.of_string ~seed:11 "jitter:10@300");
      ("capacity 0", plain, Shell.Plain, 0, Fault.none);
      ("link-protected", protected_, Shell.Plain, 2, Fault.none);
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

(* Different topologies in one batch: each lane has a kernel of its own
   and must stay byte-identical to its solo Fast run. *)
let test_mixed_topologies_batch () =
  let lanes =
    [| ring_lane 3 ~rs:1; ring_lane 4 ~rs:1; ring_lane 3 ~rs:0;
       ring_lane 5 ~rs:2 |]
  in
  checkb "rings 3 and 4 have distinct signatures" false
    (Batch.signature lanes.(0).Batch.net = Batch.signature lanes.(1).Batch.net);
  checkb "rs does not enter the signature" true
    (Batch.signature lanes.(0).Batch.net = Batch.signature lanes.(2).Batch.net);
  let b = Batch.create ~record_traces:true lanes in
  let out = Batch.run b in
  Array.iteri
    (fun lane ln ->
      let sim =
        Sim.create ~engine:Sim.Fast ~capacity:ln.Batch.capacity
          ~record_traces:true ~mode:Shell.Plain ln.Batch.net
      in
      let solo = Sim.run ~max_cycles:ln.Batch.max_cycles sim in
      checkb (Printf.sprintf "lane %d outcome" lane) true
        (Batch.outcome b ~lane = Some solo);
      checki (Printf.sprintf "lane %d cycles" lane)
        (Sim.cycles sim) (Batch.lane_cycles b ~lane);
      checkb (Printf.sprintf "lane %d outcome array" lane) true
        (out.(lane) = solo);
      let net = ln.Batch.net in
      List.iter
        (fun c ->
          checki
            (Printf.sprintf "lane %d delivered(%d)" lane c)
            (Sim.delivered sim c)
            (Batch.delivered b ~lane c))
        (Network.channels net);
      List.iter
        (fun n ->
          checkb (Printf.sprintf "lane %d stats(%d)" lane n) true
            (Batch.node_stats b ~lane n = Sim.node_stats sim n);
          checkb (Printf.sprintf "lane %d trace(%d)" lane n) true
            (Batch.output_trace b ~lane n 0 = Sim.output_trace sim n 0))
        (Network.nodes net))
    lanes

(* The two SoC machines share one topology (5 blocks, same wiring), so
   lanes from different machines batch together legitimately. *)
let test_mixed_machines_batch () =
  let b =
    Batch.create
      [| soc_lane ~machine:Datapath.Pipelined; soc_lane ~machine:Datapath.Multicycle |]
  in
  Array.iter
    (function
      | Wp_sim.Engine.Halted _ -> ()
      | _ -> Alcotest.fail "mixed-machine lane did not halt")
    (Batch.run b)

(* Destructive Break faults may make process closures raise; the batch
   kernel must fail with exactly the sequential kernel's error. *)
let test_destructive_fault_raises_identically () =
  let seed = 9 in
  let program = Random_program.generate ~seed () in
  let config = battery_config seed in
  let fault = Fault.of_string ~seed:(2000 + seed) "drop:1:4" in
  let build () =
    Datapath.build ~machine:Datapath.Pipelined ~rs:(Config.to_fun config)
      program
  in
  let solo_err =
    let sim =
      Sim.create ~engine:Sim.Fast ~capacity:2 ~fault ~mode:Shell.Oracle
        (build ()).Datapath.network
    in
    match Sim.run ~max_cycles sim with
    | _ -> None
    | exception Failure m -> Some m
  in
  let batch_err =
    let lane =
      { Batch.net = (build ()).Datapath.network; mode = Shell.Oracle;
        capacity = 2; fault; max_cycles; cancel = Wp_util.Cancel.never }
    in
    match Batch.run (Batch.create [| lane |]) with
    | _ -> None
    | exception Failure m -> Some m
  in
  checkb "destructive fault raised in both engines" true
    (solo_err <> None && solo_err = batch_err)

(* ------------------------------------------------------------------ *)
(* Cpu.run_batch against sequential Cpu.run                            *)
(* ------------------------------------------------------------------ *)

let test_run_batch_matches_run () =
  let machine = Datapath.Pipelined in
  let mk ?max_cycles ?mcr_work ?(fault = Fault.none) ?protect ~mode ~capacity seed =
    let program = Random_program.generate ~seed () in
    let config = battery_config seed in
    ( {
        Cpu.b_mode = mode;
        b_rs = Config.to_fun config;
        b_capacity = capacity;
        b_max_cycles = max_cycles;
        b_mcr_work = mcr_work;
        b_fault = fault;
        b_protect = protect;
        b_cancel = Wp_util.Cancel.never;
        b_program = program;
      },
      fun () ->
        Cpu.run ~engine:Sim.Fast ~capacity ?max_cycles ?mcr_work ~fault ?protect
          ~machine ~mode ~rs:(Config.to_fun config) program )
  in
  let golden_cycles seed =
    (Cpu.run_golden ~machine (Random_program.generate ~seed ())).Cpu.cycles
  in
  let items =
    [
      mk ~mode:Shell.Plain ~capacity:2 1;
      mk ~mode:Shell.Oracle ~capacity:3 2;
      (* tight explicit budget: must exhaust identically *)
      mk ~max_cycles:40 ~mode:Shell.Plain ~capacity:2 3;
      (* MCR-guided budget path *)
      mk ~mcr_work:(golden_cycles 4) ~mode:Shell.Oracle ~capacity:2 4;
      (* faulted lane: full budget path *)
      mk ~fault:(Fault.of_string ~seed:11 "jitter:10@300") ~mode:Shell.Plain
        ~capacity:2 5;
      (* unbounded FIFOs, MCR-guided *)
      mk ~mcr_work:(golden_cycles 6) ~mode:Shell.Plain ~capacity:0 6;
      (* protected lane: full budget path, as for a fault; the link
         layer freezes a jittered protected channel where a bare one
         stops its producer *)
      mk ~mcr_work:(golden_cycles 7)
        ~fault:(Fault.of_string ~seed:13 "jitter:10@300")
        ~protect:(Wp_core.Protect.to_fun (Wp_core.Protect.all ()))
        ~mode:Shell.Oracle ~capacity:2 7;
    ]
  in
  let batch = Cpu.run_batch ~machine (Array.of_list (List.map fst items)) in
  List.iteri
    (fun i (_, solo) ->
      let s = solo () in
      checkb (Printf.sprintf "item %d equals sequential run" i) true
        (batch.(i) = s))
    items;
  checki "batch size" (List.length items) (Array.length batch)

(* ------------------------------------------------------------------ *)
(* Run_spec.run_cpu: batchable specs on Batch, the rest on Fast         *)
(* ------------------------------------------------------------------ *)

module Run_spec = Wp_core.Run_spec

let fast_spec = Run_spec.v ~engine:Sim.Fast ()

let spec_of_args ?fault ?protect ?stall_report ?capacity () =
  match
    Run_spec.of_args ~engine:"fast" ?fault ?protect ?stall_report ?capacity ()
  with
  | Ok s -> s
  | Error m -> Alcotest.fail m

let solo_fast ?cancel ?mcr_work (spec : Run_spec.t) ~machine ~mode ~rs program =
  let protect = Run_spec.protect_fun spec in
  Cpu.run ~engine:Sim.Fast ~capacity:spec.Run_spec.capacity ?cancel
    ?max_cycles:spec.Run_spec.max_cycles ?mcr_work ~fault:spec.Run_spec.fault
    ?protect ~telemetry:spec.Run_spec.telemetry ~machine ~mode ~rs program

(* Every row of Table 1 (the golden's inputs: sort over 10 values and a
   3x3 matmul, both machines), on both wrappers: the one-lane batch that
   [run_cpu] runs returns what the Fast kernel returns. *)
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
                  let solo = solo_fast ~mcr_work fast_spec ~machine ~mode ~rs program in
                  incr compared;
                  checkb
                    (Printf.sprintf "%s %s row %d %s = Fast"
                       (Datapath.machine_name machine) program.Program.name
                       row.Wp_core.Table1.index (mode_name mode))
                    true
                    (r = solo && tabled = solo))
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
    checkb (Printf.sprintf "seed %d batchable" seed) true (Run_spec.batchable spec);
    let mcr_work = (Cpu.run_golden ~machine program).Cpu.cycles in
    List.iter
      (fun mode ->
        checkb
          (Printf.sprintf "seed %d %s = Fast" seed (mode_name mode))
          true
          (Run_spec.run_cpu ~mcr_work ~spec ~machine ~mode ~rs program
          = solo_fast ~mcr_work spec ~machine ~mode ~rs program))
      [ Shell.Plain; Shell.Oracle ]
  done

let matmul2 () = Result.get_ok (Programs.of_string "matmul:2")

(* A Batch lane names no engine and carries no telemetry, and a
   destructive fault could abort the lanes after it: those specs run on
   Cpu.run.  Capacity 0 and protection ride Batch, which hands them to
   the Fast kernel.  Either way the result is Fast's. *)
let test_run_cpu_unbatchable () =
  let machine = Datapath.Pipelined in
  let program = matmul2 () in
  let rs = Config.to_fun (battery_config 7) in
  let mcr_work = (Cpu.run_golden ~machine program).Cpu.cycles in
  let run spec mode = Run_spec.run_cpu ~mcr_work ~spec ~machine ~mode ~rs program in
  let telemetered = spec_of_args ~stall_report:true () in
  let unbounded = spec_of_args ~capacity:0 () in
  let protected_ = spec_of_args ~protect:"all" () in
  let protected_jitter = spec_of_args ~fault:"jitter:10" ~protect:"all" () in
  let protected_drop = spec_of_args ~fault:"drop:3:1" ~protect:"all" () in
  List.iter
    (fun (spec, batchable) ->
      checkb (Run_spec.describe spec ^ " batchable") batchable (Run_spec.batchable spec))
    [
      (unbounded, true);
      (protected_, true);
      (protected_jitter, true);
      (telemetered, false);
      (protected_drop, false);
      (Run_spec.v ~engine:Sim.Reference (), false);
    ];
  List.iter
    (fun mode ->
      let m = mode_name mode in
      checkb (m ^ " telemetry reported") true
        ((run telemetered mode).Cpu.telemetry <> None);
      List.iter
        (fun (what, spec) ->
          let r = run spec mode in
          checkb (Printf.sprintf "%s %s completes correctly" m what) true
            (r.Cpu.outcome = Cpu.Completed && r.Cpu.result_ok);
          checkb (Printf.sprintf "%s %s = Fast" m what) true
            (r = solo_fast ~mcr_work spec ~machine ~mode ~rs program))
        [
          ("capacity 0", unbounded);
          ("protect all", protected_);
          ("protect all + jitter", protected_jitter);
          ("protect all + drop", protected_drop);
        ])
    [ Shell.Plain; Shell.Oracle ]

(* A destructive fault on an unprotected link derails the CU; the error
   [wp_cli run] prints is the same whichever kernel ran the spec. *)
let test_run_cpu_destructive_error () =
  let machine = Datapath.Pipelined in
  let program = matmul2 () in
  let rs = Cpu.no_relay_stations in
  let spec = spec_of_args ~fault:"drop:3:1" () in
  checkb "destructive fault unbatchable" false (Run_spec.batchable spec);
  let error f = match f () with _ -> None | exception Failure m -> Some m in
  List.iter
    (fun mode ->
      let via_run_cpu =
        error (fun () -> Run_spec.run_cpu ~spec ~machine ~mode ~rs program)
      in
      let via_fast = error (fun () -> solo_fast spec ~machine ~mode ~rs program) in
      let via_batch =
        error (fun () ->
            Cpu.run_batch ~machine
              [|
                {
                  Cpu.b_mode = mode;
                  b_rs = rs;
                  b_capacity = 2;
                  b_max_cycles = None;
                  b_mcr_work = None;
                  b_fault = spec.Run_spec.fault;
                  b_protect = None;
                  b_cancel = Wp_util.Cancel.never;
                  b_program = program;
                };
              |])
      in
      checkb (mode_name mode ^ " raised") true (via_run_cpu <> None);
      checkb (mode_name mode ^ " same message on every path") true
        (via_run_cpu = via_fast && via_fast = via_batch))
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
      let solo = solo_fast ~cancel fast_spec ~machine ~mode ~rs program in
      checkb (mode_name mode ^ " cancelled") true (r.Cpu.outcome = Cpu.Cancelled);
      checki (mode_name mode ^ " same cycle") solo.Cpu.cycles r.Cpu.cycles;
      checkb (mode_name mode ^ " = Fast") true (r = solo))
    [ Shell.Plain; Shell.Oracle ]

(* ------------------------------------------------------------------ *)
(* The Oracle replay: transitions learnt during the run                *)
(* ------------------------------------------------------------------ *)

module Static = Wp_sim.Static
module Engine = Wp_sim.Engine

(* Every observable of one run, read through a kernel's accessors. *)
let observe net ~outcome ~cycles ~delivered ~stats ~trace =
  ( outcome,
    cycles,
    List.map delivered (Network.channels net),
    List.map stats (Network.nodes net),
    List.map
      (fun n -> List.init (Process.n_outputs (Network.node_process net n)) (trace n))
      (Network.nodes net) )

let observe_sim ?(max_cycles = max_cycles) ~engine ~mode net =
  let sim = Sim.create ~engine ~record_traces:true ~mode net in
  let outcome = Sim.run ~max_cycles sim in
  observe net ~outcome ~cycles:(Sim.cycles sim) ~delivered:(Sim.delivered sim)
    ~stats:(Sim.node_stats sim) ~trace:(Sim.output_trace sim)

let observe_replay ?(max_cycles = max_cycles) ~mode net =
  let st = Static.create ~record_traces:true ~mode net in
  let outcome = Static.run ~max_cycles st in
  observe net ~outcome ~cycles:(Static.cycles st) ~delivered:(Static.delivered st)
    ~stats:(Static.node_stats st) ~trace:(Static.output_trace st)

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
      let cases = early_halt_cases () in
      List.iter
        (fun (name, program, config) ->
          let net () =
            (Datapath.build ~machine ~rs:(Config.to_fun config) program).Datapath.network
          in
          let ctx what = Printf.sprintf "%s %s: replay = %s" (Datapath.machine_name machine) name what in
          let replayed = observe_replay ~mode:Shell.Oracle (net ()) in
          checkb (ctx "Fast") true
            (replayed = observe_sim ~engine:Sim.Fast ~mode:Shell.Oracle (net ()));
          checkb (ctx "Engine") true
            (replayed = observe_sim ~engine:Sim.Reference ~mode:Shell.Oracle (net ())))
        cases;
      let items =
        Array.of_list
          (List.map
             (fun (_, program, config) ->
               {
                 Cpu.b_mode = Shell.Oracle;
                 b_rs = Config.to_fun config;
                 b_capacity = 2;
                 b_max_cycles = None;
                 b_mcr_work = None;
                 b_fault = Fault.none;
                 b_protect = None;
                 b_cancel = Wp_util.Cancel.never;
                 b_program = program;
               })
             cases)
      in
      let batch = Cpu.run_batch ~machine items in
      List.iteri
        (fun i (name, program, config) ->
          let solo engine =
            Cpu.run ~engine ~machine ~mode:Shell.Oracle ~rs:(Config.to_fun config) program
          in
          let ctx what =
            Printf.sprintf "%s %s: run_batch = %s" (Datapath.machine_name machine) name what
          in
          checkb (ctx "Fast") true (batch.(i) = solo Sim.Fast);
          checkb (ctx "Engine") true (batch.(i) = solo Sim.Reference))
        cases)
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
    let outcome = Static.run ~max_cycles st in
    observe n ~outcome ~cycles:(Static.cycles st) ~delivered:(Static.delivered st)
      ~stats:(Static.node_stats st) ~trace:(Static.output_trace st)
  in
  let (outcome, _, _, _, _) as once = observe_replay ~mode:Shell.Oracle (net ()) in
  checkb "the run halts" true (match outcome with Engine.Halted _ -> true | _ -> false);
  checkb "resumed = one run" true (resumed = once);
  checkb "one run = Fast" true (once = observe_sim ~engine:Sim.Fast ~mode:Shell.Oracle (net ()))

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
            (r = observe_sim ~engine:Sim.Fast ~mode:Shell.Oracle (net seed)))
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
      ( "cpu",
        [
          Alcotest.test_case "run_batch = run" `Quick test_run_batch_matches_run;
        ] );
      ( "run_cpu",
        [
          Alcotest.test_case "Table 1 rows = Fast" `Quick test_run_cpu_table1_rows;
          Alcotest.test_case "50-seed battery = Fast" `Quick test_run_cpu_battery;
          Alcotest.test_case "unbatchable specs run on Fast" `Quick
            test_run_cpu_unbatchable;
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
