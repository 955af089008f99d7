(* Tests for Wp_sim.Telemetry and the observability plumbing around it:

   - the classification rule itself;
   - byte-identical counters and traces across the Reference and Fast
     kernels, on synthetic rings and on the full Table 1 SoC network;
   - conservation: per-node class totals and per-channel occupancy
     histograms sum exactly to the run's cycle count;
   - summary algebra (merge/diff) round trips;
   - the Table 1 stall-attribution invariants (delta = CU stall
     difference, zero WP2 oracle-skip, delta within the skip pool);
   - link-recovery counters folded into the telemetry summary;
   - the compile-time-off fast path: a Fast steady state with telemetry
     off allocates zero words per cycle;
   - Run_spec: digest coverage, of_args round trips and error paths. *)

module Process = Wp_lis.Process
module Shell = Wp_lis.Shell
module Network = Wp_sim.Network
module Engine = Wp_sim.Engine
module Fast = Wp_sim.Fast
module Sim = Wp_sim.Sim
module Telemetry = Wp_sim.Telemetry
module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Cpu = Wp_soc.Cpu
module Config = Wp_core.Config
module Run_spec = Wp_core.Run_spec
module Table1 = Wp_core.Table1
module Experiment = Wp_core.Experiment

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Builders                                                           *)
(* ------------------------------------------------------------------ *)

let relay name =
  Process.unary ~name ~input_name:"i" ~output_name:"o" ~reset:0 succ

let ring m ~rs =
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

let report_exn = function
  | Some (r : Telemetry.report) -> r
  | None -> Alcotest.fail "expected a telemetry report, got None"

let run_ring ~engine ~telemetry ~mode ~capacity ~cycles net =
  let sim = Sim.create ~engine ~capacity ~telemetry ~mode net in
  ignore (Sim.run ~max_cycles:cycles sim);
  report_exn (Sim.telemetry_report sim)

(* ------------------------------------------------------------------ *)
(* Classification rule                                                *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let c = Telemetry.classify in
  checkb "fired wins" true
    (c ~fired:true ~ready:true ~outputs_clear:true ~oracle_ready:false
       ~link_blocked:false
    = Telemetry.Fired);
  checkb "oracle skip" true
    (c ~fired:false ~ready:false ~outputs_clear:true ~oracle_ready:true
       ~link_blocked:false
    = Telemetry.Oracle_skip);
  checkb "missing input" true
    (c ~fired:false ~ready:false ~outputs_clear:true ~oracle_ready:false
       ~link_blocked:false
    = Telemetry.Missing_input);
  checkb "starved and blocked is missing input" true
    (c ~fired:false ~ready:false ~outputs_clear:false ~oracle_ready:false
       ~link_blocked:false
    = Telemetry.Missing_input);
  checkb "backpressure" true
    (c ~fired:false ~ready:true ~outputs_clear:false ~oracle_ready:false
       ~link_blocked:false
    = Telemetry.Output_backpressure);
  checkb "link credit" true
    (c ~fired:false ~ready:true ~outputs_clear:false ~oracle_ready:false
       ~link_blocked:true
    = Telemetry.Link_credit);
  (* Codes are stable in declaration order. *)
  List.iteri
    (fun i cls -> checki "cls code" i (Telemetry.cls_code cls))
    [
      Telemetry.Fired;
      Telemetry.Oracle_skip;
      Telemetry.Missing_input;
      Telemetry.Output_backpressure;
      Telemetry.Link_credit;
    ]

let test_spec_digests () =
  checkb "off" true (Telemetry.spec_digest Telemetry.off = "notel");
  checkb "counters" true (Telemetry.spec_digest Telemetry.counters = "tel");
  checkb "trace" true
    (Telemetry.spec_digest (Telemetry.with_trace ~depth:128 ())
    = "tel+trace:128");
  checkb "off is off" true (Telemetry.is_off Telemetry.off);
  checkb "counters not off" false (Telemetry.is_off Telemetry.counters)

(* ------------------------------------------------------------------ *)
(* Engine differential: counters and traces byte-identical            *)
(* ------------------------------------------------------------------ *)

let trace_equal (a : Telemetry.trace) (b : Telemetry.trace) =
  a.Telemetry.t0 = b.Telemetry.t0
  && a.Telemetry.steps = b.Telemetry.steps
  && a.Telemetry.node_names = b.Telemetry.node_names
  && a.Telemetry.chan_labels = b.Telemetry.chan_labels
  && a.Telemetry.node_cls = b.Telemetry.node_cls
  && a.Telemetry.chan_valid = b.Telemetry.chan_valid
  && a.Telemetry.chan_stop = b.Telemetry.chan_stop
  && a.Telemetry.chan_words = b.Telemetry.chan_words

let test_ring_differential () =
  List.iter
    (fun (m, rs, capacity, mode) ->
      let telemetry = Telemetry.with_trace ~depth:64 () in
      let make engine =
        run_ring ~engine ~telemetry ~mode ~capacity ~cycles:200 (ring m ~rs)
      in
      let r = make Sim.Reference and f = make Sim.Fast in
      checkb
        (Printf.sprintf "ring %d rs %d cap %d: summaries equal" m rs capacity)
        true
        (Telemetry.summary_equal r.Telemetry.summary f.Telemetry.summary);
      match (r.Telemetry.event_trace, f.Telemetry.event_trace) with
      | Some tr, Some tf ->
        checkb
          (Printf.sprintf "ring %d rs %d cap %d: traces equal" m rs capacity)
          true (trace_equal tr tf)
      | _ -> Alcotest.fail "expected traces from both engines")
    [
      (2, 0, 2, Shell.Plain);
      (3, 2, 2, Shell.Plain);
      (4, 3, 1, Shell.Plain);
      (3, 1, 2, Shell.Oracle);
    ]

let sort_program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:1 ~n:8)

let run_soc ~engine ~mode ~telemetry config =
  let spec = Run_spec.v ~engine ~telemetry () in
  let r =
    Run_spec.run_cpu ~spec ~machine:Datapath.Pipelined ~mode
      ~rs:(Config.to_fun config) sort_program
  in
  checkb "run completed" true (r.Cpu.outcome = Cpu.Completed);
  (r.Cpu.cycles, report_exn r.Cpu.telemetry)

let test_soc_differential () =
  List.iter
    (fun (config, mode) ->
      let telemetry = Telemetry.with_trace ~depth:128 () in
      let cr, rr = run_soc ~engine:Sim.Reference ~mode ~telemetry config in
      let cf, rf = run_soc ~engine:Sim.Fast ~mode ~telemetry config in
      checki "cycle counts equal" cr cf;
      checkb "summaries equal" true
        (Telemetry.summary_equal rr.Telemetry.summary rf.Telemetry.summary);
      match (rr.Telemetry.event_trace, rf.Telemetry.event_trace) with
      | Some tr, Some tf -> checkb "traces equal" true (trace_equal tr tf)
      | _ -> Alcotest.fail "expected traces from both engines")
    [
      (Config.zero, Shell.Plain);
      (Config.only Datapath.RF_DC 1, Shell.Plain);
      (Config.only Datapath.RF_DC 1, Shell.Oracle);
      (Config.uniform ~except:[ Datapath.CU_IC ] 1, Shell.Oracle);
    ]

(* ------------------------------------------------------------------ *)
(* Conservation: histograms and class totals sum to the cycle count   *)
(* ------------------------------------------------------------------ *)

let test_conservation () =
  let check_summary what (s : Telemetry.summary) =
    Array.iter
      (fun ns ->
        checki
          (Printf.sprintf "%s: node %s classes sum to cycles" what
             ns.Telemetry.node_name)
          s.Telemetry.cycles (Telemetry.node_cycles ns))
      s.Telemetry.nodes;
    Array.iter
      (fun cs ->
        let occ_total = Array.fold_left ( + ) 0 cs.Telemetry.occupancy in
        checki
          (Printf.sprintf "%s: channel %s occupancy sums to cycles" what
             cs.Telemetry.chan_label)
          s.Telemetry.cycles occ_total;
        checkb
          (Printf.sprintf "%s: channel %s valid <= delivered" what
             cs.Telemetry.chan_label)
          true
          (cs.Telemetry.valid_cycles <= cs.Telemetry.delivered))
      s.Telemetry.channels
  in
  let rep =
    run_ring ~engine:Sim.Fast ~telemetry:Telemetry.counters ~mode:Shell.Plain
      ~capacity:2 ~cycles:300 (ring 3 ~rs:2)
  in
  check_summary "ring" rep.Telemetry.summary;
  let _, rep =
    run_soc ~engine:Sim.Fast ~mode:Shell.Plain ~telemetry:Telemetry.counters
      (Config.only Datapath.RF_DC 1)
  in
  check_summary "soc" rep.Telemetry.summary

let test_merge_diff () =
  let run cycles =
    (run_ring ~engine:Sim.Fast ~telemetry:Telemetry.counters ~mode:Shell.Plain
       ~capacity:2 ~cycles (ring 3 ~rs:2))
      .Telemetry.summary
  in
  let a = run 100 and b = run 250 in
  let m = Telemetry.merge a b in
  checki "merged cycles add" (a.Telemetry.cycles + b.Telemetry.cycles)
    m.Telemetry.cycles;
  let back = Telemetry.diff m a in
  checkb "diff undoes merge" true (Telemetry.summary_equal back b);
  checkb "merge_opt absorbs" true
    (match Telemetry.merge_opt None a with
    | Some s -> Telemetry.summary_equal s a
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Table 1 attribution invariants                                     *)
(* ------------------------------------------------------------------ *)

let test_attribution () =
  let runner = Wp_core.Runner.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Wp_core.Runner.shutdown runner)
    (fun () ->
      let spec = Run_spec.v ~telemetry:Telemetry.counters () in
      let rows =
        Table1.sort_rows ~spec
          ~values:(Programs.sort_values ~seed:1 ~n:10)
          ~runner ~machine:Datapath.Pipelined ()
      in
      match Table1.attribute rows with
      | None -> Alcotest.fail "expected attributions (telemetry was on)"
      | Some atts ->
        checki "one attribution per row" (List.length rows) (List.length atts);
        List.iter
          (fun (a : Table1.attribution) ->
            checkb
              (Printf.sprintf "row %d (%s): delta equals CU stall difference"
                 a.Table1.att_index a.Table1.att_label)
              true
              (abs (a.Table1.delta_cycles - a.Table1.cu_stall_delta)
              <= a.Table1.att_tolerance);
            checki
              (Printf.sprintf "row %d: WP2 records no oracle-skip"
                 a.Table1.att_index)
              0 a.Table1.wp2_skip;
            checkb
              (Printf.sprintf "row %d: delta within the skip pool"
                 a.Table1.att_index)
              true
              (a.Table1.delta_cycles
              <= a.Table1.skip_pool + a.Table1.att_tolerance);
            checkb
              (Printf.sprintf "row %d: explained" a.Table1.att_index)
              true a.Table1.explained)
          atts;
        (* The runner aggregated every row's telemetry. *)
        let stats = Wp_core.Runner.stats runner in
        (match stats.Wp_core.Runner.telemetry with
        | None -> Alcotest.fail "runner should have aggregated telemetry"
        | Some tel -> checkb "aggregate covers cycles" true (tel.Telemetry.cycles > 0));
        (* And the stall report renders without telemetry being lost. *)
        let report = Table1.render_stall_report ~title:"t" rows in
        checkb "report mentions oracle-skip" true
          (contains report "oracle-skip"))

(* ------------------------------------------------------------------ *)
(* Link recoveries folded into the summary                            *)
(* ------------------------------------------------------------------ *)

let test_link_in_summary () =
  let spec =
    Run_spec.v ~telemetry:Telemetry.counters
      ~fault:(Wp_sim.Fault.of_string ~seed:7 "drop:8:2")
      ~protect:(Wp_core.Protect.of_string "all")
      ()
  in
  let r =
    Run_spec.run_cpu ~spec ~machine:Datapath.Pipelined ~mode:Shell.Plain
      ~rs:(Config.to_fun (Config.only Datapath.RF_DC 1))
      sort_program
  in
  checkb "protected faulted run completed correctly" true
    (r.Cpu.outcome = Cpu.Completed && r.Cpu.result_ok);
  let rep = report_exn r.Cpu.telemetry in
  match rep.Telemetry.summary.Telemetry.link with
  | None -> Alcotest.fail "summary should fold in the link counters"
  | Some l ->
    checkb "channels protected" true (l.Wp_sim.Link.protected_channels > 0);
    checkb "the drop was recovered" true (l.Wp_sim.Link.recoveries > 0);
    (* And the rendered stall report surfaces the recoveries. *)
    let table = Telemetry.to_table rep.Telemetry.summary in
    checkb "report mentions recoveries" true (contains table "recover")

(* ------------------------------------------------------------------ *)
(* Telemetry-off fast path: zero steady-state allocation              *)
(* ------------------------------------------------------------------ *)

let test_off_zero_alloc () =
  (* A two-node zero-RS ring under capacity-1 FIFOs deadlocks at reset:
     every step executes all kernel phases but nothing fires, so any
     allocated word is the kernel's own (same probe as sim_bench). *)
  let net = ring 2 ~rs:0 in
  let f = Fast.create ~capacity:1 ~mode:Shell.Plain net in
  for _ = 1 to 1_000 do
    Fast.step f
  done;
  Gc.full_major ();
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  for _ = 1 to 50_000 do
    Fast.step f
  done;
  let dw = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  checkb
    (Printf.sprintf "telemetry-off Fast steady state allocates 0 words (got %.1f)" dw)
    true (dw = 0.0);
  checkb "no report when off" true (Fast.telemetry_report f = None)

(* ------------------------------------------------------------------ *)
(* Run_spec                                                           *)
(* ------------------------------------------------------------------ *)

let test_run_spec () =
  checkb "fast digest" true
    (Run_spec.digest (Run_spec.v ~engine:Sim.Fast ()) = "fast|cap2|mcr|nofault|noprot|notel");
  (* The default engine follows WIREPIPE_ENGINE, and so does the default
     spec's digest. *)
  let d = Run_spec.digest Run_spec.default in
  checkb "default digest" true
    (d = Sim.kind_to_string Sim.default_kind ^ "|cap2|mcr|nofault|noprot|notel");
  let s1 = Run_spec.v ~telemetry:Telemetry.counters () in
  checkb "telemetry changes the digest" false (Run_spec.digest s1 = d);
  checkb "equal by digest" true (Run_spec.equal Run_spec.default Run_spec.default);
  (match Run_spec.of_args () with
  | Ok s -> checkb "of_args default" true (Run_spec.equal s Run_spec.default)
  | Error e -> Alcotest.failf "of_args default failed: %s" e);
  (match
     Run_spec.of_args ~engine:"ref" ~capacity:3 ~max_cycles:1234
       ~fault:"jitter:10" ~fault_seed:9 ~protect:"all" ~stall_report:true
       ~trace_depth:32 ()
   with
  | Ok s ->
    checkb "engine parsed" true (s.Run_spec.engine = Sim.Reference);
    checki "capacity parsed" 3 s.Run_spec.capacity;
    checkb "max_cycles parsed" true (s.Run_spec.max_cycles = Some 1234);
    checkb "fault parsed" false (Wp_sim.Fault.is_none s.Run_spec.fault);
    checkb "protect parsed" false (Wp_core.Protect.is_none s.Run_spec.protect);
    checkb "trace wins over stall_report" true
      (s.Run_spec.telemetry.Telemetry.trace_depth = 32
      && s.Run_spec.telemetry.Telemetry.counters)
  | Error e -> Alcotest.failf "of_args full failed: %s" e);
  let expect_error what r =
    match r with
    | Ok _ -> Alcotest.failf "%s should have been rejected" what
    | Error _ -> ()
  in
  expect_error "bad engine" (Run_spec.of_args ~engine:"warp" ());
  expect_error "bad fault" (Run_spec.of_args ~fault:"gremlins" ());
  expect_error "bad protect" (Run_spec.of_args ~protect:"CU-XX" ());
  expect_error "negative capacity" (Run_spec.of_args ~capacity:(-1) ());
  expect_error "zero max_cycles" (Run_spec.of_args ~max_cycles:0 ());
  expect_error "negative trace depth" (Run_spec.of_args ~trace_depth:(-2) ())

let () =
  Alcotest.run "telemetry"
    [
      ( "rules",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "spec digests" `Quick test_spec_digests;
        ] );
      ( "differential",
        [
          Alcotest.test_case "ring counters+traces" `Quick test_ring_differential;
          Alcotest.test_case "soc counters+traces" `Slow test_soc_differential;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "histograms sum to cycles" `Quick test_conservation;
          Alcotest.test_case "merge/diff" `Quick test_merge_diff;
        ] );
      ( "attribution",
        [ Alcotest.test_case "table1 invariants" `Slow test_attribution ] );
      ( "link",
        [ Alcotest.test_case "recoveries in summary" `Quick test_link_in_summary ] );
      ( "fast-path",
        [ Alcotest.test_case "off = zero alloc" `Quick test_off_zero_alloc ] );
      ( "run-spec",
        [ Alcotest.test_case "digest and of_args" `Quick test_run_spec ] );
    ]
