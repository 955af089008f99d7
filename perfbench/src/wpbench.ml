(* One benchmark run of one workload.

     wpbench.exe --workload table1|sweep|flow|serve --seed N --seconds S --trace 0|1

   Prints host facts and human-readable percentiles, then, as the last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones, measured around calls into each layer, and the spans
   are written as Chrome trace_event JSON under .perfbench/.  Exits 1 when
   any check fails. *)

open Perfbench

let per_layer =
  [
    ("fast.run_ms", "ms");
    ("fast.cycles_per_s", "1/s");
    ("fast.words_per_cycle", "words");
    ("datapath.build_ms", "ms");
    ("optimizer.optimal_ms", "ms");
    ("runner.tasks", "count");
    ("runner.cache_hit_ratio", "ratio");
    ("experiment.golden_ms", "ms");
    ("table1.sim_cycles", "cycles");
    ("topology.build_ms", "ms");
    ("topology.mcr_ms", "ms");
    ("batch.create_ms", "ms");
    ("batch.run_ms", "ms");
    ("batch.lane_cycles_per_s", "1/s");
    ("batch.signatures", "count");
    ("batch.lanes", "count");
    ("static.replay_ms", "ms");
    ("engine.reference_ms", "ms");
    ("sweep.scenarios", "count");
    ("sweep.disagreements", "count");
    ("flow_scale.moves", "count");
    ("flow_scale.evaluations", "count");
    ("flow_scale.eval_hit_ratio", "ratio");
    ("incremental.solve_us", "us");
    ("incremental.solves", "count");
    ("howard.cold_ms", "ms");
    ("static.capacity_graph_ms", "ms");
    ("wire.encode_us", "us");
    ("client.send_us", "us");
    ("wire.decode_us", "us");
    ("runner.serve_ms", "ms");
    ("service.wait_ms", "ms");
    ("service.cache_hit_ratio", "ratio");
    ("service.busy", "count");
    ("service.errors", "count");
    ("service.expired", "count");
    ("service.open_p50_ms", "ms");
    ("service.open_p99_ms", "ms");
    ("generator.lag_ms", "ms");
    ("generator.lag_max_ms", "ms");
    ("trace.overhead_pct", "%");
    ("trace.spans", "count");
  ]

let out_dir = ".perfbench"
let jobs = 1

(* Every per-layer metric, in declaration order; a layer the workload
   never reaches reads 0. *)
let layer_report measured =
  List.map
    (fun (name, unit) ->
      let v = Option.value (List.assoc_opt name measured) ~default:0. in
      Report.m name (if Float.is_nan v then 0. else v) unit)
    per_layer

let print_self_times () =
  Printf.printf "%-28s %7s %12s %12s %12s\n" "span" "calls" "total ms" "self ms" "self p50 ms";
  List.iter
    (fun (a : Trace.agg) ->
      let sum = List.fold_left ( +. ) 0. in
      Printf.printf "%-28s %7d %12.3f %12.3f %12.4f\n" a.Trace.label (List.length a.Trace.totals)
        (sum a.Trace.totals *. 1e3) (sum a.Trace.selfs *. 1e3)
        (Report.median a.Trace.selfs *. 1e3))
    (Trace.aggregate ())

let closed ~name ~seconds ~trace ~warmup ~work_per_op ~layers w =
  let s = Report.closed ~seconds ~warmup ~trace w in
  Report.print_closed ~name s;
  let metrics =
    if trace then
      layer_report
        (("trace.overhead_pct", Report.overhead_pct s)
        :: ("trace.spans", float_of_int (List.length (Trace.all ())))
        :: layers ())
    else Report.closed_metrics ~work_per_op s
  in
  (s.Report.op_failures = 0, s.Report.ops, s.Report.op_failures, warmup, metrics)

let run_workload ~workload ~seed ~seconds ~trace ~expected_path =
  match workload with
  | "table1" ->
    let ic = open_in_bin expected_path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Trace.enabled := trace;
    Table1_wl.prewarm ();
    Trace.enabled := false;
    closed ~name:workload ~seconds ~trace ~warmup:1 ~work_per_op:Table1_wl.rows_per_op
      ~layers:Table1_wl.layer_metrics (Table1_wl.workload ~expected)
  | "sweep" ->
    closed ~name:workload ~seconds ~trace ~warmup:2 ~work_per_op:Sweep_wl.scenarios_per_op
      ~layers:Sweep_wl.layer_metrics (Sweep_wl.workload ~seed)
  | "flow" ->
    closed ~name:workload ~seconds ~trace ~warmup:1 ~work_per_op:1. ~layers:Flow_wl.layer_metrics
      (Flow_wl.workload ~seed)
  | "serve" ->
    let t, behind, e2e, layers = Serve_wl.run ~seed ~seconds ~trace ~dir:out_dir in
    let failed = t.Serve_wl.failed + if behind then 1 else 0 in
    let metrics =
      if trace then
        layer_report (("trace.spans", float_of_int (List.length (Trace.all ()))) :: layers ())
      else e2e
    in
    (failed = 0, t.Serve_wl.attempted, failed, 1, metrics)
  | w -> failwith ("unknown workload " ^ w)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and nproc = ref 0 in
  let expected_path = ref "test/table1.expected" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "table1|sweep|flow|serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
      ("--commit", Arg.Set_string commit, "source revision, recorded with the result");
      ("--nproc", Arg.Set_int nproc, "online CPUs, recorded with the result");
      ("--expected", Arg.Set_string expected_path, "Table 1 golden (test/table1.expected)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wpbench.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Printf.printf
    "host: workload=%s seed=%d seconds=%g trace=%b jobs=%d engine=fast nproc=%d \
     recommended_domains=%d ocaml=%s commit=%s\n\
     %!"
    !workload !seed !seconds trace jobs !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  let correct, attempted, failed, warmup, metrics =
    run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
      ~expected_path:!expected_path
  in
  Printf.printf "ops: attempted=%d failed=%d warm-up=%d\n" attempted failed warmup;
  if trace then begin
    print_self_times ();
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
    Trace.write_chrome path;
    Printf.printf "spans written to %s\n" path
  end;
  List.iter
    (fun (x : Report.metric) ->
      Printf.printf "%-28s %.6g %s\n" x.Report.m_name x.Report.value x.Report.m_unit)
    metrics;
  print_endline (Report.to_json { Report.correct; attempted; failed; metrics });
  exit (if correct then 0 else 1)
