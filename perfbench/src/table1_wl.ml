(* table1: a closed loop with one caller.  One op regenerates the full
   Table 1 with the committed golden's inputs (sort over 10 values,
   3x3 matmul, pipelined and multicycle machines, explicit Fast engine)
   through a fresh single-job Runner, and checks the text byte for byte
   against test/table1.expected. *)

module Table1 = Wp_core.Table1
module Runner = Wp_core.Runner
module Run_spec = Wp_core.Run_spec
module Experiment = Wp_core.Experiment
module Optimizer = Wp_core.Optimizer
module Config = Wp_core.Config
module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Cpu = Wp_soc.Cpu
module Shell = Wp_lis.Shell

let spec = Run_spec.v ~engine:Wp_sim.Sim.Fast ()
let machines = [ Datapath.Pipelined; Datapath.Multicycle ]
let sort_values () = Programs.sort_values ~seed:1 ~n:10
let matmul_n = 3

type table = {
  machine : Datapath.machine;
  program : Wp_soc.Program.t;
  k : int;  (** relay stations per connection of the "Optimal k" row *)
  rows : Table1.row list;
}

type ctx = {
  runner : Runner.t;
  sort_program : Wp_soc.Program.t;
  matmul_program : Wp_soc.Program.t;
  mutable tables : table list;
  mutable stats : Runner.stats option;
}

let setup _i =
  let values = sort_values () in
  let a = Programs.matrix_values ~seed:2 ~n:matmul_n
  and b = Programs.matrix_values ~seed:3 ~n:matmul_n in
  {
    runner = Runner.create ~jobs:1 ();
    sort_program = Programs.extraction_sort ~values;
    matmul_program = Programs.matrix_multiply ~n:matmul_n ~a ~b;
    tables = [];
    stats = None;
  }

let teardown ctx = Runner.shutdown ctx.runner

(* The text the golden generator prints: each table followed by a
   blank line, both workloads, both machines. *)
let regenerate ctx =
  let buf = Buffer.create 8192 in
  let emit title rows =
    Buffer.add_string buf (Trace.span "table1.render" (fun () -> Table1.render ~title rows));
    Buffer.add_char buf '\n'
  in
  let runner = ctx.runner in
  ctx.tables <-
    List.concat_map
      (fun machine ->
        let mname = Datapath.machine_name machine in
        let sort =
          Trace.span "table1.sort_rows" (fun () ->
              Table1.sort_rows ~spec ~values:(sort_values ()) ~runner ~machine ())
        in
        emit (Printf.sprintf "Table 1 — Extraction Sort (%s)" mname) sort;
        Report.checkpoint ();
        let matmul =
          Trace.span "table1.matmul_rows" (fun () ->
              Table1.matmul_rows ~spec ~n:matmul_n ~runner ~machine ())
        in
        emit (Printf.sprintf "Table 1 — Matrix Multiply (%s)" mname) matmul;
        Report.checkpoint ();
        [
          { machine; program = ctx.sort_program; k = 1; rows = sort };
          { machine; program = ctx.matmul_program; k = 2; rows = matmul };
        ])
      machines;
  ctx.stats <- Some (Runner.stats runner);
  Buffer.contents buf

let check ~expected text = String.equal text expected

let op ~expected ctx = check ~expected (regenerate ctx)

(* The process-wide golden memo is filled here, before any sample. *)
let prewarm () =
  let ctx = setup 0 in
  List.iter
    (fun machine ->
      List.iter
        (fun program ->
          ignore
            (Trace.span "experiment.golden" (fun () ->
                 Experiment.golden ~engine:Wp_sim.Sim.Fast ~machine program)))
        [ ctx.sort_program; ctx.matmul_program ])
    machines;
  teardown ctx

(* ------------------------------------------------------------------ *)
(* Traced layer probe                                                   *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable sim_cycles : int;  (** WP1 + WP2 cycles of one op's table rows *)
  mutable words : float;  (** minor words allocated inside those runs *)
  mutable tasks : int;
  mutable hit_ratio : float;
}

let counts = { sim_cycles = 0; words = 0.; tasks = 0; hit_ratio = 0. }

let reset () =
  counts.sim_cycles <- 0;
  counts.tasks <- 0

(* The counts that must repeat exactly for a fixed seed. *)
let exact_counts () =
  [ ("table1.sim_cycles", counts.sim_cycles); ("runner.tasks", counts.tasks) ]

(* Every row of the op's tables re-run straight through Datapath.build
   and Cpu.run on both wrappers, and each "Optimal k" search repeated
   with Table 1's search on a fresh runner. *)
let probe ctx =
  let cycles = ref 0 and words = ref 0. in
  List.iter
    (fun t ->
      List.iter
        (fun (row : Table1.row) ->
          let r = row.Table1.record in
          let rs = Config.to_fun r.Experiment.config in
          ignore
            (Trace.span "datapath.build" (fun () ->
                 Datapath.build ~machine:t.machine ~rs t.program));
          List.iter
            (fun (mode, expect) ->
              let w0 = Gc.minor_words () in
              let res =
                Trace.span "fast.run" (fun () ->
                    Cpu.run ~engine:Wp_sim.Sim.Fast ~mcr_work:r.Experiment.golden_cycles
                      ~machine:t.machine ~mode ~rs t.program)
              in
              words := !words +. (Gc.minor_words () -. w0);
              cycles := !cycles + res.Cpu.cycles;
              if res.Cpu.cycles <> expect then
                failwith
                  (Printf.sprintf "table1 probe: %s row %d ran %d cycles, table says %d"
                     row.Table1.label row.Table1.index res.Cpu.cycles expect))
            [
              (Shell.Plain, r.Experiment.wp1.Cpu.cycles);
              (Shell.Oracle, r.Experiment.wp2.Cpu.cycles);
            ])
        t.rows;
      let search =
        { Optimizer.default_search with budget = 9 * t.k; per_connection_max = 2 * t.k }
      in
      let runner = Runner.create ~jobs:1 () in
      ignore
        (Trace.span "optimizer.optimal" (fun () ->
             Optimizer.optimal ~search ~map:(Runner.map runner)
               ~objective:
                 (Runner.objective_spec ~spec runner ~machine:t.machine ~program:t.program)
               ()));
      Runner.shutdown runner)
    ctx.tables;
  if counts.sim_cycles <> 0 && counts.sim_cycles <> !cycles then
    failwith
      (Printf.sprintf "table1 probe: sim cycles %d, an earlier op ran %d" !cycles
         counts.sim_cycles);
  counts.sim_cycles <- !cycles;
  counts.words <- !words;
  match ctx.stats with
  | Some st ->
    counts.tasks <- st.Runner.tasks_run;
    counts.hit_ratio <-
      float_of_int st.Runner.cache_hits
      /. float_of_int (max 1 (st.Runner.cache_hits + st.Runner.cache_misses))
  | None -> ()

let layer_metrics () =
  let ms name = Report.median (Trace.durations name) *. 1e3 in
  let runs = Trace.durations "fast.run" in
  let run_s = List.fold_left ( +. ) 0. runs in
  (* The probe's per-op cycle count covers one op's runs; scale the
     time to one op's worth as well. *)
  let ops = float_of_int (max 1 (List.length (Trace.durations "probe"))) in
  [
    ("fast.run_ms", ms "fast.run");
    ("fast.cycles_per_s", float_of_int counts.sim_cycles *. ops /. run_s);
    ("fast.words_per_cycle", counts.words /. float_of_int (max 1 counts.sim_cycles));
    ("datapath.build_ms", ms "datapath.build");
    ("optimizer.optimal_ms", ms "optimizer.optimal");
    ("runner.tasks", float_of_int counts.tasks);
    ("runner.cache_hit_ratio", counts.hit_ratio);
    ("experiment.golden_ms", ms "experiment.golden");
    ("table1.sim_cycles", float_of_int counts.sim_cycles);
  ]

let workload ~expected =
  {
    Report.name = "table1";
    setup;
    op = op ~expected;
    probe;
    teardown;
  }

(* Regenerated table rows per op: 13 sort + 25 matmul rows per machine. *)
let rows_per_op = 76.
