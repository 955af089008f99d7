module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Cpu = Wp_soc.Cpu
module Telemetry = Wp_sim.Telemetry

type row = {
  index : int;
  label : string;
  record : Experiment.record;
}

(* Table 1 lists the single-RS rows in this order. *)
let single_rs_order =
  [
    Datapath.CU_RF;
    Datapath.CU_AL;
    Datapath.CU_DC;
    Datapath.CU_IC;
    Datapath.RF_ALU;
    Datapath.RF_DC;
    Datapath.ALU_CU;
    Datapath.ALU_RF;
    Datapath.ALU_DC;
    Datapath.DC_RF;
  ]

let optimal_config ~spec ~runner ~machine ~program ~k () =
  (* The optimiser probes WP2 throughput only; running its shortlist with
     telemetry on would instrument hundreds of throwaway runs (and key
     them apart from plain probes), so the objective always uses the
     uninstrumented spec. *)
  let probe_spec = { spec with Run_spec.telemetry = Telemetry.off } in
  let search =
    { Optimizer.default_search with Optimizer.budget = 9 * k; per_connection_max = 2 * k }
  in
  let config, _ =
    Optimizer.optimal ~search
      ~map:(Runner.map runner)
      ~objective:(Runner.objective_spec ~spec:probe_spec runner ~machine ~program)
      ()
  in
  config

let run_rows ~spec ~runner ~machine ~program specs =
  let records =
    Runner.experiments_spec ~spec runner ~machine ~program (List.map snd specs)
  in
  List.mapi
    (fun i ((label, _config), record) -> { index = i + 1; label; record })
    (List.combine specs records)

let common_head =
  [ ("All 0 (ideal)", Config.zero) ]
  @ List.map
      (fun conn ->
        (Printf.sprintf "Only %s" (Datapath.connection_name conn), Config.only conn 1))
      single_rs_order

let sort_rows ?(spec = Run_spec.default ()) ?(values = Programs.sort_values ~seed:1 ~n:16)
    ?runner ~machine () =
  let runner = match runner with Some r -> r | None -> Runner.default () in
  let program = Programs.extraction_sort ~values in
  let specs =
    common_head
    @ [
        ("All 1 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 1);
        ("Optimal 1 (no CU-IC)", optimal_config ~spec ~runner ~machine ~program ~k:1 ());
      ]
  in
  run_rows ~spec ~runner ~machine ~program specs

let matmul_rows ?(spec = Run_spec.default ()) ?(n = 5) ?runner ~machine () =
  let runner = match runner with Some r -> r | None -> Runner.default () in
  let program =
    Programs.matrix_multiply ~n ~a:(Programs.matrix_values ~seed:2 ~n)
      ~b:(Programs.matrix_values ~seed:3 ~n)
  in
  let all1 = Config.uniform ~except:[ Datapath.CU_IC ] 1 in
  let all1_and_2 conn =
    ( Printf.sprintf "All 1 and 2 %s" (Datapath.connection_name conn),
      (* "All 1" leaves CU-IC at zero unless CU-IC itself is doubled. *)
      Config.set all1 conn 2 )
  in
  let specs =
    common_head
    @ [ ("All 1 (no CU-IC)", all1) ]
    @ List.map all1_and_2 single_rs_order
    @ [
        ("Optimal 2 (no CU-IC)", optimal_config ~spec ~runner ~machine ~program ~k:2 ());
        ("All 2 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 2);
        ( "All 2 and 1 CU-RF",
          Config.set (Config.uniform ~except:[ Datapath.CU_IC ] 2) Datapath.CU_RF 1 );
      ]
  in
  run_rows ~spec ~runner ~machine ~program specs

let render ~title rows =
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("#", T.Right);
          ("RS Configuration", T.Left);
          ("Cycles (WP2)", T.Right);
          ("Th WP1 bound", T.Right);
          ("Th WP1 sim", T.Right);
          ("Th WP2 sim", T.Right);
          ("WP2 vs WP1", T.Right);
        ]
  in
  T.add_span_row t title;
  T.add_separator t;
  List.iter
    (fun row ->
      let r = row.record in
      T.add_row t
        [
          string_of_int row.index;
          row.label;
          string_of_int r.Experiment.wp2.Wp_soc.Cpu.cycles;
          Printf.sprintf "%.3f" r.Experiment.wp1_bound;
          Printf.sprintf "%.3f" r.Experiment.th_wp1;
          Printf.sprintf "%.3f" r.Experiment.th_wp2;
          Printf.sprintf "%+.0f%%" r.Experiment.gain_percent;
        ])
    rows;
  T.render t

let csv_field s =
  let needs_quoting = String.exists (fun c -> c = ',' || c = '"' || c = '\n') s in
  if needs_quoting then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "index,configuration,wp2_cycles,wp1_bound,th_wp1,th_wp2,gain_percent\n";
  List.iter
    (fun row ->
      let r = row.record in
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%d,%.4f,%.4f,%.4f,%.2f\n" row.index (csv_field row.label)
           r.Experiment.wp2.Wp_soc.Cpu.cycles r.Experiment.wp1_bound r.Experiment.th_wp1
           r.Experiment.th_wp2 r.Experiment.gain_percent))
    rows;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Stall attribution: the telemetry cross-check of Table 1.

   Per block, [cycles = fired + stalls], and the firing counts are
   program-determined — identical under WP1 and WP2.  Three invariants
   therefore tie the stall counters to the table:

   - {b conservation}: for the halting CU block, the WP1-vs-WP2 cycle
     delta equals the difference of its stall-cycle totals (up to the
     few start-up/drain cycles where firing counts can differ by one
     pipeline fill);
   - {b full recovery}: a WP2 (oracle) run records {e zero} oracle-skip
     anywhere — the class is defined as "an oracle shell would have
     fired", so the oracle eliminates it by construction;
   - {b skip pool bound}: the recovered delta never exceeds the largest
     per-block WP1 oracle-skip total.  The oracle only changes behaviour
     in skip-classified cycles, so every saved cycle is drawn from that
     pool; the pool is not saved in full when the configuration's loop
     bound re-saturates the WP2 run (e.g. Only CU-AL, where backpressure
     replaces part of the skip). *)
(* ------------------------------------------------------------------ *)

type attribution = {
  att_index : int;
  att_label : string;
  wp1_cycles : int;
  wp2_cycles : int;
  delta_cycles : int;
  cu_stall_delta : int;
  skip_pool : int;
  wp2_skip : int;
  att_tolerance : int;
  explained : bool;
}

let halting_block = "CU"

let nodes_of (res : Cpu.result) =
  Option.map
    (fun rep -> rep.Telemetry.summary.Telemetry.nodes)
    res.Cpu.telemetry

let find_node name nodes =
  let found = ref None in
  Array.iter
    (fun ns ->
      if !found = None && ns.Telemetry.node_name = name then found := Some ns)
    nodes;
  !found

let stalls ns = Telemetry.node_cycles ns - ns.Telemetry.fired

let max_skip nodes =
  Array.fold_left (fun m ns -> max m ns.Telemetry.oracle_skip) 0 nodes

let attribute ?(tolerance_percent = 5.0) ?(tolerance_floor = 8) rows =
  let one row =
    match
      (nodes_of row.record.Experiment.wp1, nodes_of row.record.Experiment.wp2)
    with
    | Some n1, Some n2 -> (
      match (find_node halting_block n1, find_node halting_block n2) with
      | Some cu1, Some cu2 ->
        let wp1_cycles = row.record.Experiment.wp1.Cpu.cycles in
        let wp2_cycles = row.record.Experiment.wp2.Cpu.cycles in
        let delta = wp1_cycles - wp2_cycles in
        let cu_stall_delta = stalls cu1 - stalls cu2 in
        let skip_pool = max_skip n1 in
        let wp2_skip = max_skip n2 in
        (* Relative tolerance on the larger quantity in play, with a
           small absolute floor so zero-delta rows (All 0, Only CU-IC)
           tolerate the start-up/drain cycles attributed before the
           pipeline reaches steady state. *)
        let tol =
          max tolerance_floor
            (int_of_float
               (ceil
                  (tolerance_percent /. 100.
                  *. float_of_int (max (abs delta) skip_pool))))
        in
        Some
          {
            att_index = row.index;
            att_label = row.label;
            wp1_cycles;
            wp2_cycles;
            delta_cycles = delta;
            cu_stall_delta;
            skip_pool;
            wp2_skip;
            att_tolerance = tol;
            explained =
              abs (delta - cu_stall_delta) <= tol
              && delta <= skip_pool + tol
              && wp2_skip = 0;
          }
      | _ -> None)
    | _ -> None
  in
  let atts = List.filter_map one rows in
  if atts = [] then None else Some atts

let merged_summary rows =
  List.fold_left
    (fun acc row ->
      let fold acc (res : Cpu.result) =
        match res.Cpu.telemetry with
        | None -> acc
        | Some rep -> Telemetry.merge_opt acc rep.Telemetry.summary
      in
      fold (fold acc row.record.Experiment.wp1) row.record.Experiment.wp2)
    None rows

let render_attribution atts =
  let module T = Wp_util.Text_table in
  let t =
    T.create
      ~columns:
        [
          ("#", T.Right);
          ("RS Configuration", T.Left);
          ("WP1 cyc", T.Right);
          ("WP2 cyc", T.Right);
          ("Delta", T.Right);
          ("CU stall d", T.Right);
          ("Skip pool", T.Right);
          ("Recovered", T.Right);
          ("OK", T.Left);
        ]
  in
  T.add_span_row t
    "Delta = CU stall difference; recovered cycles drawn from the WP1 \
     oracle-skip pool";
  T.add_separator t;
  List.iter
    (fun a ->
      T.add_row t
        [
          string_of_int a.att_index;
          a.att_label;
          string_of_int a.wp1_cycles;
          string_of_int a.wp2_cycles;
          string_of_int a.delta_cycles;
          string_of_int a.cu_stall_delta;
          string_of_int a.skip_pool;
          (if a.skip_pool = 0 then "-"
           else
             Printf.sprintf "%.1f%%"
               (100. *. float_of_int a.delta_cycles /. float_of_int a.skip_pool));
          (if a.explained then "yes" else "NO");
        ])
    atts;
  T.render t

let render_stall_report ~title rows =
  match merged_summary rows with
  | None ->
    Printf.sprintf
      "%s: no telemetry recorded — rerun with --stall-report (or a spec whose \
       telemetry is enabled)"
      title
  | Some sum ->
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (title ^ "\n\n");
    (match attribute rows with
    | None -> ()
    | Some atts ->
      Buffer.add_string buf (render_attribution atts);
      Buffer.add_char buf '\n');
    Buffer.add_string buf (Telemetry.to_table sum);
    Buffer.contents buf

(* Paper Table 1 (pipelined case): row, label, Th WP1, Th WP2. *)
let paper_reference ~workload =
  match workload with
  | `Sort ->
    [
      (1, "All 0 (ideal)", 1.0, 1.0);
      (2, "Only CU-RF", 0.75, 0.75);
      (3, "Only CU-AL", 0.667, 0.75);
      (4, "Only CU-DC", 0.75, 0.75);
      (5, "Only CU-IC", 0.5, 0.5);
      (6, "Only RF-ALU", 0.667, 0.83);
      (7, "Only RF-DC", 0.667, 0.99);
      (8, "Only ALU-CU", 0.667, 0.93);
      (9, "Only ALU-RF", 0.667, 0.92);
      (10, "Only ALU-DC", 0.667, 0.96);
      (11, "Only DC-RF", 0.667, 0.96);
      (12, "All 1 (no CU-IC)", 0.5, 0.67);
      (13, "Optimal 1 (no CU-IC)", 0.667, 0.80);
    ]
  | `Matmul ->
    [
      (1, "All 0 (ideal)", 1.0, 1.0);
      (2, "Only CU-RF", 0.75, 0.75);
      (3, "Only CU-AL", 0.667, 0.75);
      (4, "Only CU-DC", 0.75, 0.75);
      (5, "Only CU-IC", 0.5, 0.5);
      (6, "Only RF-ALU", 0.667, 0.77);
      (7, "Only RF-DC", 0.667, 0.98);
      (8, "Only ALU-CU", 0.667, 0.97);
      (9, "Only ALU-RF", 0.667, 0.81);
      (10, "Only ALU-DC", 0.667, 0.91);
      (11, "Only DC-RF", 0.667, 0.93);
      (12, "All 1 (no CU-IC)", 0.5, 0.59);
      (13, "All 1 and 2 CU-RF", 0.5, 0.58);
      (14, "All 1 and 2 CU-AL", 0.4, 0.59);
      (15, "All 1 and 2 CU-DC", 0.5, 0.59);
      (16, "All 1 and 2 CU-IC", 0.33, 0.33);
      (17, "All 1 and 2 RF-ALU", 0.4, 0.50);
      (18, "All 1 and 2 RF-DC", 0.4, 0.59);
      (19, "All 1 and 2 ALU-CU", 0.4, 0.58);
      (20, "All 1 and 2 ALU-RF", 0.4, 0.53);
      (21, "All 1 and 2 ALU-DC", 0.4, 0.56);
      (22, "All 1 and 2 DC-RF", 0.4, 0.56);
      (23, "Optimal 2 (no CU-IC)", 0.4, 0.56);
      (24, "All 2 (no CU-IC)", 0.33, 0.42);
      (25, "All 2 and 1 CU-RF", 0.33, 0.42);
    ]
