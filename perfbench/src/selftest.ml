(* The benchmark's own tests: its checks must catch a wrong output and
   count it as a failed op, and the exact counts must repeat for a fixed
   seed.  Run with `python3 perfbench/run.py --selftest`. *)

open Perfbench

let expected_path = "../test/table1.expected"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A closed loop counts every op whose check fails. *)
let closed_loop_counts_failures () =
  let w =
    {
      Report.name = "fake";
      setup = Fun.id;
      op = (fun i -> i mod 2 = 0);
      probe = ignore;
      teardown = ignore;
    }
  in
  let s = Report.closed ~seconds:0. ~warmup:0 ~trace:false w in
  Alcotest.(check int) "ops" 3 s.Report.ops;
  Alcotest.(check int) "failed ops" 1 s.Report.op_failures

(* One regeneration passes against the golden and fails against a copy
   with one corrupted line. *)
let table1_corrupted_line () =
  let expected = read_file expected_path in
  let ctx = Table1_wl.setup 0 in
  let text = Table1_wl.regenerate ctx in
  Table1_wl.teardown ctx;
  Alcotest.(check bool) "golden matches" true (Table1_wl.check ~expected text);
  let lines = String.split_on_char '\n' expected in
  let corrupted =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 6 then String.map (fun c -> if c = '1' then '2' else c) l else l)
         lines)
  in
  Alcotest.(check bool) "line really changed" false (String.equal corrupted expected);
  Alcotest.(check bool) "corrupted line fails" false (Table1_wl.check ~expected:corrupted text)

(* A reply that differs from the in-process record in one field fails
   the check, and the tally counts it as a failed op. *)
let serve_tampered_reply () =
  let rq = Serve_wl.request ~program:"sort:6" ~machine:"pipelined" ~config:"CU-AL=1,RF-DC=2" in
  let expected = Serve_wl.expected_summary rq in
  let genuine = Some (Wp_core.Wire.Result { expected with Wp_core.Wire.rs_from_cache = true }) in
  let tampered =
    Some
      (Wp_core.Wire.Result
         { expected with Wp_core.Wire.rs_wp2_cycles = expected.Wp_core.Wire.rs_wp2_cycles + 1 })
  in
  Alcotest.(check bool) "genuine reply passes" true (Serve_wl.check_reply ~expected genuine);
  Alcotest.(check bool) "tampered reply fails" false (Serve_wl.check_reply ~expected tampered);
  let o = Serve_wl.outcome [| rq; rq; rq |] in
  o.Serve_wl.replies.(0) <- genuine;
  o.Serve_wl.replies.(1) <- tampered;
  o.Serve_wl.replies.(2) <- Some (Wp_core.Wire.Busy { retry_after_ms = 1 });
  let t = Serve_wl.tally () in
  Serve_wl.tally_outcome ~every:1 ~seed:0 t o;
  Alcotest.(check int) "attempted" 3 t.Serve_wl.attempted;
  Alcotest.(check int) "failed" 2 t.Serve_wl.failed;
  Alcotest.(check int) "busy" 1 t.Serve_wl.busy

(* Run op [i] and its probe twice from scratch; the counts must agree. *)
let repeats ~name ~reset ~counts w i =
  let once () =
    reset ();
    let ctx = w.Report.setup i in
    Alcotest.(check bool) (name ^ " op passes") true (w.Report.op ctx);
    w.Report.probe ctx;
    w.Report.teardown ctx;
    counts ()
  in
  let first = once () in
  let second = once () in
  List.iter
    (fun (metric, v) ->
      Alcotest.(check bool) (metric ^ " is counted") true (v > 0);
      Alcotest.(check int) (metric ^ " repeats") v (List.assoc metric second))
    first

let exact_counts () =
  let expected = read_file expected_path in
  repeats ~name:"table1" ~reset:Table1_wl.reset ~counts:Table1_wl.exact_counts
    (Table1_wl.workload ~expected) 1;
  repeats ~name:"sweep" ~reset:Sweep_wl.reset ~counts:Sweep_wl.exact_counts
    (Sweep_wl.workload ~seed:7) 3;
  repeats ~name:"flow" ~reset:Flow_wl.reset ~counts:Flow_wl.exact_counts
    (Flow_wl.workload ~seed:7) 0

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "closed loop counts failed ops" `Quick closed_loop_counts_failures;
          Alcotest.test_case "table1 corrupted expected line" `Slow table1_corrupted_line;
          Alcotest.test_case "serve tampered reply" `Quick serve_tampered_reply;
        ] );
      ("counts", [ Alcotest.test_case "exact counts repeat" `Slow exact_counts ]);
    ]
