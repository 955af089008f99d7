(* Tests for the parallel experiment runner stack: Wp_util.Pool (worker
   pool over Domain) and Wp_core.Runner (content-addressed result cache +
   fan-out).  The headline property is determinism: for ANY job count the
   row lists, rendered tables and CSV exports are byte-identical to the
   sequential run. *)

open Wp_core
module Pool = Wp_util.Pool
module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

(* Uneven per-task work so parallel completion order differs from
   submission order — the result order must not. *)
let busy_square x =
  let acc = ref 0 in
  for _ = 1 to 1000 * (1 + (x mod 7)) do
    acc := (!acc + x) mod 9973
  done;
  (x * x) + (!acc * 0)

let test_pool_map_order () =
  let xs = List.init 100 (fun i -> i) in
  let expected = List.map busy_square xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          checki "pool width" jobs (Pool.jobs p);
          Alcotest.(check (list int))
            (Printf.sprintf "map with %d jobs" jobs)
            expected (Pool.map p busy_square xs)))
    [ 1; 2; 4; 8 ]

let test_pool_edge_cases () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Pool.map p busy_square []);
      Alcotest.(check (list int)) "singleton" [ 9 ] (Pool.map p busy_square [ 3 ]);
      (* A pool survives many batches. *)
      for _ = 1 to 20 do
        checki "rerun" 55
          (List.fold_left ( + ) 0 (Pool.map p (fun x -> x) (List.init 11 (fun i -> i))))
      done)

let test_pool_clamps_jobs () =
  Pool.with_pool ~jobs:0 (fun p -> checki "jobs >= 1" 1 (Pool.jobs p));
  Pool.with_pool ~jobs:(-3) (fun p -> checki "negative clamped" 1 (Pool.jobs p))

exception Boom of int

let test_pool_exception_propagation () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          (match
             Pool.map p
               (fun x -> if x = 37 then raise (Boom x) else busy_square x)
               (List.init 60 (fun i -> i))
           with
          | _ -> Alcotest.failf "expected Boom to escape (jobs=%d)" jobs
          | exception Boom 37 -> ());
          (* The pool stays usable after a failed batch. *)
          Alcotest.(check (list int)) "usable after failure" [ 1; 4; 9 ]
            (Pool.map p busy_square [ 1; 2; 3 ])))
    [ 1; 4 ]

let test_pool_iteri () =
  Pool.with_pool ~jobs:4 (fun p ->
      let slots = Array.make 50 (-1) in
      Pool.iteri p (fun i x -> slots.(i) <- x * 2) (List.init 50 (fun i -> i));
      Alcotest.(check (array int)) "indexed writes land"
        (Array.init 50 (fun i -> 2 * i))
        slots)

(* Two tasks fail, the higher index first (the lower one sleeps): the
   lower index's exception comes out, so the error a caller reports does
   not depend on the job count or on timing. *)
let test_pool_lowest_failure () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          match
            Pool.iteri p
              (fun i () ->
                if i = 1 then begin
                  Unix.sleepf 0.05;
                  raise (Boom 1)
                end
                else if i = 2 then raise (Boom 2))
              [ (); (); (); () ]
          with
          | () -> Alcotest.failf "expected a failure (jobs=%d)" jobs
          | exception Boom k -> checki (Printf.sprintf "jobs=%d: lowest index" jobs) 1 k))
    [ 1; 4 ]

let test_pool_env_default () =
  let set v = Unix.putenv "WIREPIPE_JOBS" v in
  let saved = Sys.getenv_opt "WIREPIPE_JOBS" in
  Fun.protect
    ~finally:(fun () -> set (Option.value saved ~default:""))
    (fun () ->
      set "1";
      checki "WIREPIPE_JOBS=1 forces sequential" 1 (Pool.default_jobs ());
      Pool.with_pool (fun p -> checki "pool honours env" 1 (Pool.jobs p));
      set "3";
      checki "WIREPIPE_JOBS=3" 3 (Pool.default_jobs ());
      set "not-a-number";
      checkb "garbage falls back to cores" true (Pool.default_jobs () >= 1);
      set "0";
      checkb "zero falls back to cores" true (Pool.default_jobs () >= 1))

let prop_pool_matches_list_map =
  QCheck2.Test.make ~count:50 ~name:"Pool.map == List.map (any jobs)"
    QCheck2.Gen.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      Pool.with_pool ~jobs (fun p ->
          Pool.map p (fun x -> (2 * x) - 5) xs = List.map (fun x -> (2 * x) - 5) xs))

(* ------------------------------------------------------------------ *)
(* Runner: cache accounting                                           *)
(* ------------------------------------------------------------------ *)

let small_sort = Programs.extraction_sort ~values:(Programs.sort_values ~seed:41 ~n:8)

let three_configs =
  [ Config.zero; Config.only Datapath.ALU_CU 1; Config.only Datapath.DC_RF 1 ]

let test_runner_cache_accounting () =
  let runner = Runner.create ~jobs:2 () in
  checkb "cache on by default" true (Runner.cache_enabled runner);
  let first =
    Runner.experiments_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort three_configs
  in
  let s1 = Runner.stats runner in
  checki "first pass misses" 3 s1.Runner.cache_misses;
  checki "first pass no hits" 0 s1.Runner.cache_hits;
  checki "first pass tasks" 3 s1.Runner.tasks_run;
  let second =
    Runner.experiments_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort three_configs
  in
  let s2 = Runner.stats runner in
  checki "second pass hits" 3 s2.Runner.cache_hits;
  checki "no new misses" 3 s2.Runner.cache_misses;
  checkb "hits return the stored records" true (List.for_all2 ( == ) first second);
  (* The objective table is independent of the record table but shares
     the accounting. *)
  let v =
    Runner.objective_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort Config.zero
  in
  let v' =
    Runner.objective_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort Config.zero
  in
  Alcotest.(check (float 1e-12)) "objective deterministic" v v';
  let s3 = Runner.stats runner in
  checki "objective probe missed once then hit" 4 s3.Runner.cache_hits;
  Runner.clear_cache runner;
  ignore
    (Runner.experiment_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort Config.zero);
  checki "clear_cache forgets" 5 (Runner.stats runner).Runner.cache_misses;
  Runner.shutdown runner

let test_runner_no_cache () =
  let runner = Runner.create ~jobs:1 ~cache:false () in
  checkb "cache disabled" false (Runner.cache_enabled runner);
  ignore
    (Runner.experiments_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort three_configs);
  ignore
    (Runner.experiments_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort three_configs);
  let s = Runner.stats runner in
  checki "no hits ever" 0 s.Runner.cache_hits;
  checki "every lookup misses" 6 s.Runner.cache_misses;
  Runner.shutdown runner

let test_runner_max_cycles_in_key () =
  (* Different cycle budgets must not alias in the cache even for the
     same (program, machine, config). *)
  let runner = Runner.create ~jobs:1 () in
  ignore
    (Runner.experiment_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort Config.zero);
  ignore
    (Runner.experiment_spec ~spec:(Run_spec.v ~max_cycles:500_000 ()) runner ~machine:Datapath.Pipelined
       ~program:small_sort Config.zero);
  checki "distinct keys" 2 (Runner.stats runner).Runner.cache_misses;
  Runner.shutdown runner

let test_runner_exception_propagation () =
  let runner = Runner.create ~jobs:4 () in
  (match Runner.map runner (fun x -> if x = 5 then raise (Boom x) else x) [ 1; 5; 9; 13 ] with
  | _ -> Alcotest.fail "expected Boom from a worker domain"
  | exception Boom 5 -> ());
  (* An impossible experiment (cycle budget 1) must surface its Failure
     through the worker pool, not hang or get swallowed. *)
  (match
     Runner.experiments_spec ~spec:(Run_spec.v ~max_cycles:1 ()) runner ~machine:Datapath.Pipelined
       ~program:small_sort three_configs
   with
  | _ -> Alcotest.fail "expected Failure for 1-cycle budget"
  | exception Failure _ -> ());
  Runner.shutdown runner

let test_runner_timed_sections () =
  let runner = Runner.create ~jobs:2 () in
  let (), section =
    Runner.timed runner "warm" (fun () ->
        ignore
          (Runner.experiments_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort
             three_configs))
  in
  checks "section name" "warm" section.Runner.section_name;
  checki "section tasks" 3 section.Runner.section_tasks;
  checkb "wall clock ticked" true (section.Runner.wall_seconds >= 0.0);
  let (), reread =
    Runner.timed runner "cached" (fun () ->
        ignore
          (Runner.experiments_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort
             three_configs))
  in
  checki "cached section hits" 3 reread.Runner.section_cache_hits;
  let s = Runner.stats runner in
  Alcotest.(check (list string)) "sections chronological" [ "warm"; "cached" ]
    (List.map (fun x -> x.Runner.section_name) s.Runner.sections);
  Runner.reset_stats runner;
  let s = Runner.stats runner in
  checki "reset tasks" 0 s.Runner.tasks_run;
  checki "reset sections" 0 (List.length s.Runner.sections);
  Runner.shutdown runner

let test_runner_protect_in_key () =
  (* A protected record must never satisfy an unprotected lookup. *)
  let runner = Runner.create ~jobs:1 () in
  ignore
    (Runner.experiment_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort Config.zero);
  ignore
    (Runner.experiment_spec
       ~spec:(Run_spec.v ~protect:(Protect.of_connections [ Datapath.CU_AL ]) ())
       runner
       ~machine:Datapath.Pipelined ~program:small_sort Config.zero);
  checki "distinct keys" 2 (Runner.stats runner).Runner.cache_misses;
  (* ... but Protect.none digests like an absent policy, so it aliases. *)
  ignore
    (Runner.experiment_spec ~spec:(Run_spec.v ~protect:Protect.none ()) runner ~machine:Datapath.Pipelined
       ~program:small_sort Config.zero);
  checki "none aliases absent" 1 (Runner.stats runner).Runner.cache_hits;
  Runner.shutdown runner

(* ------------------------------------------------------------------ *)
(* Disk cache: persistence, corruption tolerance                      *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_cache_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp_cache_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let one_experiment ~dir () =
  let runner = Runner.create ~jobs:1 ~cache_dir:dir () in
  let r =
    Runner.experiment_spec ~spec:(Run_spec.default ()) runner ~machine:Datapath.Pipelined ~program:small_sort Config.zero
  in
  let s = Runner.stats runner in
  Runner.shutdown runner;
  (r, s)

let cache_entry_file dir =
  match
    List.filter
      (fun f -> Filename.check_suffix f ".rec")
      (Array.to_list (Sys.readdir dir))
  with
  | [ f ] -> Filename.concat dir f
  | files -> Alcotest.failf "expected exactly one .rec entry, got %d" (List.length files)

let rewrite_bytes path f =
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let raw = f (Bytes.of_string raw) in
  let oc = open_out_bin path in
  output_bytes oc raw;
  close_out oc

let test_runner_disk_cache_roundtrip () =
  with_cache_dir (fun dir ->
      let r1, s1 = one_experiment ~dir () in
      checki "cold run misses" 1 s1.Runner.cache_misses;
      checki "entry written" 1 (List.length (List.filter (fun f -> Filename.check_suffix f ".rec") (Array.to_list (Sys.readdir dir))));
      (* A fresh runner (fresh in-memory tables) hits the disk layer. *)
      let r2, s2 = one_experiment ~dir () in
      checki "warm run hits" 1 s2.Runner.cache_hits;
      checki "warm run no misses" 0 s2.Runner.cache_misses;
      checki "warm run no corruption" 0 s2.Runner.cache_corrupt;
      checki "same wp2 cycles through the disk"
        r1.Experiment.wp2.Wp_soc.Cpu.cycles r2.Experiment.wp2.Wp_soc.Cpu.cycles;
      Alcotest.(check (float 0.0)) "same throughput" r1.Experiment.th_wp2
        r2.Experiment.th_wp2)

let test_runner_disk_cache_bit_flip () =
  with_cache_dir (fun dir ->
      let r1, _ = one_experiment ~dir () in
      let path = cache_entry_file dir in
      (* Flip one bit deep inside the marshalled payload. *)
      rewrite_bytes path (fun b ->
          let i = Bytes.length b - 7 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          b);
      let r2, s2 = one_experiment ~dir () in
      checki "bit-flip detected" 1 s2.Runner.cache_corrupt;
      checki "treated as a miss" 1 s2.Runner.cache_misses;
      checki "no hit from the corrupt entry" 0 s2.Runner.cache_hits;
      checki "recomputed identically" r1.Experiment.wp2.Wp_soc.Cpu.cycles
        r2.Experiment.wp2.Wp_soc.Cpu.cycles;
      (* The recomputation overwrote the bad entry: clean hit again. *)
      let _, s3 = one_experiment ~dir () in
      checki "overwritten entry hits" 1 s3.Runner.cache_hits;
      checki "no further corruption" 0 s3.Runner.cache_corrupt)

let test_runner_disk_cache_truncation () =
  with_cache_dir (fun dir ->
      let _ = one_experiment ~dir () in
      let path = cache_entry_file dir in
      rewrite_bytes path (fun b -> Bytes.sub b 0 (min 4 (Bytes.length b)));
      (* Truncated entry: miss + recompute, never an exception. *)
      let _, s = one_experiment ~dir () in
      checki "truncation detected" 1 s.Runner.cache_corrupt;
      checki "treated as a miss" 1 s.Runner.cache_misses;
      let _, s2 = one_experiment ~dir () in
      checki "entry healed" 1 s2.Runner.cache_hits)

(* ------------------------------------------------------------------ *)
(* Guarded experiments: quarantine + budget escalation                *)
(* ------------------------------------------------------------------ *)

let test_runner_guarded_quarantine () =
  let runner = Runner.create ~jobs:2 () in
  (* An impossible 1-cycle budget (even escalated to 2 and 4 cycles)
     must come back as Failed in every slot — the sweep survives. *)
  let outcomes =
    Runner.map runner
      (Runner.experiment_guarded_spec ~spec:(Run_spec.v ~max_cycles:1 ()) ~attempts:3 runner
         ~machine:Datapath.Pipelined ~program:small_sort)
      three_configs
  in
  checki "every slot reported" 3 (List.length outcomes);
  List.iter
    (function
      | Runner.Completed _ -> Alcotest.fail "1-cycle budget cannot complete"
      | Runner.Expired m -> Alcotest.failf "no deadline was set: %s" m
      | Runner.Failed f ->
        checki "all attempts made" 3 f.Runner.attempts_made;
        checkb "error captured" true (String.length f.Runner.last_error > 0);
        checkb "repro names the program" true
          (let prog = small_sort.Wp_soc.Program.name in
           let hay = f.Runner.repro in
           let n = String.length prog and m = String.length hay in
           let rec scan i =
             i + n <= m && (String.sub hay i n = prog || scan (i + 1))
           in
           n > 0 && scan 0))
    outcomes;
  checki "quarantined counted" 3 (Runner.stats runner).Runner.quarantined;
  Runner.shutdown runner

let test_runner_guarded_escalation () =
  (* 400 cycles is too tight for the 720-cycle sort, but attempt 2 runs
     with an 800-cycle budget and completes. *)
  let runner = Runner.create ~jobs:1 () in
  (match
     Runner.experiment_guarded_spec ~spec:(Run_spec.v ~max_cycles:400 ()) runner ~machine:Datapath.Pipelined
       ~program:small_sort Config.zero
   with
  | Runner.Failed f -> Alcotest.failf "escalation did not converge: %s" f.Runner.last_error
  | Runner.Expired m -> Alcotest.failf "no deadline was set: %s" m
  | Runner.Completed r ->
    checkb "completed under the escalated budget" true
      (r.Experiment.wp1.Wp_soc.Cpu.outcome = Wp_soc.Cpu.Completed));
  checki "nothing quarantined" 0 (Runner.stats runner).Runner.quarantined;
  Runner.shutdown runner

(* ------------------------------------------------------------------ *)
(* Determinism: parallel Table 1 == sequential Table 1, byte for byte *)
(* ------------------------------------------------------------------ *)

let values = Programs.sort_values ~seed:1 ~n:8

let test_table1_parallel_determinism () =
  let rows_with jobs =
    let runner = Runner.create ~jobs () in
    let rows = Table1.sort_rows ~values ~runner ~machine:Datapath.Pipelined () in
    Runner.shutdown runner;
    rows
  in
  let seq = rows_with 1 in
  let par = rows_with 4 in
  checki "same row count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Table1.row) (b : Table1.row) ->
      checks "label" a.Table1.label b.Table1.label;
      checki "wp2 cycles" a.Table1.record.Experiment.wp2.Wp_soc.Cpu.cycles
        b.Table1.record.Experiment.wp2.Wp_soc.Cpu.cycles;
      Alcotest.(check (float 0.0)) "th_wp1" a.Table1.record.Experiment.th_wp1
        b.Table1.record.Experiment.th_wp1;
      Alcotest.(check (float 0.0)) "th_wp2" a.Table1.record.Experiment.th_wp2
        b.Table1.record.Experiment.th_wp2)
    seq par;
  checks "render byte-identical"
    (Table1.render ~title:"t" seq)
    (Table1.render ~title:"t" par);
  checks "csv byte-identical" (Table1.to_csv seq) (Table1.to_csv par)

let test_table1_cache_reuse_is_invisible () =
  (* A warm cache must change timings only, never bytes. *)
  let runner = Runner.create ~jobs:4 () in
  let cold = Table1.sort_rows ~values ~runner ~machine:Datapath.Pipelined () in
  let warm = Table1.sort_rows ~values ~runner ~machine:Datapath.Pipelined () in
  checks "cold == warm (csv)" (Table1.to_csv cold) (Table1.to_csv warm);
  checkb "second sweep mostly cache hits" true
    ((Runner.stats runner).Runner.cache_hits >= 13);
  Runner.shutdown runner

let test_optimizer_map_independence () =
  (* Optimizer.optimal must pick the same placement whether the shortlist
     is evaluated sequentially or through the runner's pool. *)
  let machine = Datapath.Pipelined and program = small_sort in
  let seq =
    Optimizer.optimal
      ~search:{ Optimizer.default_search with Optimizer.budget = 3; per_connection_max = 2 }
      ~objective:(Experiment.wp2_cycles_objective_spec ~spec:(Run_spec.default ()) ~machine ~program)
      ()
  in
  let runner = Runner.create ~jobs:4 () in
  let par =
    Optimizer.optimal
      ~search:{ Optimizer.default_search with Optimizer.budget = 3; per_connection_max = 2 }
      ~map:(Runner.map runner)
      ~objective:(Runner.objective_spec ~spec:(Run_spec.default ()) runner ~machine ~program)
      ()
  in
  Runner.shutdown runner;
  checkb "same config" true (Config.equal (fst seq) (fst par));
  Alcotest.(check (float 1e-12)) "same value" (snd seq) (snd par)

let test_runner_env_fallback () =
  let saved = Sys.getenv_opt "WIREPIPE_JOBS" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "WIREPIPE_JOBS" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "WIREPIPE_JOBS" "1";
      let runner = Runner.create () in
      checki "WIREPIPE_JOBS=1 runner is sequential" 1 (Runner.jobs runner);
      (* Sequential runner produces the same bytes as any other width —
         the fallback is the reference point of the determinism claim. *)
      let rows = Table1.sort_rows ~values ~runner ~machine:Datapath.Pipelined () in
      checki "13 rows" 13 (List.length rows);
      Runner.shutdown runner)

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_pool_matches_list_map ] in
  Alcotest.run "wp_runner"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "clamps jobs" `Quick test_pool_clamps_jobs;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "iteri" `Quick test_pool_iteri;
          Alcotest.test_case "lowest-index failure re-raised" `Quick
            test_pool_lowest_failure;
          Alcotest.test_case "WIREPIPE_JOBS default" `Quick test_pool_env_default;
        ] );
      ( "runner",
        [
          Alcotest.test_case "cache accounting" `Quick test_runner_cache_accounting;
          Alcotest.test_case "cache disabled" `Quick test_runner_no_cache;
          Alcotest.test_case "max_cycles in key" `Quick test_runner_max_cycles_in_key;
          Alcotest.test_case "exception propagation" `Quick test_runner_exception_propagation;
          Alcotest.test_case "timed sections" `Quick test_runner_timed_sections;
          Alcotest.test_case "WIREPIPE_JOBS=1 fallback" `Quick test_runner_env_fallback;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "protect in cache key" `Quick test_runner_protect_in_key;
          Alcotest.test_case "disk cache roundtrip" `Quick test_runner_disk_cache_roundtrip;
          Alcotest.test_case "disk cache bit flip" `Quick test_runner_disk_cache_bit_flip;
          Alcotest.test_case "disk cache truncation" `Quick test_runner_disk_cache_truncation;
          Alcotest.test_case "guarded quarantine" `Quick test_runner_guarded_quarantine;
          Alcotest.test_case "guarded escalation" `Quick test_runner_guarded_escalation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "table1 parallel == sequential" `Slow
            test_table1_parallel_determinism;
          Alcotest.test_case "cache reuse invisible" `Slow test_table1_cache_reuse_is_invisible;
          Alcotest.test_case "optimizer map independence" `Slow test_optimizer_map_independence;
        ] );
      ("properties", props);
    ]
