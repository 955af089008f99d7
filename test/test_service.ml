(* Integration tests for the serve daemon (Wp_core.Service + Wire):
   a real Unix-domain socket, real service threads, a real runner —
   exercising the cache-hit, cache-miss, protocol-error, quarantine and
   busy-backpressure reply paths end to end, plus teardown with clients
   still connected (close(2) alone does not wake threads blocked in
   accept(2)/read(2); stop must not hang). *)

open Wp_core
module Client = Service.Client

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp_service_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* Each service gets its own socket under a temp dir and a cache-less
   runner unless the test needs the cache. *)
let with_service ?queue_bound ?paused ?(cache = false) f =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let runner =
        if cache then Runner.create ~cache:true ~cache_dir:(Filename.concat dir "cache") ()
        else Runner.create ~cache:false ()
      in
      Fun.protect ~finally:(fun () -> Runner.shutdown runner)
        (fun () ->
          let svc = Service.create ?queue_bound ?paused ~runner socket in
          Fun.protect ~finally:(fun () -> Service.stop svc) (fun () -> f svc socket)))

let run_args ?max_cycles ?(program = "sort:8") () =
  { (Wire.run_defaults ~program ~machine:"pipelined" ~config:"CU-AL=1") with
    Wire.rq_max_cycles = max_cycles;
  }

(* ------------------------------------------------------------------ *)
(* Ping / stats                                                       *)
(* ------------------------------------------------------------------ *)

let test_ping_stats () =
  with_service (fun _svc socket ->
      let conn = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close conn)
        (fun () ->
          (match Client.call conn ~tag:7 Wire.Ping with
          | Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong");
          match Client.call conn ~tag:8 Wire.Stats with
          | Wire.Stats_reply { st_jobs; st_tasks_run; _ } ->
            checkb "pool has workers" true (st_jobs >= 1);
            checki "nothing run yet" 0 st_tasks_run
          | _ -> Alcotest.fail "expected Stats_reply"))

(* ------------------------------------------------------------------ *)
(* Miss then hit                                                      *)
(* ------------------------------------------------------------------ *)

let test_miss_then_hit () =
  with_service ~cache:true (fun _svc socket ->
      let conn = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close conn)
        (fun () ->
          let first =
            match Client.call conn ~tag:1 (Wire.Run (run_args ())) with
            | Wire.Result s -> s
            | _ -> Alcotest.fail "expected Result for the miss"
          in
          checkb "first answer is a miss" false first.Wire.rs_from_cache;
          checks "program echoed" "extraction_sort" first.Wire.rs_program;
          checkb "wire pipelining simulated" true (first.Wire.rs_wp1_cycles > 0);
          let second =
            match Client.call conn ~tag:2 (Wire.Run (run_args ())) with
            | Wire.Result s -> s
            | _ -> Alcotest.fail "expected Result for the hit"
          in
          checkb "second answer served from cache" true second.Wire.rs_from_cache;
          (* The summary itself must not depend on which path served it. *)
          checki "same golden cycles" first.Wire.rs_golden_cycles second.Wire.rs_golden_cycles;
          checki "same WP1 cycles" first.Wire.rs_wp1_cycles second.Wire.rs_wp1_cycles;
          checki "same WP2 cycles" first.Wire.rs_wp2_cycles second.Wire.rs_wp2_cycles))

(* ------------------------------------------------------------------ *)
(* Protocol errors                                                    *)
(* ------------------------------------------------------------------ *)

let test_error_reply () =
  with_service (fun _svc socket ->
      let conn = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close conn)
        (fun () ->
          (match
             Client.call conn ~tag:3 (Wire.Run (run_args ~program:"nonsense" ()))
           with
          | Wire.Error msg -> checkb "error names the field" true (msg <> "")
          | _ -> Alcotest.fail "expected Error for a bad program");
          (match
             Client.call conn ~tag:5
               (Wire.Run { (run_args ()) with Wire.rq_engine = Some "static" })
           with
          | Wire.Error _ -> ()
          | _ -> Alcotest.fail "expected Error for engine \"static\"");
          (* The connection survives a protocol error. *)
          match Client.call conn ~tag:4 Wire.Ping with
          | Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong after the error"))

(* ------------------------------------------------------------------ *)
(* Quarantine                                                         *)
(* ------------------------------------------------------------------ *)

let test_quarantine () =
  with_service (fun _svc socket ->
      let conn = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* max_cycles 1 exhausts every attempt: the guarded runner
             retries, then quarantines — and the daemon reports it
             instead of dying or lying. *)
          match Client.call conn ~tag:5 (Wire.Run (run_args ~max_cycles:1 ())) with
          | Wire.Quarantined { attempts; last_error; repro } ->
            checkb "attempts made" true (attempts > 0);
            checkb "error recorded" true (last_error <> "");
            checkb "repro recorded" true (repro <> "")
          | _ -> Alcotest.fail "expected Quarantined for max_cycles=1"))

(* ------------------------------------------------------------------ *)
(* Busy backpressure                                                  *)
(* ------------------------------------------------------------------ *)

let test_busy_backpressure () =
  (* Paused dispatcher + queue bound 2: requests 0 and 1 park in the
     queue, request 2 overflows and must be answered Busy immediately
     (by the reader thread, overtaking the parked work).  On resume the
     parked requests complete normally. *)
  with_service ~queue_bound:2 ~paused:true (fun svc socket ->
      let conn = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close conn)
        (fun () ->
          for tag = 0 to 2 do
            Client.send conn ~tag (Wire.Run (run_args ()))
          done;
          (match Client.recv conn with
          | Some (2, Wire.Busy _) -> ()
          | Some (tag, _) -> Alcotest.failf "expected Busy for tag 2, got tag %d" tag
          | None -> Alcotest.fail "daemon closed");
          Service.resume svc;
          let seen = ref [] in
          for _ = 1 to 2 do
            match Client.recv conn with
            | Some (tag, Wire.Result _) -> seen := tag :: !seen
            | Some (tag, _) -> Alcotest.failf "expected Result for tag %d" tag
            | None -> Alcotest.fail "daemon closed before the parked replies"
          done;
          Alcotest.(check (list int)) "both parked requests served" [ 0; 1 ]
            (List.sort compare !seen);
          (* The dispatcher bumps the served counter after writing each
             reply, so give it a beat to catch up with the client. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          while Service.served svc < 2 && Unix.gettimeofday () < deadline do
            Thread.delay 0.01
          done;
          checki "busy reply not counted as served" 2 (Service.served svc)))

(* ------------------------------------------------------------------ *)
(* Teardown with live connections                                     *)
(* ------------------------------------------------------------------ *)

let test_stop_with_connected_client () =
  (* The client stays connected (its reader thread is blocked in
     read(2)) and the accept thread is blocked in accept(2); stop must
     wake both and join, not hang.  The test completing at all is the
     assertion — a regression here deadlocks the suite. *)
  with_service (fun svc socket ->
      let conn = Client.connect socket in
      (match Client.call conn ~tag:0 Wire.Ping with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "expected Pong");
      Service.stop svc;
      (* The daemon closed the connection underneath the client. *)
      checkb "connection drained" true (Client.recv conn = None);
      Client.close conn;
      (* Idempotent. *)
      Service.stop svc)

let () =
  Random.self_init ();
  Alcotest.run "service"
    [
      ( "daemon",
        [
          Alcotest.test_case "ping and stats" `Quick test_ping_stats;
          Alcotest.test_case "miss then cache hit" `Quick test_miss_then_hit;
          Alcotest.test_case "error reply" `Quick test_error_reply;
          Alcotest.test_case "quarantine" `Quick test_quarantine;
          Alcotest.test_case "busy backpressure" `Quick test_busy_backpressure;
          Alcotest.test_case "stop with connected client" `Quick
            test_stop_with_connected_client;
        ] );
    ]
