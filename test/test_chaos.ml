(* Chaos suite: hostile clients, deadline storms and crash recovery
   against a real daemon and a real disk cache.

   Every scenario asserts the same envelope from the outside: the daemon
   answers well-behaved clients afterwards (no hang, no crash), hostile
   connections are classified and disconnected, SIGKILLed writers leave
   a cache the next runner fully recovers, and a cancelled batch lane
   never changes what its sibling lanes compute. *)

open Wp_core
module Client = Service.Client
module Frame = Wp_util.Frame
module Cancel = Wp_util.Cancel

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp_chaos_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let with_service ?queue_bound ?paused ?reply_bound ?idle_timeout ?stall_timeout
    ?write_timeout ?shed_limit ?(cache = false) f =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let runner =
        if cache then Runner.create ~cache:true ~cache_dir:(Filename.concat dir "cache") ()
        else Runner.create ~cache:false ()
      in
      Fun.protect ~finally:(fun () -> Runner.shutdown runner)
        (fun () ->
          let svc =
            Service.create ?queue_bound ?paused ?reply_bound ?idle_timeout
              ?stall_timeout ?write_timeout ?shed_limit ~runner socket
          in
          Fun.protect ~finally:(fun () -> Service.stop svc)
            (fun () -> f svc socket runner)))

let run_args ?deadline_ms ?(program = "sort:8") () =
  { (Wire.run_defaults ~program ~machine:"pipelined" ~config:"CU-AL=1") with
    Wire.rq_deadline_ms = deadline_ms;
  }

(* A hostile client speaks raw bytes, not the Client module. *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send_raw fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go o = if o < n then go (o + Unix.write fd b o (n - o)) in
  go 0

let u32_be n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let expect_pong socket =
  let conn = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close conn)
    (fun () ->
      match Client.call conn ~tag:99 Wire.Ping with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "daemon unhealthy: expected Pong")

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let wait_for ?(timeout = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else (Thread.delay 0.02; go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Malformed frames                                                   *)
(* ------------------------------------------------------------------ *)

let test_garbage_frame () =
  with_service (fun _svc socket _runner ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          (* A well-framed payload the Wire decoder rejects: the daemon
             must answer Error (tag 0, the tag being unrecoverable) and
             keep the connection. *)
          Frame.write fd "garbage!";
          (match Frame.read fd with
          | Some payload -> (
            match Wire.decode_reply payload with
            | Ok (0, Wire.Error msg) -> checkb "error message" true (msg <> "")
            | Ok (tag, _) -> Alcotest.failf "expected Error tag 0, got tag %d" tag
            | Error e -> Alcotest.failf "undecodable reply: %s" e)
          | None -> Alcotest.fail "daemon closed on a framed garbage payload");
          (* Same connection still serves valid requests. *)
          Frame.write fd (Wire.encode_request ~tag:9 Wire.Ping);
          match Frame.read fd with
          | Some payload -> (
            match Wire.decode_reply payload with
            | Ok (9, Wire.Pong) -> ()
            | _ -> Alcotest.fail "expected Pong after the garbage frame")
          | None -> Alcotest.fail "daemon closed after the garbage frame"))

let test_oversized_frame () =
  with_service (fun _svc socket _runner ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          (* A length prefix far beyond Frame.max_frame: the daemon must
             drop the client without allocating the promised buffer. *)
          send_raw fd (u32_be 0x7F00_0000);
          let buf = Bytes.create 16 in
          checki "daemon closed the hostile connection" 0 (Unix.read fd buf 0 16));
      expect_pong socket)

let test_midframe_disconnect () =
  with_service ~stall_timeout:0.5 (fun _svc socket _runner ->
      let fd = raw_connect socket in
      (* Promise 64 bytes, deliver 10, vanish. *)
      send_raw fd (u32_be 64);
      send_raw fd "0123456789";
      Unix.close fd;
      (* The reader sees EOF mid-frame (Truncated) and reaps the
         connection; the daemon stays healthy. *)
      expect_pong socket)

let test_midframe_stall () =
  with_service ~stall_timeout:0.3 (fun _svc socket _runner ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          (* Promise 64 bytes, deliver 10, then go silent without
             closing: the stall timeout must cut the connection. *)
          send_raw fd (u32_be 64);
          send_raw fd "0123456789";
          let buf = Bytes.create 16 in
          checki "stalled mid-frame client dropped" 0 (Unix.read fd buf 0 16));
      expect_pong socket)

(* ------------------------------------------------------------------ *)
(* Slow-loris: a client that sends but never reads                    *)
(* ------------------------------------------------------------------ *)

let test_silent_client_disconnected () =
  with_service ~reply_bound:16 ~write_timeout:0.2 (fun svc socket _runner ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          (* Flood pings and never read a pong.  Once the socket buffer
             fills, the writer thread times out (or the bounded reply
             queue overflows) — either way the daemon must disconnect us
             rather than buffer without bound. *)
          let ping = Wire.encode_request ~tag:0 Wire.Ping in
          let frame = u32_be (String.length ping) ^ ping in
          let burst = String.concat "" (List.init 512 (fun _ -> frame)) in
          (try
             for _ = 1 to 200 do
               send_raw fd burst
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          checkb "slow client disconnected" true
            (wait_for (fun () -> (Service.counters svc).Service.slow_disconnects >= 1)));
      expect_pong socket)

(* ------------------------------------------------------------------ *)
(* Deadline storm                                                     *)
(* ------------------------------------------------------------------ *)

let test_deadline_storm () =
  with_service ~paused:true (fun svc socket runner ->
      let conn = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* The dispatcher is paused, so every 1ms deadline expires in
             the queue; on resume all of them must come back
             Deadline_exceeded without a single simulation. *)
          let n = 8 in
          for tag = 0 to n - 1 do
            Client.send conn ~tag (Wire.Run (run_args ~deadline_ms:1 ()))
          done;
          Thread.delay 0.1;
          Service.resume svc;
          for _ = 1 to n do
            match Client.recv conn with
            | Some (_, Wire.Deadline_exceeded msg) ->
              checkb "expiry says where it stopped" true (msg <> "")
            | Some (tag, _) -> Alcotest.failf "expected Deadline_exceeded for tag %d" tag
            | None -> Alcotest.fail "daemon closed during the storm"
          done;
          checkb "runner counted the expiries" true ((Runner.stats runner).Runner.expired >= n);
          (* An unhurried request still completes afterwards. *)
          match Client.call conn ~tag:100 (Wire.Run (run_args ())) with
          | Wire.Result _ -> ()
          | _ -> Alcotest.fail "expected Result after the storm"))

(* ------------------------------------------------------------------ *)
(* Crash-safe cache                                                   *)
(* ------------------------------------------------------------------ *)

let test_stale_tmp_reaped () =
  with_temp_dir (fun dir ->
      let cache = Filename.concat dir "cache" in
      Unix.mkdir cache 0o755;
      (* A writer that gets SIGKILLed mid-write strands its temp file.
         Simulate one: park a child, stamp a temp file with its PID,
         kill -9.  The child is a spawned [sleep], not a fork: OCaml 5
         refuses [Unix.fork] once earlier tests have started domains. *)
      let child =
        Unix.create_process "sleep" [| "sleep"; "3600" |] Unix.stdin Unix.stdout
          Unix.stderr
      in
      let dead = Filename.concat cache (Printf.sprintf "deadbeef.rec.tmp.%d.0" child) in
      let alive = Filename.concat cache (Printf.sprintf "cafe.rec.tmp.%d.0" (Unix.getpid ())) in
      List.iter (fun p ->
          let oc = open_out p in
          output_string oc "partial write";
          close_out oc)
        [ dead; alive ];
      Unix.kill child Sys.sigkill;
      ignore (Unix.waitpid [] child);
      let runner = Runner.create ~cache:true ~cache_dir:cache () in
      Fun.protect ~finally:(fun () -> Runner.shutdown runner)
        (fun () ->
          checki "one stale temp file reaped" 1 (Runner.stats runner).Runner.stale_reaped;
          checkb "dead writer's file removed" false (Sys.file_exists dead);
          (* A live PID's temp file is someone's write in progress. *)
          checkb "live writer's file kept" true (Sys.file_exists alive)))

let machine = Option.get (Wp_soc.Datapath.machine_of_name "pipelined")

let program name =
  match Wp_soc.Programs.of_string name with
  | Ok p -> p
  | Error e -> Alcotest.failf "program %s: %s" name e

let config s =
  match Config.of_string s with
  | Ok c -> c
  | Error e -> Alcotest.failf "config %s: %s" s e

let record_fingerprint (r : Experiment.record) =
  Marshal.to_string (r.Experiment.golden_cycles, r.Experiment.wp1, r.Experiment.wp2) []

let test_corrupt_entry_quarantined () =
  with_temp_dir (fun dir ->
      let cache = Filename.concat dir "cache" in
      let spec = Run_spec.default () in
      let prog = program "sort:8" and cfg = config "CU-AL=1" in
      let run runner = Runner.experiment_spec ~spec runner ~machine ~program:prog cfg in
      let r1 =
        let runner = Runner.create ~cache:true ~cache_dir:cache () in
        Fun.protect ~finally:(fun () -> Runner.shutdown runner) (fun () -> run runner)
      in
      let entries () =
        Sys.readdir cache |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".rec")
      in
      let entry =
        match entries () with
        | [ e ] -> Filename.concat cache e
        | l -> Alcotest.failf "expected one .rec entry, found %d" (List.length l)
      in
      (* Flip bytes in the middle of the entry: the digest check must
         catch it, quarantine the file and recompute. *)
      let fd = Unix.openfile entry [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 40 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 8 '\xff') 0 8);
      Unix.close fd;
      let runner = Runner.create ~cache:true ~cache_dir:cache () in
      Fun.protect ~finally:(fun () -> Runner.shutdown runner)
        (fun () ->
          let r2 = run runner in
          Alcotest.(check string) "recomputed record identical"
            (record_fingerprint r1) (record_fingerprint r2);
          checki "corruption counted" 1 (Runner.stats runner).Runner.cache_corrupt;
          let qdir = Filename.concat cache "quarantine" in
          checkb "corrupt entry preserved for post-mortem" true
            (Sys.file_exists qdir && Array.length (Sys.readdir qdir) = 1);
          (* The recomputed value replaced the entry on disk: a third
             runner serves it as a clean hit. *)
          checkb "entry republished" true (Sys.file_exists entry));
      let runner3 = Runner.create ~cache:true ~cache_dir:cache () in
      Fun.protect ~finally:(fun () -> Runner.shutdown runner3)
        (fun () ->
          let r3 = run runner3 in
          Alcotest.(check string) "hit matches" (record_fingerprint r1) (record_fingerprint r3);
          checki "served from disk" 1 (Runner.stats runner3).Runner.cache_hits))

let test_concurrent_cache_writers () =
  with_temp_dir (fun dir ->
      let cache = Filename.concat dir "cache" in
      let spec = Run_spec.default () in
      let prog = program "dot:16" and cfg = config "CU-AL=1" in
      (* Two runners race the same entry on the same directory: the
         atomic-rename publish means both complete, their records agree
         and the surviving entry is valid. *)
      let results = Array.make 2 None in
      let worker i =
        Thread.create
          (fun () ->
            let runner = Runner.create ~cache:true ~cache_dir:cache () in
            Fun.protect ~finally:(fun () -> Runner.shutdown runner)
              (fun () ->
                results.(i) <-
                  Some (Runner.experiment_spec ~spec runner ~machine ~program:prog cfg)))
          ()
      in
      let t0 = worker 0 and t1 = worker 1 in
      Thread.join t0;
      Thread.join t1;
      (match (results.(0), results.(1)) with
      | Some a, Some b ->
        Alcotest.(check string) "racing writers agree"
          (record_fingerprint a) (record_fingerprint b)
      | _ -> Alcotest.fail "a racing writer failed");
      checkb "no temp files left behind" true
        (Sys.readdir cache |> Array.for_all (fun n ->
             not (String.length n > 4 && String.sub n 0 4 = "tmp.")
             && not (List.mem "tmp" (String.split_on_char '.' n))));
      (* The published entry revalidates. *)
      let runner = Runner.create ~cache:true ~cache_dir:cache () in
      Fun.protect ~finally:(fun () -> Runner.shutdown runner)
        (fun () ->
          ignore (Runner.experiment_spec ~spec runner ~machine ~program:prog cfg);
          checki "entry survived the race" 1 (Runner.stats runner).Runner.cache_hits))

(* ------------------------------------------------------------------ *)
(* Cancelled lanes never perturb siblings                             *)
(* ------------------------------------------------------------------ *)

let test_cancelled_lane_battery () =
  (* 50 seeds: a request batch with one pre-cancelled request in the
     middle must come back [Expired] there and produce byte-identical
     sibling records to the batch that never contained it — the
     cancelled request may not shift, reorder or re-seed anything. *)
  let spec = Run_spec.v ~engine:Wp_sim.Sim.Fast () in
  let cfg = config "CU-AL=1" in
  let runner = Runner.create ~jobs:2 ~cache:false () in
  Fun.protect ~finally:(fun () -> Runner.shutdown runner) (fun () ->
      for seed = 0 to 49 do
        let request ?(cancel = Cancel.never) k =
          {
            Runner.req_spec = spec;
            req_machine = machine;
            req_program = program (Printf.sprintf "random:%d" ((3 * seed) + k));
            req_config = cfg;
            req_cancel = cancel;
          }
        in
        let tok = Cancel.create () in
        Cancel.cancel tok;
        let with_cancelled =
          Runner.experiments_batch_spec runner
            [ request 0; request ~cancel:tok 1; request 2 ]
        in
        let baseline = Runner.experiments_batch_spec runner [ request 0; request 2 ] in
        let fp = function
          | Runner.Completed r, _ -> record_fingerprint r
          | (Runner.Failed _ | Runner.Expired _), _ ->
            Alcotest.failf "seed %d: a sibling did not complete" seed
        in
        match (with_cancelled, baseline) with
        | [ left; (cancelled, from_cache); right ], [ left0; right0 ] ->
          (match cancelled with
          | Runner.Expired msg -> checkb "cancelled request reports expiry" true (msg <> "")
          | Runner.Completed _ | Runner.Failed _ ->
            Alcotest.failf "seed %d: cancelled request did not expire" seed);
          checkb "expired request not from cache" false from_cache;
          Alcotest.(check string)
            (Printf.sprintf "seed %d: left sibling byte-identical" seed)
            (fp left0) (fp left);
          Alcotest.(check string)
            (Printf.sprintf "seed %d: right sibling byte-identical" seed)
            (fp right0) (fp right)
        | _ -> Alcotest.failf "seed %d: one outcome per request" seed
      done)

(* ------------------------------------------------------------------ *)
(* File-descriptor hygiene                                            *)
(* ------------------------------------------------------------------ *)

let test_no_fd_leak () =
  let before = fd_count () in
  with_service (fun _svc socket _runner ->
      (* A mix of polite and hostile connections, all torn down. *)
      let conns = List.init 5 (fun _ -> Client.connect socket) in
      List.iteri
        (fun i conn ->
          match Client.call conn ~tag:i Wire.Ping with
          | Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong")
        conns;
      let hostile = raw_connect socket in
      send_raw hostile (u32_be 0x7F00_0000);
      let buf = Bytes.create 1 in
      ignore (Unix.read hostile buf 0 1);
      Unix.close hostile;
      List.iter Client.close conns);
  let after = fd_count () in
  checkb
    (Printf.sprintf "fds before=%d after=%d" before after)
    true (after <= before)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Random.self_init ();
  Alcotest.run "chaos"
    [
      ( "frames",
        [
          Alcotest.test_case "garbage frame answered Error" `Quick test_garbage_frame;
          Alcotest.test_case "oversized frame drops client" `Quick test_oversized_frame;
          Alcotest.test_case "mid-frame disconnect" `Quick test_midframe_disconnect;
          Alcotest.test_case "mid-frame stall" `Quick test_midframe_stall;
        ] );
      ( "overload",
        [
          Alcotest.test_case "silent client disconnected" `Quick
            test_silent_client_disconnected;
          Alcotest.test_case "deadline storm" `Quick test_deadline_storm;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "stale temp files reaped" `Quick test_stale_tmp_reaped;
          Alcotest.test_case "corrupt entry quarantined" `Quick
            test_corrupt_entry_quarantined;
          Alcotest.test_case "concurrent cache writers" `Quick
            test_concurrent_cache_writers;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "50-seed cancelled-lane battery" `Slow
            test_cancelled_lane_battery;
        ] );
      ( "hygiene",
        [ Alcotest.test_case "no fd leak" `Quick test_no_fd_leak ] );
    ]
