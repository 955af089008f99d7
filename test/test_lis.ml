(* Unit and property tests for Wp_lis: tokens, traces, relay stations,
   processes and shells. *)

module Token = Wp_lis.Token
module Trace = Wp_lis.Trace
module Relay_station = Wp_lis.Relay_station
module Process = Wp_lis.Process
module Shell = Wp_lis.Shell

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let token_testable = Alcotest.testable (Token.pp Format.pp_print_int) (Token.equal ( = ))

(* ------------------------------------------------------------------ *)
(* Token                                                              *)
(* ------------------------------------------------------------------ *)

let test_token_basics () =
  checkb "valid" true (Token.is_valid (Token.Valid 3));
  checkb "void" true (Token.is_void Token.Void);
  Alcotest.(check (option int)) "value" (Some 3) (Token.value (Token.Valid 3));
  Alcotest.(check (option int)) "value void" None (Token.value Token.Void);
  checki "value_exn" 3 (Token.value_exn (Token.Valid 3));
  Alcotest.check_raises "value_exn void" (Invalid_argument "Token.value_exn: void token")
    (fun () -> ignore (Token.value_exn (Token.Void : int Token.t)));
  Alcotest.check token_testable "map" (Token.Valid 4) (Token.map succ (Token.Valid 3));
  Alcotest.check token_testable "map void" Token.Void (Token.map succ Token.Void)

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let trace_of_list xs = List.map (function None -> Token.Void | Some v -> Token.Valid v) xs

let test_trace_filter () =
  let t = trace_of_list [ Some 1; None; None; Some 2; None; Some 3 ] in
  Alcotest.(check (list int)) "filtered" [ 1; 2; 3 ] (Trace.tau_filter t);
  checki "count" 3 (Trace.informative_count t);
  Alcotest.(check (float 1e-9)) "throughput" 0.5 (Trace.throughput t)

let test_trace_n_equivalence () =
  let a = trace_of_list [ Some 1; None; Some 2; Some 3 ] in
  let b = trace_of_list [ None; Some 1; None; None; Some 2; Some 9 ] in
  checkb "2-equivalent" true (Trace.n_equivalent ~eq:( = ) ~n:2 a b);
  checkb "not 3-equivalent" false (Trace.n_equivalent ~eq:( = ) ~n:3 a b);
  checkb "0-equivalent always" true (Trace.n_equivalent ~eq:( = ) ~n:0 a b);
  checkb "n beyond length fails" false (Trace.n_equivalent ~eq:( = ) ~n:5 a b);
  Alcotest.check_raises "negative n" (Invalid_argument "Trace.n_equivalent: negative n")
    (fun () -> ignore (Trace.n_equivalent ~eq:( = ) ~n:(-1) a b))

let test_trace_prefix () =
  let a = trace_of_list [ Some 1; Some 2; Some 3 ] in
  let b = trace_of_list [ None; Some 1; Some 2 ] in
  checki "common prefix" 2 (Trace.equivalent_prefix ~eq:( = ) a b);
  checkb "prefix equivalence" true (Trace.equivalent_upto_shorter ~eq:( = ) a b);
  let c = trace_of_list [ Some 1; Some 9 ] in
  checkb "mismatch detected" false (Trace.equivalent_upto_shorter ~eq:( = ) a c)

(* ------------------------------------------------------------------ *)
(* Relay_station                                                      *)
(* ------------------------------------------------------------------ *)

let test_rs_empty_emits_void () =
  let rs : int Relay_station.t = Relay_station.create () in
  Alcotest.check token_testable "void when empty" Token.Void (Relay_station.emit rs ~stop_in:false);
  checki "occupancy" 0 (Relay_station.occupancy rs)

let test_rs_forwarding () =
  let rs = Relay_station.create () in
  Relay_station.accept rs (Token.Valid 7);
  checki "holds one" 1 (Relay_station.occupancy rs);
  Alcotest.check token_testable "emits it" (Token.Valid 7) (Relay_station.emit rs ~stop_in:false);
  checki "drained" 0 (Relay_station.occupancy rs)

let test_rs_void_absorbed () =
  let rs : int Relay_station.t = Relay_station.create () in
  Relay_station.accept rs Token.Void;
  checki "void not stored" 0 (Relay_station.occupancy rs)

let test_rs_stop_buffers () =
  let rs = Relay_station.create () in
  Relay_station.accept rs (Token.Valid 1);
  (* Downstream stopped: emit nothing, keep data; second datum goes into
     the auxiliary register. *)
  Alcotest.check token_testable "stopped -> tau" Token.Void (Relay_station.emit rs ~stop_in:true);
  Relay_station.accept rs (Token.Valid 2);
  checki "both registers used" 2 (Relay_station.occupancy rs);
  checkb "full" true (Relay_station.is_full rs);
  checkb "stop propagates when full+stopped" true (Relay_station.stop_out rs ~stop_in:true);
  checkb "no stop when downstream free" false (Relay_station.stop_out rs ~stop_in:false);
  (* Downstream restarts: data comes out in order. *)
  Alcotest.check token_testable "first out" (Token.Valid 1) (Relay_station.emit rs ~stop_in:false);
  Alcotest.check token_testable "second out" (Token.Valid 2) (Relay_station.emit rs ~stop_in:false)

let test_rs_overflow_raises () =
  let rs = Relay_station.create ~name:"x" () in
  Relay_station.accept rs (Token.Valid 1);
  Relay_station.accept rs (Token.Valid 2);
  Alcotest.check_raises "protocol violation"
    (Failure "Relay_station x: datum lost (stop protocol violated)") (fun () ->
      Relay_station.accept rs (Token.Valid 3))

let test_rs_reset () =
  let rs = Relay_station.create () in
  Relay_station.accept rs (Token.Valid 1);
  Relay_station.reset rs;
  checki "reset clears" 0 (Relay_station.occupancy rs)

(* FIFO-order property under a random stop pattern: everything pushed in
   comes out in order, nothing lost, nothing duplicated. *)
let prop_rs_lossless =
  QCheck2.Test.make ~count:300 ~name:"relay station is lossless and order-preserving"
    QCheck2.Gen.(list (pair bool bool))
    (fun pattern ->
      let rs = Relay_station.create () in
      let sent = ref [] and received = ref [] in
      let counter = ref 0 in
      List.iter
          (fun (want_send, stop_in) ->
            let stop_out = Relay_station.stop_out rs ~stop_in in
            (match Relay_station.emit rs ~stop_in with
            | Token.Valid v -> received := v :: !received
            | Token.Void -> ());
            if want_send && not stop_out then begin
              incr counter;
              sent := !counter :: !sent;
              Relay_station.accept rs (Token.Valid !counter)
            end)
        pattern;
      (* Drain. *)
      let rec drain () =
        match Relay_station.emit rs ~stop_in:false with
        | Token.Valid v ->
          received := v :: !received;
          drain ()
        | Token.Void -> ()
      in
      drain ();
      List.rev !received = List.rev !sent)

(* A chain of relay stations behaves as one lossless, order-preserving
   FIFO under arbitrary stop patterns. *)
let prop_rs_chain_lossless =
  QCheck2.Test.make ~count:200 ~name:"relay chains are lossless end to end"
    QCheck2.Gen.(pair (int_range 1 5) (list (pair bool bool)))
    (fun (k, pattern) ->
      let chain = Array.init k (fun i -> Relay_station.create ~name:(string_of_int i) ()) in
      let sent = ref [] and received = ref [] in
      let counter = ref 0 in
      let step ~want_send ~stop_in =
        (* Backwards stop propagation, then simultaneous shift. *)
        let stops = Array.make k false in
        let stop = ref stop_in in
        for i = k - 1 downto 0 do
          stops.(i) <- !stop;
          stop := Relay_station.stop_out chain.(i) ~stop_in:!stop
        done;
        let producer_stop = !stop in
        let emissions = Array.mapi (fun i rs -> Relay_station.emit rs ~stop_in:stops.(i)) chain in
        (match emissions.(k - 1) with
        | Token.Valid v -> received := v :: !received
        | Token.Void -> ());
        for i = k - 1 downto 1 do
          Relay_station.accept chain.(i) emissions.(i - 1)
        done;
        if want_send && not producer_stop then begin
          incr counter;
          sent := !counter :: !sent;
          Relay_station.accept chain.(0) (Token.Valid !counter)
        end
        else Relay_station.accept chain.(0) Token.Void
      in
      List.iter (fun (want_send, stop_in) -> step ~want_send ~stop_in) pattern;
      (* Drain: k extra unstopped cycles flush everything in flight. *)
      for _ = 1 to (2 * k) + 2 do
        step ~want_send:false ~stop_in:false
      done;
      List.rev !received = List.rev !sent)

(* ------------------------------------------------------------------ *)
(* Process                                                            *)
(* ------------------------------------------------------------------ *)

let test_process_helpers () =
  let src = Process.pure_source ~name:"src" ~output_name:"o" ~reset:0 (fun k -> k * 10) in
  Process.validate src;
  let inst = src.Process.make () in
  Alcotest.(check (array int)) "first" [| 0 |] (inst.Process.fire [||]);
  Alcotest.(check (array int)) "second" [| 10 |] (inst.Process.fire [||]);
  let u = Process.unary ~name:"inc" ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let ui = u.Process.make () in
  Alcotest.(check (array int)) "unary" [| 6 |] (ui.Process.fire [| Some 5 |]);
  checki "input index" 0 (Process.input_index u "i");
  checki "output index" 0 (Process.output_index u "o");
  checkb "missing port" true
    (match Process.input_index u "zzz" with
    | exception Not_found -> true
    | _ -> false)

let test_process_validate_arity () =
  let bad =
    {
      Process.name = "bad";
      input_names = [||];
      output_names = [| "o" |];
      reset_outputs = [||];
      make =
        (fun () ->
          {
            Process.required = Process.all_required 0;
            fire = (fun _ -> [||]);
            halted = (fun () -> false);
          });
    }
  in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "bad: reset_outputs arity mismatch")
    (fun () -> Process.validate bad)

let test_process_unrequired_read_rejected () =
  let u = Process.unary ~name:"inc" ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let ui = u.Process.make () in
  Alcotest.check_raises "reading unrequired input"
    (Invalid_argument "Process: reading an input that was not required") (fun () ->
      ignore (ui.Process.fire [| None |]))

(* ------------------------------------------------------------------ *)
(* Shell                                                              *)
(* ------------------------------------------------------------------ *)

(* A two-input process whose oracle alternates: even firings read only
   port 0 (emit 2*a), odd firings read both (emit a+b). *)
(* Reads a on every firing and b only on odd ones.  [oracle_only]
   instances fail an even firing that is handed b, which a Plain shell
   always does. *)
let modal ~oracle_only =
  {
    Process.name = "modal";
    input_names = [| "a"; "b" |];
    output_names = [| "o" |];
    reset_outputs = [| 0 |];
    make =
      (fun () ->
        let k = ref 0 in
        {
          Process.required = (fun () -> if !k mod 2 = 0 then [| true; false |] else [| true; true |]);
          fire =
            (fun inputs ->
              let a = match inputs.(0) with Some v -> v | None -> assert false in
              let out =
                if !k mod 2 = 0 then begin
                  (* An Oracle shell must pass the skipped port as [None]:
                     a value here is one the oracle never asked for, such
                     as the last firing's, left in a reused array. *)
                  if oracle_only && inputs.(1) <> None then
                    failwith "modal: even firing received port b";
                  2 * a
                end
                else a + (match inputs.(1) with Some v -> v | None -> assert false)
              in
              incr k;
              [| out |]);
          halted = (fun () -> false);
        });
  }

let modal_process = modal ~oracle_only:false

let test_shell_plain_fire_cycle () =
  let u = Process.unary ~name:"inc" ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let sh = Shell.create ~mode:Shell.Plain ~record_traces:true u in
  checkb "not ready initially" false (Shell.ready sh);
  let outs = Shell.stall sh ~reason:`Input in
  Alcotest.check token_testable "stall emits tau" Token.Void outs.(0);
  Shell.accept sh ~port:0 (Token.Valid 41);
  checkb "ready" true (Shell.ready sh);
  let outs = Shell.fire sh in
  Alcotest.check token_testable "fired" (Token.Valid 42) outs.(0);
  let stats = Shell.stats sh in
  checki "1 firing" 1 stats.Shell.firings;
  checki "1 stall" 1 stats.Shell.stalls;
  checki "starved" 1 stats.Shell.input_starved;
  Alcotest.(check (list int)) "trace filtered" [ 42 ]
    (Trace.tau_filter (Shell.output_trace sh 0))

let test_shell_fire_not_ready_rejected () =
  let u = Process.unary ~name:"inc" ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let sh = Shell.create ~mode:Shell.Plain u in
  Alcotest.check_raises "not ready" (Invalid_argument "inc: fire while not ready") (fun () ->
      ignore (Shell.fire sh))

let test_shell_input_stop_and_overflow () =
  let u = Process.unary ~name:"inc" ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let sh = Shell.create ~capacity:2 ~mode:Shell.Plain u in
  checkb "no stop empty" false (Shell.input_stop sh 0);
  Shell.accept sh ~port:0 (Token.Valid 1);
  Shell.accept sh ~port:0 (Token.Valid 2);
  checkb "stop when full" true (Shell.input_stop sh 0);
  checki "buffered" 2 (Shell.buffered sh 0);
  Alcotest.check_raises "overflow"
    (Failure "Shell inc: token lost on port i (stop protocol violated)") (fun () ->
      Shell.accept sh ~port:0 (Token.Valid 3))

let test_shell_void_ignored () =
  let u = Process.unary ~name:"inc" ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let sh = Shell.create ~mode:Shell.Plain u in
  Shell.accept sh ~port:0 Token.Void;
  checki "void not buffered" 0 (Shell.buffered sh 0)

let test_shell_unbounded () =
  let u = Process.unary ~name:"inc" ~input_name:"i" ~output_name:"o" ~reset:0 succ in
  let sh = Shell.create ~capacity:0 ~mode:Shell.Plain u in
  for i = 1 to 100 do
    Shell.accept sh ~port:0 (Token.Valid i)
  done;
  checkb "never stops" false (Shell.input_stop sh 0);
  checki "all buffered" 100 (Shell.buffered sh 0)

let test_shell_oracle_fires_without_unneeded () =
  let sh = Shell.create ~mode:Shell.Oracle (modal ~oracle_only:true) in
  (* Even firing: only port a is needed. *)
  Shell.accept sh ~port:0 (Token.Valid 5);
  checkb "ready without b" true (Shell.ready sh);
  let outs = Shell.fire sh in
  Alcotest.check token_testable "2*a" (Token.Valid 10) outs.(0);
  (* The tag-0 token on b is now stale: dropped on arrival. *)
  Shell.accept sh ~port:1 (Token.Valid 99);
  checki "stale b dropped" 0 (Shell.buffered sh 1);
  (* Odd firing: both needed. *)
  Shell.accept sh ~port:0 (Token.Valid 3);
  checkb "not ready without b" false (Shell.ready sh);
  Shell.accept sh ~port:1 (Token.Valid 4);
  checkb "ready with both" true (Shell.ready sh);
  let outs = Shell.fire sh in
  Alcotest.check token_testable "a+b" (Token.Valid 7) outs.(0);
  (* Even firing right after one that read b: b must arrive as [None]
     again, not as the 4 of the firing before. *)
  Shell.accept sh ~port:0 (Token.Valid 6);
  let outs = Shell.fire sh in
  Alcotest.check token_testable "2*a after a+b" (Token.Valid 12) outs.(0);
  let stats = Shell.stats sh in
  checki "b required once" 1 stats.Shell.required_counts.(1);
  checki "a required three times" 3 stats.Shell.required_counts.(0);
  checki "one b token dropped" 1 stats.Shell.dropped.(1)

let test_shell_oracle_discards_buffered () =
  let sh = Shell.create ~mode:Shell.Oracle modal_process in
  (* Both tokens arrive before the even firing: b is buffered, then
     discarded by the firing itself. *)
  Shell.accept sh ~port:0 (Token.Valid 5);
  Shell.accept sh ~port:1 (Token.Valid 77);
  ignore (Shell.fire sh);
  checki "buffered b consumed by discard" 0 (Shell.buffered sh 1);
  let stats = Shell.stats sh in
  checki "recorded as dropped" 1 stats.Shell.dropped.(1)

let test_shell_plain_consumes_everything () =
  let sh = Shell.create ~mode:Shell.Plain modal_process in
  Shell.accept sh ~port:0 (Token.Valid 5);
  checkb "plain needs both" false (Shell.ready sh);
  Shell.accept sh ~port:1 (Token.Valid 1);
  checkb "ready" true (Shell.ready sh);
  ignore (Shell.fire sh);
  let stats = Shell.stats sh in
  checki "no drops in plain mode" 0 (stats.Shell.dropped.(0) + stats.Shell.dropped.(1))

(* Property: for a random arrival schedule, the oracle shell produces the
   same informative output stream as the plain shell (the paper's
   equivalence claim, at shell granularity). *)
let prop_shell_oracle_equivalent =
  QCheck2.Test.make ~count:300 ~name:"oracle shell output = plain shell output"
    QCheck2.Gen.(list (pair small_nat small_nat))
    (fun arrivals ->
      let run mode =
        let sh = Shell.create ~capacity:0 ~record_traces:true ~mode modal_process in
        List.iter
          (fun (a, b) ->
            Shell.accept sh ~port:0 (Token.Valid a);
            Shell.accept sh ~port:1 (Token.Valid b);
            (* Fire as often as possible this cycle (at most once). *)
            if Shell.ready sh then ignore (Shell.fire sh) else ignore (Shell.stall sh ~reason:`Input))
          arrivals;
        Trace.tau_filter (Shell.output_trace sh 0)
      in
      let plain = run Shell.Plain and oracle = run Shell.Oracle in
      let rec prefix a b =
        match (a, b) with
        | [], _ | _, [] -> true
        | x :: a', y :: b' -> x = y && prefix a' b'
      in
      (* The oracle shell may run ahead; outputs must agree on the common
         prefix and the oracle must produce at least as many. *)
      prefix plain oracle && List.length oracle >= List.length plain)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_rs_lossless; prop_rs_chain_lossless; prop_shell_oracle_equivalent ]
  in
  Alcotest.run "wp_lis"
    [
      ("token", [ Alcotest.test_case "basics" `Quick test_token_basics ]);
      ( "trace",
        [
          Alcotest.test_case "filter" `Quick test_trace_filter;
          Alcotest.test_case "n-equivalence" `Quick test_trace_n_equivalence;
          Alcotest.test_case "prefix" `Quick test_trace_prefix;
        ] );
      ( "relay_station",
        [
          Alcotest.test_case "empty emits void" `Quick test_rs_empty_emits_void;
          Alcotest.test_case "forwarding" `Quick test_rs_forwarding;
          Alcotest.test_case "void absorbed" `Quick test_rs_void_absorbed;
          Alcotest.test_case "stop buffers" `Quick test_rs_stop_buffers;
          Alcotest.test_case "overflow raises" `Quick test_rs_overflow_raises;
          Alcotest.test_case "reset" `Quick test_rs_reset;
        ] );
      ( "process",
        [
          Alcotest.test_case "helpers" `Quick test_process_helpers;
          Alcotest.test_case "validate arity" `Quick test_process_validate_arity;
          Alcotest.test_case "unrequired read rejected" `Quick test_process_unrequired_read_rejected;
        ] );
      ( "shell",
        [
          Alcotest.test_case "plain fire cycle" `Quick test_shell_plain_fire_cycle;
          Alcotest.test_case "fire when not ready" `Quick test_shell_fire_not_ready_rejected;
          Alcotest.test_case "input stop and overflow" `Quick test_shell_input_stop_and_overflow;
          Alcotest.test_case "void ignored" `Quick test_shell_void_ignored;
          Alcotest.test_case "unbounded" `Quick test_shell_unbounded;
          Alcotest.test_case "oracle fires without unneeded" `Quick test_shell_oracle_fires_without_unneeded;
          Alcotest.test_case "oracle discards buffered" `Quick test_shell_oracle_discards_buffered;
          Alcotest.test_case "plain consumes everything" `Quick test_shell_plain_consumes_everything;
        ] );
      ("properties", props);
    ]
