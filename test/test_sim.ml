(* Tests for Wp_sim: network construction, engine semantics, the m/(m+n)
   throughput law, and golden-vs-wrapped equivalence. *)

module Token = Wp_lis.Token
module Trace = Wp_lis.Trace
module Process = Wp_lis.Process
module Shell = Wp_lis.Shell
module Network = Wp_sim.Network
module Engine = Wp_sim.Engine
module Monitor = Wp_sim.Monitor
module Sim = Wp_sim.Sim
module Static = Wp_sim.Static

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Builders                                                           *)
(* ------------------------------------------------------------------ *)

let relay name = Process.unary ~name ~input_name:"i" ~output_name:"o" ~reset:0 succ

(* A ring of [m] relays; [rs] relay stations on the closing channel. *)
let ring m ~rs =
  let net = Network.create () in
  let nodes = List.init m (fun i -> Network.add net (relay (Printf.sprintf "p%d" i))) in
  let arr = Array.of_list nodes in
  for i = 0 to m - 1 do
    let src = arr.(i) and dst = arr.((i + 1) mod m) in
    ignore
      (Network.connect net ~src:(src, "o") ~dst:(dst, "i")
         ~relay_stations:(if i = m - 1 then rs else 0)
         ())
  done;
  net

(* Source -> [rs] -> sink chain. *)
let chain ~rs =
  let net = Network.create () in
  let s = Network.add net (Process.pure_source ~name:"src" ~output_name:"o" ~reset:0 Fun.id) in
  let k = Network.add net (Process.sink ~name:"snk" ~input_name:"i") in
  let c = Network.connect net ~src:(s, "o") ~dst:(k, "i") ~relay_stations:rs () in
  (net, c)

(* ------------------------------------------------------------------ *)
(* Network                                                            *)
(* ------------------------------------------------------------------ *)

let test_network_build () =
  let net = ring 3 ~rs:1 in
  checki "nodes" 3 (Network.node_count net);
  checki "channels" 3 (Network.channel_count net);
  Network.validate net;
  Alcotest.(check (option int)) "node by name" (Some 1) (Network.node_of_name net "p1");
  let c = Option.get (Network.channel_of_label net "p2.o -> p0.i") in
  checki "rs count" 1 (Network.relay_stations net c);
  Network.set_relay_stations net c 4;
  checki "rs updated" 4 (Network.relay_stations net c)

let test_network_rejects_double_connection () =
  let net = Network.create () in
  let a = Network.add net (relay "a") in
  let b = Network.add net (relay "b") in
  ignore (Network.connect net ~src:(a, "o") ~dst:(b, "i") ());
  checkb "double output rejected" true
    (match Network.connect net ~src:(a, "o") ~dst:(b, "i") () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_network_rejects_unknown_port () =
  let net = Network.create () in
  let a = Network.add net (relay "a") in
  let b = Network.add net (relay "b") in
  checkb "unknown port" true
    (match Network.connect net ~src:(a, "zzz") ~dst:(b, "i") () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_network_validate_unconnected () =
  let net = Network.create () in
  ignore (Network.add net (relay "a"));
  checkb "unconnected detected" true
    (match Network.validate net with exception Invalid_argument _ -> true | _ -> false)

let test_network_duplicate_name () =
  let net = Network.create () in
  ignore (Network.add net (relay "a"));
  checkb "duplicate name" true
    (match Network.add net (relay "a") with exception Invalid_argument _ -> true | _ -> false)

let test_network_to_digraph () =
  let net = ring 4 ~rs:2 in
  let g, edge_to_channel = Network.to_digraph net in
  checki "vertices" 4 (Wp_graph.Digraph.vertex_count g);
  checki "edges" 4 (Wp_graph.Digraph.edge_count g);
  let cycles = Wp_graph.Cycles.elementary_cycles g in
  checki "one loop" 1 (List.length cycles);
  (* The RS counts seen through the mapping must total 2. *)
  let total =
    List.fold_left
      (fun acc e -> acc + Network.relay_stations net (edge_to_channel e))
      0 (List.hd cycles)
  in
  checki "rs through mapping" 2 total

(* ------------------------------------------------------------------ *)
(* Engine: throughput law                                             *)
(* ------------------------------------------------------------------ *)

let firing_rate net ~mode ~cycles ~node_name =
  let engine = Engine.create ~mode net in
  (match Engine.run ~max_cycles:cycles engine with
  | Engine.Exhausted _ -> ()
  | Engine.Halted c -> Alcotest.failf "unexpected halt at %d" c
  | Engine.Deadlocked c -> Alcotest.failf "unexpected deadlock at %d" c
  | Engine.Cancelled c -> Alcotest.failf "unexpected cancellation at %d" c);
  let report = Monitor.collect engine in
  Monitor.node_throughput report node_name

let check_rate expected actual =
  if abs_float (expected -. actual) > 0.02 then
    Alcotest.failf "throughput %.4f, expected %.4f" actual expected

let test_golden_ring_full_throughput () =
  check_rate 1.0 (firing_rate (ring 3 ~rs:0) ~mode:Shell.Plain ~cycles:2000 ~node_name:"p0")

let test_ring_throughput_law () =
  (* Th = m / (m + n) for a ring of m processes and n relay stations. *)
  List.iter
    (fun (m, n) ->
      let expected = float_of_int m /. float_of_int (m + n) in
      check_rate expected
        (firing_rate (ring m ~rs:n) ~mode:Shell.Plain ~cycles:3000 ~node_name:"p0"))
    [ (2, 1); (2, 2); (3, 1); (3, 2); (4, 3); (5, 1); (1, 1); (1, 3) ]

let test_ring_law_matches_cycle_ratio () =
  (* The engine and the analytic bound must tell the same story. *)
  let net = ring 4 ~rs:3 in
  let g, edge_to_channel = Network.to_digraph net in
  let time e = 1 + Network.relay_stations net (edge_to_channel e) in
  match Wp_graph.Cycle_ratio.minimum g ~cost:(fun _ -> 1) ~time with
  | None -> Alcotest.fail "ring must have a cycle"
  | Some (r, _) ->
    let analytic = Wp_graph.Cycle_ratio.ratio_to_float r in
    check_rate analytic (firing_rate net ~mode:Shell.Plain ~cycles:3000 ~node_name:"p0")

let test_chain_throughput_unaffected_by_rs () =
  (* No loop: relay stations add latency, not throughput loss. *)
  let net, c = chain ~rs:5 in
  let engine = Engine.create ~mode:Shell.Plain net in
  ignore (Engine.run ~max_cycles:1000 engine);
  let delivered = Engine.delivered engine c in
  (* 1000 cycles minus the 5-stage fill, within a small margin. *)
  checkb "delivered close to cycles" true (delivered >= 990 && delivered <= 1000)

(* ------------------------------------------------------------------ *)
(* Engine: halting, exhaustion, deadlock                              *)
(* ------------------------------------------------------------------ *)

let halting_source limit =
  {
    Process.name = "halting";
    input_names = [||];
    output_names = [| "o" |];
    reset_outputs = [| 0 |];
    make =
      (fun () ->
        let k = ref 0 in
        {
          Process.required = Process.all_required 0;
          fire =
            (fun _ ->
              incr k;
              [| !k |]);
          halted = (fun () -> !k >= limit);
        });
  }

let test_engine_halts () =
  let net = Network.create () in
  let s = Network.add net (halting_source 10) in
  let k = Network.add net (Process.sink ~name:"snk" ~input_name:"i") in
  ignore (Network.connect net ~src:(s, "o") ~dst:(k, "i") ());
  let engine = Engine.create ~mode:Shell.Plain net in
  match Engine.run engine with
  | Engine.Halted cycles -> checki "halted at 10" 10 cycles
  | Engine.Deadlocked _ | Engine.Exhausted _ | Engine.Cancelled _ ->
    Alcotest.fail "expected halt"

let test_engine_exhausts () =
  let net = ring 2 ~rs:0 in
  let engine = Engine.create ~mode:Shell.Plain net in
  match Engine.run ~max_cycles:50 engine with
  | Engine.Exhausted cycles -> checki "ran 50" 50 cycles
  | Engine.Halted _ | Engine.Deadlocked _ | Engine.Cancelled _ ->
    Alcotest.fail "expected exhaustion"

let test_engine_deadlock_detected () =
  (* A self-loop into a capacity-1 FIFO: the initial token fills the FIFO,
     the conservative stop blocks the only firing that would drain it.
     This violates the sizing rules on purpose to exercise the detector. *)
  let net = Network.create () in
  let a = Network.add net (relay "a") in
  ignore (Network.connect net ~src:(a, "o") ~dst:(a, "i") ());
  let engine = Engine.create ~capacity:1 ~mode:Shell.Plain net in
  match Engine.run ~max_cycles:5000 engine with
  | Engine.Deadlocked _ -> ()
  | Engine.Halted _ -> Alcotest.fail "expected deadlock, got halt"
  | Engine.Exhausted _ -> Alcotest.fail "expected deadlock, got exhaustion"
  | Engine.Cancelled _ -> Alcotest.fail "expected deadlock, got cancellation"

let test_engine_self_loop_live_with_capacity_2 () =
  let net = Network.create () in
  let a = Network.add net (relay "a") in
  ignore (Network.connect net ~src:(a, "o") ~dst:(a, "i") ());
  let engine = Engine.create ~capacity:2 ~mode:Shell.Plain net in
  (match Engine.run ~max_cycles:100 engine with
  | Engine.Exhausted _ -> ()
  | Engine.Halted _ | Engine.Deadlocked _ | Engine.Cancelled _ ->
    Alcotest.fail "self loop should be live");
  let report = Monitor.collect engine in
  check_rate 1.0 (Monitor.node_throughput report "a")

(* A one-port stage whose oracle skips every third token: its output
   folds in every value it is given and its firing count, so a value
   from the wrong slot, or one given for a skipped port, shows in the
   trace. *)
let skipper =
  {
    Process.name = "s";
    input_names = [| "i" |];
    output_names = [| "o" |];
    reset_outputs = [| 5 |];
    make =
      (fun () ->
        let k = ref 0 and acc = ref 0 in
        {
          Process.required = (fun () -> [| !k mod 3 <> 2 |]);
          fire =
            (fun inputs ->
              (match inputs.(0) with Some v -> acc := ((31 * !acc) + v) land 0xffff | None -> ());
              incr k;
              [| !acc + !k |]);
          halted = (fun () -> false);
        });
  }

(* A self-loop is the one shape where a firing reads and writes the same
   ring, and where the table replay's overflow check reads the
   producer's own firing count.  The replay must match Fast and the
   reference interpreter on everything observable. *)
let test_self_loop_replay () =
  List.iter
    (fun mode ->
      for capacity = 1 to 3 do
        for rs = 0 to 3 do
          let net = Network.create () in
          let a = Network.add net skipper in
          let c = Network.connect net ~src:(a, "o") ~dst:(a, "i") ~relay_stations:rs () in
          let what =
            Printf.sprintf "%s C=%d rs=%d"
              (if mode = Shell.Plain then "plain" else "oracle")
              capacity rs
          in
          let st = Static.create ~capacity ~record_traces:true ~mode net in
          let outcome = Static.run ~max_cycles:60 st in
          List.iter
            (fun engine ->
              let sim = Sim.create ~engine ~capacity ~record_traces:true ~mode net in
              let who = what ^ " vs " ^ Sim.kind_to_string engine in
              checkb (who ^ ": outcome") true (Sim.run ~max_cycles:60 sim = outcome);
              checki (who ^ ": cycles") (Sim.cycles sim) (Static.cycles st);
              checki (who ^ ": delivered") (Sim.delivered sim c) (Static.delivered st c);
              checkb (who ^ ": stats") true (Sim.node_stats sim a = Static.node_stats st a);
              checkb (who ^ ": trace") true (Sim.output_trace sim a 0 = Static.output_trace st a 0))
            [ Sim.Fast; Sim.Reference ]
        done
      done)
    [ Shell.Plain; Shell.Oracle ]

(* ------------------------------------------------------------------ *)
(* Equivalence: golden vs WP1 vs WP2                                  *)
(* ------------------------------------------------------------------ *)

(* Modal join: even firings need only [a] (emit 2a), odd firings need both
   (emit a+b).  Exercises the oracle rule inside a looped network. *)
let modal_join =
  {
    Process.name = "join";
    input_names = [| "a"; "b" |];
    output_names = [| "o" |];
    reset_outputs = [| 0 |];
    make =
      (fun () ->
        let k = ref 0 in
        {
          Process.required =
            (fun () -> if !k mod 2 = 0 then [| true; false |] else [| true; true |]);
          fire =
            (fun inputs ->
              let a = match inputs.(0) with Some v -> v | None -> assert false in
              let out =
                if !k mod 2 = 0 then 2 * a
                else a + (match inputs.(1) with Some v -> v | None -> assert false)
              in
              incr k;
              [| out |]);
          halted = (fun () -> false);
        });
  }

(* Fork: one input fans out to two outputs (distinct ports). *)
let fork =
  {
    Process.name = "fork";
    input_names = [| "i" |];
    output_names = [| "x"; "y" |];
    reset_outputs = [| 0; 0 |];
    make =
      (fun () ->
        {
          Process.required = Process.all_required 1;
          fire =
            (fun inputs ->
              let v = match inputs.(0) with Some v -> v | None -> assert false in
              [| v + 1; v * 2 |]);
          halted = (fun () -> false);
        });
  }

(* Diamond with feedback: join -> fork -> (two paths) -> join. *)
let diamond ~rs_x ~rs_y =
  let net = Network.create () in
  let j = Network.add net modal_join in
  let f = Network.add net fork in
  ignore (Network.connect net ~src:(j, "o") ~dst:(f, "i") ());
  ignore (Network.connect net ~src:(f, "x") ~dst:(j, "a") ~relay_stations:rs_x ());
  ignore (Network.connect net ~src:(f, "y") ~dst:(j, "b") ~relay_stations:rs_y ());
  net

let join_output_trace net ~mode ~cycles =
  let engine = Engine.create ~record_traces:true ~mode net in
  ignore (Engine.run ~max_cycles:cycles engine);
  let j = Option.get (Network.node_of_name net "join") in
  Trace.tau_filter (Shell.output_trace (Engine.shell engine j) 0)

let rec common_prefix a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | x :: a', y :: b' -> x = y && common_prefix a' b'

let test_equivalence_wp1 () =
  let golden = join_output_trace (diamond ~rs_x:0 ~rs_y:0) ~mode:Shell.Plain ~cycles:400 in
  List.iter
    (fun (rs_x, rs_y) ->
      let wp = join_output_trace (diamond ~rs_x ~rs_y) ~mode:Shell.Plain ~cycles:400 in
      checkb "wp1 prefix-equivalent to golden" true (common_prefix golden wp);
      checkb "wp1 made progress" true (List.length wp > 50))
    [ (1, 0); (0, 1); (2, 2); (3, 1) ]

let test_equivalence_wp2 () =
  let golden = join_output_trace (diamond ~rs_x:0 ~rs_y:0) ~mode:Shell.Plain ~cycles:400 in
  List.iter
    (fun (rs_x, rs_y) ->
      let wp = join_output_trace (diamond ~rs_x ~rs_y) ~mode:Shell.Oracle ~cycles:400 in
      checkb "wp2 prefix-equivalent to golden" true (common_prefix golden wp);
      checkb "wp2 made progress" true (List.length wp > 50))
    [ (1, 0); (0, 1); (2, 2); (3, 1) ]

(* Join needing [b] only once every [period] firings: when the needed
   fraction drops below the loop bound m/(m+n), the oracle has slack to
   exploit. *)
let sparse_join ~period =
  {
    Process.name = "join";
    input_names = [| "a"; "b" |];
    output_names = [| "o" |];
    reset_outputs = [| 0 |];
    make =
      (fun () ->
        let k = ref 0 in
        {
          Process.required =
            (fun () -> if !k mod period = period - 1 then [| true; true |] else [| true; false |]);
          fire =
            (fun inputs ->
              let a = match inputs.(0) with Some v -> v | None -> assert false in
              let out =
                if !k mod period = period - 1 then
                  a + (match inputs.(1) with Some v -> v | None -> assert false)
                else a + 1
              in
              incr k;
              [| out |]);
          halted = (fun () -> false);
        });
  }

let sparse_diamond ~rs_y =
  let net = Network.create () in
  let j = Network.add net (sparse_join ~period:4) in
  let f = Network.add net fork in
  ignore (Network.connect net ~src:(j, "o") ~dst:(f, "i") ());
  ignore (Network.connect net ~src:(f, "x") ~dst:(j, "a") ());
  ignore (Network.connect net ~src:(f, "y") ~dst:(j, "b") ~relay_stations:rs_y ());
  net

let test_wp2_beats_wp1_on_lazy_channel () =
  (* Relay stations on [b], a port the join needs only 1 firing in 4: the
     oracle system must fire strictly more often than m/(m+n) = 0.4. *)
  let count mode =
    let engine = Engine.create ~mode (sparse_diamond ~rs_y:3) in
    ignore (Engine.run ~max_cycles:1000 engine);
    let report = Monitor.collect engine in
    Monitor.node_throughput report "join"
  in
  let th1 = count Shell.Plain and th2 = count Shell.Oracle in
  checkb (Printf.sprintf "wp1 (%.3f) at loop bound" th1) true (abs_float (th1 -. 0.4) < 0.02);
  checkb (Printf.sprintf "wp2 (%.3f) > wp1 (%.3f)" th2 th1) true (th2 > th1 +. 0.05)

let test_wp2_sparse_equivalent () =
  (* The sparse-join system must stay prefix-equivalent to golden too. *)
  let trace net ~mode =
    let engine = Engine.create ~record_traces:true ~mode net in
    ignore (Engine.run ~max_cycles:400 engine);
    let j = Option.get (Network.node_of_name net "join") in
    Trace.tau_filter (Shell.output_trace (Engine.shell engine j) 0)
  in
  let golden = trace (sparse_diamond ~rs_y:0) ~mode:Shell.Plain in
  let wp2 = trace (sparse_diamond ~rs_y:3) ~mode:Shell.Oracle in
  checkb "sparse wp2 equivalent" true (common_prefix golden wp2);
  checkb "progress" true (List.length wp2 > 50)

let test_monitor_utilization () =
  let net = diamond ~rs_x:0 ~rs_y:0 in
  let engine = Engine.create ~mode:Shell.Oracle net in
  ignore (Engine.run ~max_cycles:500 engine);
  let report = Monitor.collect engine in
  let util_a = Monitor.utilization report ~node:"join" ~port:"a" in
  let util_b = Monitor.utilization report ~node:"join" ~port:"b" in
  Alcotest.(check (float 1e-6)) "a always needed" 1.0 util_a;
  checkb "b needed about half the time" true (abs_float (util_b -. 0.5) < 0.05);
  (* The rendered report mentions both processes. *)
  let s = Monitor.to_table report in
  checkb "table mentions join" true
    (let n = String.length "join" and h = String.length s in
     let rec scan i = i + n <= h && (String.sub s i n = "join" || scan (i + 1)) in
     scan 0)

let test_initial_token_is_reset_value () =
  (* The first value a consumer sees must be the producer's reset output. *)
  let seen = ref [] in
  let recorder =
    {
      Process.name = "rec";
      input_names = [| "i" |];
      output_names = [||];
      reset_outputs = [||];
      make =
        (fun () ->
          {
            Process.required = Process.all_required 1;
            fire =
              (fun inputs ->
                (match inputs.(0) with Some v -> seen := v :: !seen | None -> assert false);
                [||]);
            halted = (fun () -> false);
          });
    }
  in
  let net = Network.create () in
  let s =
    Network.add net
      (Process.pure_source ~name:"src" ~output_name:"o" ~reset:123 (fun k -> 1000 + k))
  in
  let r = Network.add net recorder in
  ignore (Network.connect net ~src:(s, "o") ~dst:(r, "i") ());
  let engine = Engine.create ~mode:Shell.Plain net in
  ignore (Engine.run ~max_cycles:3 engine);
  (match List.rev !seen with
  | first :: second :: _ ->
    checki "reset value first" 123 first;
    checki "then the stream" 1000 second
  | _ -> Alcotest.fail "expected at least two consumptions")

(* Token conservation: on every channel, deliveries never exceed the
   producer's firings, and the gap is bounded by the in-flight capacity
   of the relay chain plus the output latch. *)
let prop_token_conservation =
  QCheck2.Test.make ~count:100 ~name:"token conservation on every channel"
    QCheck2.Gen.(triple (int_range 2 5) (int_range 0 4) (int_range 50 400))
    (fun (m, rs, cycles) ->
      let net = ring m ~rs in
      let engine = Engine.create ~mode:Shell.Plain net in
      ignore (Engine.run ~max_cycles:cycles engine);
      let report = Monitor.collect engine in
      List.for_all
        (fun c ->
          let channel = Option.get (Network.channel_of_label net c.Monitor.channel_label) in
          let src_node, _ = Network.channel_src net channel in
          let src_name = (Network.node_process net src_node).Process.name in
          let firings =
            (List.find (fun n -> n.Monitor.node_name = src_name) report.Monitor.nodes)
              .Monitor.firings
          in
          let in_flight_bound = (2 * c.Monitor.relay_stations) + 1 in
          c.Monitor.delivered <= firings && firings - c.Monitor.delivered <= in_flight_bound)
        report.Monitor.channels)

(* ------------------------------------------------------------------ *)
(* Denotational reference                                             *)
(* ------------------------------------------------------------------ *)

let test_denotational_ring () =
  (* The ideal semantics of a relay ring: every process fires every
     round; stream values follow the +1 chain. *)
  let net = ring 2 ~rs:0 in
  let reference = Wp_sim.Denotational.run ~max_rounds:10 net in
  checki "10 rounds" 10 reference.Wp_sim.Denotational.rounds;
  checkb "no halt" false reference.Wp_sim.Denotational.halted;
  let s = Wp_sim.Denotational.stream reference "p0.o -> p1.i" in
  checki "10 emissions" 10 (List.length s);
  (* p0 increments its input; round 0 consumes p1's reset 0 -> emits 1. *)
  checki "first emission" 1 (List.hd s)

let test_denotational_matches_golden_engine () =
  (* Same network, zero relay stations: engine and denotational semantics
     must produce identical streams. *)
  let net = diamond ~rs_x:0 ~rs_y:0 in
  let reference = Wp_sim.Denotational.run ~max_rounds:100 net in
  let engine = Engine.create ~record_traces:true ~mode:Shell.Plain net in
  ignore (Engine.run ~max_cycles:100 engine);
  let traces =
    List.map
      (fun t -> (t.Wp_sim.Waveform.wave_label, t.Wp_sim.Waveform.tokens))
      (Wp_sim.Waveform.capture engine)
  in
  checkb "engine = denotational" true
    (Wp_sim.Denotational.engine_matches reference engine traces);
  (* And exactly equal, not just a prefix, at equal horizons. *)
  List.iter
    (fun (label, trace) ->
      Alcotest.(check (list int)) label
        (Wp_sim.Denotational.stream reference label)
        (Trace.tau_filter trace))
    traces

let test_denotational_bounds_wp_runs () =
  (* Any wire-pipelined run (either discipline) is a prefix of the
     reference. *)
  let reference = Wp_sim.Denotational.run ~max_rounds:200 (diamond ~rs_x:0 ~rs_y:0) in
  List.iter
    (fun (rs_x, rs_y, mode) ->
      let net = diamond ~rs_x ~rs_y in
      let engine = Engine.create ~record_traces:true ~mode net in
      ignore (Engine.run ~max_cycles:200 engine);
      let traces =
        List.map
          (fun t -> (t.Wp_sim.Waveform.wave_label, t.Wp_sim.Waveform.tokens))
          (Wp_sim.Waveform.capture engine)
      in
      checkb
        (Printf.sprintf "rs=(%d,%d) prefix of reference" rs_x rs_y)
        true
        (Wp_sim.Denotational.engine_matches reference engine traces))
    [ (1, 0, Shell.Plain); (2, 1, Shell.Plain); (1, 0, Shell.Oracle); (3, 2, Shell.Oracle) ]

let test_denotational_halts_like_engine () =
  let build () =
    let net = Network.create () in
    let s = Network.add net (halting_source 25) in
    let k = Network.add net (Process.sink ~name:"snk" ~input_name:"i") in
    ignore (Network.connect net ~src:(s, "o") ~dst:(k, "i") ());
    net
  in
  let reference = Wp_sim.Denotational.run (build ()) in
  checkb "halted" true reference.Wp_sim.Denotational.halted;
  let engine = Engine.create ~mode:Shell.Plain (build ()) in
  match Engine.run engine with
  | Engine.Halted cycles -> checki "same halt round" cycles reference.Wp_sim.Denotational.rounds
  | Engine.Deadlocked _ | Engine.Exhausted _ | Engine.Cancelled _ ->
    Alcotest.fail "expected halt"

(* ------------------------------------------------------------------ *)
(* Waveform                                                           *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_waveform_ascii () =
  let net = ring 2 ~rs:1 in
  let engine = Engine.create ~record_traces:true ~mode:Shell.Plain net in
  ignore (Engine.run ~max_cycles:12 engine);
  let traces = Wp_sim.Waveform.capture engine in
  checki "one trace per channel" 2 (List.length traces);
  let art = Wp_sim.Waveform.ascii ~cycles:12 traces in
  checkb "mentions channel label" true (contains art "p0.o -> p1.i");
  checkb "shows tau" true (contains art ".");
  (* A stalled ring must show voids interleaved with values. *)
  checkb "shows values" true (contains art "|")

let test_waveform_ascii_window () =
  let net = ring 2 ~rs:0 in
  let engine = Engine.create ~record_traces:true ~mode:Shell.Plain net in
  ignore (Engine.run ~max_cycles:30 engine);
  let traces = Wp_sim.Waveform.capture engine in
  let narrow = Wp_sim.Waveform.ascii ~from_cycle:10 ~cycles:5 traces in
  let lines = String.split_on_char '\n' narrow in
  (* 2 channels -> 2 non-empty rows, each with 5 cells. *)
  let rows = List.filter (fun l -> String.length l > 0) lines in
  checki "two rows" 2 (List.length rows);
  List.iter
    (fun row ->
      let bars = String.fold_left (fun acc c -> if c = '|' then acc + 1 else acc) 0 row in
      checki "five cells" 6 bars)
    rows

let test_waveform_vcd () =
  let net = ring 2 ~rs:1 in
  let engine = Engine.create ~record_traces:true ~mode:Shell.Plain net in
  ignore (Engine.run ~max_cycles:10 engine);
  let vcd = Wp_sim.Waveform.vcd (Wp_sim.Waveform.capture engine) in
  checkb "header" true (contains vcd "$timescale 1ns $end");
  checkb "var declarations" true (contains vcd "$var wire 32");
  checkb "valid bits" true (contains vcd "$var wire 1");
  checkb "enddefinitions" true (contains vcd "$enddefinitions");
  checkb "time zero" true (contains vcd "#0");
  checkb "binary values" true (contains vcd "b0");
  checkb "invalid marker" true (contains vcd "bx ")

let test_waveform_requires_traces () =
  (* Without record_traces the capture is empty but well-formed. *)
  let net = ring 2 ~rs:0 in
  let engine = Engine.create ~mode:Shell.Plain net in
  ignore (Engine.run ~max_cycles:5 engine);
  let traces = Wp_sim.Waveform.capture engine in
  checkb "empty traces" true (List.for_all (fun t -> t.Wp_sim.Waveform.tokens = []) traces)

let () =
  Alcotest.run "wp_sim"
    [
      ( "network",
        [
          Alcotest.test_case "build" `Quick test_network_build;
          Alcotest.test_case "double connection" `Quick test_network_rejects_double_connection;
          Alcotest.test_case "unknown port" `Quick test_network_rejects_unknown_port;
          Alcotest.test_case "unconnected" `Quick test_network_validate_unconnected;
          Alcotest.test_case "duplicate name" `Quick test_network_duplicate_name;
          Alcotest.test_case "to_digraph" `Quick test_network_to_digraph;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "golden ring" `Quick test_golden_ring_full_throughput;
          Alcotest.test_case "m/(m+n) law" `Quick test_ring_throughput_law;
          Alcotest.test_case "matches cycle ratio" `Quick test_ring_law_matches_cycle_ratio;
          Alcotest.test_case "chain unaffected" `Quick test_chain_throughput_unaffected_by_rs;
        ] );
      ( "control",
        [
          Alcotest.test_case "halts" `Quick test_engine_halts;
          Alcotest.test_case "exhausts" `Quick test_engine_exhausts;
          Alcotest.test_case "deadlock detected" `Quick test_engine_deadlock_detected;
          Alcotest.test_case "self loop live" `Quick test_engine_self_loop_live_with_capacity_2;
          Alcotest.test_case "self loop through the replay" `Quick test_self_loop_replay;
        ] );
      ( "conservation",
        [ QCheck_alcotest.to_alcotest prop_token_conservation ] );
      ( "denotational",
        [
          Alcotest.test_case "ring" `Quick test_denotational_ring;
          Alcotest.test_case "matches golden engine" `Quick test_denotational_matches_golden_engine;
          Alcotest.test_case "bounds wp runs" `Quick test_denotational_bounds_wp_runs;
          Alcotest.test_case "halts like engine" `Quick test_denotational_halts_like_engine;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "ascii" `Quick test_waveform_ascii;
          Alcotest.test_case "ascii window" `Quick test_waveform_ascii_window;
          Alcotest.test_case "vcd" `Quick test_waveform_vcd;
          Alcotest.test_case "requires traces" `Quick test_waveform_requires_traces;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "wp1 equivalent" `Quick test_equivalence_wp1;
          Alcotest.test_case "wp2 equivalent" `Quick test_equivalence_wp2;
          Alcotest.test_case "wp2 beats wp1" `Quick test_wp2_beats_wp1_on_lazy_channel;
          Alcotest.test_case "sparse wp2 equivalent" `Quick test_wp2_sparse_equivalent;
          Alcotest.test_case "monitor utilization" `Quick test_monitor_utilization;
          Alcotest.test_case "initial token" `Quick test_initial_token_is_reset_value;
        ] );
    ]
