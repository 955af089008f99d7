(* Tests for Wp_sim.Fast: the compiled kernel must be byte-identical to
   the reference engine on outcomes, cycle counts, delivered tokens,
   shell statistics and recorded traces — including the awkward corners
   (stall storms under capacity-1 FIFOs, zero-RS channels, unbounded
   FIFO growth, oracle drop accounting, capacity deadlocks) — and its
   MCR machinery must reproduce the m/(m+n) law exactly. *)

module Token = Wp_lis.Token
module Process = Wp_lis.Process
module Shell = Wp_lis.Shell
module Network = Wp_sim.Network
module Engine = Wp_sim.Engine
module Fast = Wp_sim.Fast
module Static = Wp_sim.Static
module Batch = Wp_sim.Batch
module Fault = Wp_sim.Fault
module Sim = Wp_sim.Sim
module Monitor = Wp_sim.Monitor

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Builders                                                           *)
(* ------------------------------------------------------------------ *)

let relay name = Process.unary ~name ~input_name:"i" ~output_name:"o" ~reset:0 succ

let get inputs i =
  match inputs.(i) with
  | Some v -> v
  | None -> invalid_arg "test_fast: reading an input that was not required"

(* A ring of [m] unary relays; [rs] relay stations on the closing edge. *)
let ring m ~rs =
  let net = Network.create () in
  let nodes = Array.init m (fun i -> Network.add net (relay (Printf.sprintf "p%d" i))) in
  for i = 0 to m - 1 do
    ignore
      (Network.connect net
         ~src:(nodes.(i), "o")
         ~dst:(nodes.((i + 1) mod m), "i")
         ~relay_stations:(if i = m - 1 then rs else 0)
         ())
  done;
  net

(* A source that halts after [limit] firings, feeding a sink over [rs]. *)
let halting_chain ~limit ~rs =
  let src =
    {
      Process.name = "src";
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
  in
  let net = Network.create () in
  let s = Network.add net src in
  let k = Network.add net (Process.sink ~name:"snk" ~input_name:"i") in
  ignore (Network.connect net ~src:(s, "o") ~dst:(k, "i") ~relay_stations:rs ());
  net

(* Two sources into a two-input adder, with a relay imbalance between
   the arms: under unbounded FIFOs the short arm buffers ~[skew] tokens,
   exercising ring-buffer growth past the initial allocation. *)
let skewed_join ~skew =
  let adder =
    {
      Process.name = "add";
      input_names = [| "a"; "b" |];
      output_names = [| "o" |];
      reset_outputs = [| 0 |];
      make =
        (fun () ->
          {
            Process.required = Process.all_required 2;
            fire = (fun inputs -> [| get inputs 0 + get inputs 1 |]);
            halted = (fun () -> false);
          });
    }
  in
  let net = Network.create () in
  let s1 = Network.add net (Process.pure_source ~name:"s1" ~output_name:"o" ~reset:0 Fun.id) in
  let s2 = Network.add net (Process.pure_source ~name:"s2" ~output_name:"o" ~reset:0 Fun.id) in
  let a = Network.add net adder in
  let k = Network.add net (Process.sink ~name:"snk" ~input_name:"i") in
  ignore (Network.connect net ~src:(s1, "o") ~dst:(a, "a") ~relay_stations:skew ());
  ignore (Network.connect net ~src:(s2, "o") ~dst:(a, "b") ~relay_stations:0 ());
  ignore (Network.connect net ~src:(a, "o") ~dst:(k, "i") ());
  net

(* An oracle process that needs port "b" only on even firings, so half
   the arriving "b" tokens must be discarded under the drop rule. *)
let alternating_join () =
  let alt =
    {
      Process.name = "alt";
      input_names = [| "a"; "b" |];
      output_names = [| "o" |];
      reset_outputs = [| 0 |];
      make =
        (fun () ->
          let k = ref 0 in
          let mask = [| true; false |] in
          {
            Process.required =
              (fun () ->
                mask.(1) <- !k mod 2 = 0;
                mask);
            fire =
              (fun inputs ->
                let a = get inputs 0 in
                let v = match inputs.(1) with Some b -> a + b | None -> a in
                incr k;
                [| v |]);
            halted = (fun () -> false);
          });
    }
  in
  let net = Network.create () in
  let s1 = Network.add net (Process.pure_source ~name:"s1" ~output_name:"o" ~reset:0 Fun.id) in
  let s2 = Network.add net (Process.pure_source ~name:"s2" ~output_name:"o" ~reset:0 Fun.id) in
  let a = Network.add net alt in
  let k = Network.add net (Process.sink ~name:"snk" ~input_name:"i") in
  ignore (Network.connect net ~src:(s1, "o") ~dst:(a, "a") ~relay_stations:1 ());
  ignore (Network.connect net ~src:(s2, "o") ~dst:(a, "b") ~relay_stations:0 ());
  ignore (Network.connect net ~src:(a, "o") ~dst:(k, "i") ());
  (net, a)

(* ------------------------------------------------------------------ *)
(* The differential oracle: run both kernels, demand byte-identity     *)
(* ------------------------------------------------------------------ *)

let differential ?(capacity = 2) ?(max_cycles = 2_000) ~mode net =
  let e = Engine.create ~capacity ~record_traces:true ~mode net in
  let f = Fast.create ~capacity ~record_traces:true ~mode net in
  let oe = Engine.run ~max_cycles e in
  let og = Fast.run ~max_cycles f in
  checkb "same outcome" true (oe = og);
  checki "same cycle count" (Engine.cycles e) (Fast.cycles f);
  List.iter
    (fun c ->
      checki
        (Printf.sprintf "delivered on %s" (Network.channel_label net c))
        (Engine.delivered e c) (Fast.delivered f c))
    (Network.channels net);
  List.iter
    (fun n ->
      let proc = Network.node_process net n in
      let se = Shell.stats (Engine.shell e n) in
      let sf = Fast.node_stats f n in
      checkb (Printf.sprintf "stats of %s" proc.Process.name) true (se = sf);
      Array.iteri
        (fun p _ ->
          checkb
            (Printf.sprintf "trace of %s.%s" proc.Process.name proc.Process.output_names.(p))
            true
            (Shell.output_trace (Engine.shell e n) p = Fast.output_trace f n p))
        proc.Process.output_names)
    (Network.nodes net);
  (oe, f)

(* ------------------------------------------------------------------ *)
(* Differential sweeps                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_sweep () =
  (* Every ring size x RS count x capacity x mode: byte-identical,
     including the stall storms that capacity-1 FIFOs cause. *)
  List.iter
    (fun mode ->
      List.iter
        (fun capacity ->
          for m = 1 to 5 do
            for rs = 0 to 4 do
              ignore (differential ~capacity ~max_cycles:400 ~mode (ring m ~rs))
            done
          done)
        [ 1; 2; 3; 0 ])
    [ Shell.Plain; Shell.Oracle ]

let test_capacity_one_stall_storm () =
  (* Capacity-1 FIFOs on an RS-heavy ring: most cycles stall.  The
     kernels must agree on every stall and its recorded reason. *)
  let _, f = differential ~capacity:1 ~max_cycles:600 ~mode:Shell.Plain (ring 4 ~rs:3) in
  let s = Fast.node_stats f 0 in
  checkb "stalls actually happened" true (s.Shell.stalls > 100);
  checkb "output-blocked stalls observed" true (s.Shell.output_blocked > 0)

let test_capacity_one_deadlock () =
  (* A zero-RS ring under capacity-1 FIFOs deadlocks at reset: every
     consumer FIFO is full, so every producer is stopped forever.  Both
     kernels must detect it after the identical quiescence window. *)
  let net = ring 2 ~rs:0 in
  let outcome, f = differential ~capacity:1 ~max_cycles:10_000 ~mode:Shell.Plain net in
  (match outcome with
  | Engine.Deadlocked _ -> ()
  | Engine.Halted c -> Alcotest.failf "unexpected halt at %d" c
  | Engine.Exhausted c -> Alcotest.failf "unexpected exhaustion at %d" c
  | Engine.Cancelled c -> Alcotest.failf "unexpected cancellation at %d" c);
  checki "no token ever moved" 0 (Fast.node_stats f 0).Shell.firings

let test_zero_rs_chain () =
  (* Zero relay stations: the wire degenerates to a direct register;
     a halting run completes on the same cycle with full delivery. *)
  let net = halting_chain ~limit:50 ~rs:0 in
  let outcome, f = differential ~max_cycles:10_000 ~mode:Shell.Plain net in
  (match outcome with
  | Engine.Halted _ -> ()
  | _ -> Alcotest.fail "expected a halt");
  checki "sink consumed every token" 50 (Fast.node_stats f 0).Shell.firings

let test_unbounded_growth () =
  (* A 12-stage relay imbalance under unbounded FIFOs forces the short
     arm's ring buffer past its initial allocation. *)
  ignore (differential ~capacity:0 ~max_cycles:500 ~mode:Shell.Plain (skewed_join ~skew:12))

let test_oracle_drop_accounting () =
  let net, a = alternating_join () in
  let _, f = differential ~max_cycles:1_000 ~mode:Shell.Oracle net in
  let s = Fast.node_stats f a in
  (* Port "b" is skipped on odd firings; each skip discards one token
     (buffered or on arrival), so dropped("b") tracks half the firings. *)
  checkb "tokens were dropped" true (s.Shell.dropped.(1) > 100);
  checki "port a never drops" 0 s.Shell.dropped.(0);
  checkb "dropped tracks the skip rate" true
    (abs (s.Shell.dropped.(1) - (s.Shell.firings / 2)) <= 2)

(* ------------------------------------------------------------------ *)
(* Halting on every kernel                                            *)
(* ------------------------------------------------------------------ *)

let test_halting_all_kernels () =
  (* A source halted at reset ([limit = 0]) and one that halts after 50
     firings, on Reference, Fast, Static and a 1-lane Batch.  The
     compiled kernels keep a sticky halt flag that is seeded from the
     fresh instances and then probed right after each firing; the reset
     case pins the seeding. *)
  List.iter
    (fun (limit, rs) ->
      let case = Printf.sprintf "limit %d rs %d" limit rs in
      let net = halting_chain ~limit ~rs in
      let max_cycles = 10_000 in
      let e = Engine.create ~capacity:2 ~mode:Shell.Plain net in
      let f = Fast.create ~capacity:2 ~mode:Shell.Plain net in
      let s = Static.create ~capacity:2 ~mode:Shell.Plain net in
      let b =
        Batch.create
          [|
            {
              Batch.net;
              mode = Shell.Plain;
              capacity = 2;
              fault = Fault.none;
              max_cycles;
              cancel = Wp_util.Cancel.never;
            };
          |]
      in
      let outcomes =
        [
          Engine.run ~max_cycles e;
          Fast.run ~max_cycles f;
          Static.run ~max_cycles s;
          (Batch.run b).(0);
        ]
      in
      let expected = Engine.Halted (if limit = 0 then 0 else Engine.cycles e) in
      List.iter (fun o -> checkb (case ^ ": halted, same cycle") true (o = expected)) outcomes;
      List.iter
        (fun c -> checki (case ^ ": cycle count") (Engine.cycles e) c)
        [ Fast.cycles f; Static.cycles s; Batch.lane_cycles b ~lane:0 ];
      List.iter
        (fun n ->
          let se = Shell.stats (Engine.shell e n) in
          checkb (case ^ ": Fast stats") true (se = Fast.node_stats f n);
          checkb (case ^ ": Static stats") true (se = Static.node_stats s n);
          checkb (case ^ ": Batch stats") true (se = Batch.node_stats b ~lane:0 n))
        (Network.nodes net);
      checki (case ^ ": source firings") limit (Shell.stats (Engine.shell e 0)).Shell.firings)
    [ (0, 0); (0, 2); (50, 0); (50, 2) ]

(* ------------------------------------------------------------------ *)
(* Facade and monitor integration                                     *)
(* ------------------------------------------------------------------ *)

let test_sim_facade_reports_match () =
  let net = ring 3 ~rs:2 in
  let run kind =
    let sim = Sim.create ~engine:kind ~mode:Shell.Plain net in
    (match Sim.run ~max_cycles:500 sim with
    | Engine.Exhausted _ -> ()
    | _ -> Alcotest.fail "expected exhaustion");
    Monitor.collect_sim sim
  in
  let r_ref = run Sim.Reference and r_fast = run Sim.Fast in
  checkb "identical monitor reports" true (r_ref = r_fast);
  checkb "m/(m+n) rate" true
    (abs_float (Monitor.node_throughput r_fast "p0" -. 0.6) < 0.02)

let test_kind_strings () =
  checkb "fast roundtrip" true (Sim.kind_of_string (Sim.kind_to_string Sim.Fast) = Some Sim.Fast);
  checkb "ref roundtrip" true
    (Sim.kind_of_string (Sim.kind_to_string Sim.Reference) = Some Sim.Reference);
  checkb "reference alias" true (Sim.kind_of_string "reference" = Some Sim.Reference);
  checkb "unknown rejected" true (Sim.kind_of_string "warp" = None)

(* ------------------------------------------------------------------ *)
(* MCR-guided bounds                                                  *)
(* ------------------------------------------------------------------ *)

let test_throughput_bound_law () =
  (* The m/(m+n) law, computed exactly by Howard on the compiled graph. *)
  List.iter
    (fun (m, rs) ->
      let expected = float_of_int m /. float_of_int (m + rs) in
      let actual = Static.throughput_bound (ring m ~rs) in
      if abs_float (actual -. expected) > 1e-9 then
        Alcotest.failf "ring %d rs %d: bound %.6f, expected %.6f" m rs actual expected)
    [ (1, 0); (1, 3); (2, 1); (3, 2); (4, 0); (5, 4) ];
  (* Acyclic networks are source-limited at 1.0. *)
  checkb "acyclic bound" true (Static.throughput_bound (halting_chain ~limit:5 ~rs:7) = 1.0)

let test_cycle_bound_is_sufficient () =
  (* A run bounded by [cycle_bound ~work_cycles] must complete — the
     margin covers fill, drain and FIFO effects.  Checked on halting
     chains and on a halting ring whose throughput is below 1. *)
  List.iter
    (fun rs ->
      let net = halting_chain ~limit:200 ~rs in
      let bound = Static.cycle_bound ~work_cycles:200 net in
      let f = Fast.create ~mode:Shell.Plain net in
      match Fast.run ~max_cycles:bound f with
      | Engine.Halted _ -> ()
      | Engine.Deadlocked c -> Alcotest.failf "rs %d: deadlock at %d" rs c
      | Engine.Exhausted c -> Alcotest.failf "rs %d: bound %d too tight (at %d)" rs bound c
      | Engine.Cancelled c -> Alcotest.failf "rs %d: unexpected cancellation at %d" rs c)
    [ 0; 1; 5; 11 ];
  checkb "bound grows with work" true
    (Static.cycle_bound ~work_cycles:2_000 (ring 3 ~rs:2)
    > Static.cycle_bound ~work_cycles:1_000 (ring 3 ~rs:2));
  checkb "bound rejects negative work" true
    (match Static.cycle_bound ~work_cycles:(-1) (ring 2 ~rs:0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wp_fast"
    [
      ( "differential",
        [
          Alcotest.test_case "ring sweep (m x rs x capacity x mode)" `Quick test_ring_sweep;
          Alcotest.test_case "capacity-1 stall storm" `Quick test_capacity_one_stall_storm;
          Alcotest.test_case "capacity-1 deadlock" `Quick test_capacity_one_deadlock;
          Alcotest.test_case "zero-RS chain" `Quick test_zero_rs_chain;
          Alcotest.test_case "unbounded FIFO growth" `Quick test_unbounded_growth;
          Alcotest.test_case "oracle drop accounting" `Quick test_oracle_drop_accounting;
          Alcotest.test_case "halting on all four kernels" `Quick test_halting_all_kernels;
        ] );
      ( "facade",
        [
          Alcotest.test_case "monitor reports match" `Quick test_sim_facade_reports_match;
          Alcotest.test_case "kind strings" `Quick test_kind_strings;
        ] );
      ( "mcr",
        [
          Alcotest.test_case "m/(m+n) law" `Quick test_throughput_bound_law;
          Alcotest.test_case "cycle bound sufficient" `Quick test_cycle_bound_is_sufficient;
        ] );
    ]
