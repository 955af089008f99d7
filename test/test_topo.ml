(* Generated-topology test battery.

   Three layers:

   - QCheck properties of the generator itself: strong connectivity,
     token-carrying cycles (deadlock freedom at the default capacity),
     seed-stable digests/builds, grammar round trips,
     Schedule.check acceptance of the balanced word on every instance,
     and the recorded firing table against the reference Engine;
   - a >= 30-topology differential battery running Reference, Fast and
     the Static table replay on every instance (byte-identical outcomes, cycles,
     delivered counts, stats and traces) plus a routed Sim of every
     instance held against Fast — failures are shrunk with
     Wp_util.Shrink to a minimal spec and written to a .sexp repro with
     a replay command;
   - sweep-harness checks: the exact word-rate assertion every
     schedulable scenario runs, and the cross-engine agreement. *)

module Topology = Wp_topo.Topology
module Sweep = Wp_topo.Sweep
module Network = Wp_sim.Network
module Sim = Wp_sim.Sim
module Static = Wp_sim.Static
module Fast = Wp_sim.Fast
module Batch = Wp_sim.Batch
module Engine = Wp_sim.Engine
module Fault = Wp_sim.Fault
module Shell = Wp_lis.Shell
module Process = Wp_lis.Process
module Schedule = Wp_graph.Schedule
module Scc = Wp_graph.Scc
module Cycle_ratio = Wp_graph.Cycle_ratio
module Incr = Cycle_ratio.Incremental
module Run_spec = Wp_core.Run_spec
module Shrink = Wp_util.Shrink
module Prng = Wp_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Spec generator                                                      *)
(* ------------------------------------------------------------------ *)

let gen_shape =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map (fun n -> Topology.Ring n) (QCheck2.Gen.int_range 2 12);
      QCheck2.Gen.map2
        (fun r c -> Topology.Mesh (r, c))
        (QCheck2.Gen.int_range 1 4) (QCheck2.Gen.int_range 2 4);
      QCheck2.Gen.map2
        (fun r c -> Topology.Torus (r, c))
        (QCheck2.Gen.int_range 2 4) (QCheck2.Gen.int_range 2 3);
      QCheck2.Gen.map (fun n -> Topology.Rand n) (QCheck2.Gen.int_range 2 16);
    ]

let gen_spec =
  QCheck2.Gen.map
    (fun (shape, (seed, (max_rs, adapters))) ->
      { Topology.shape; seed; max_rs; adapters })
    (QCheck2.Gen.pair gen_shape
       (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 999)
          (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 3) QCheck2.Gen.bool)))

let prop_connected =
  QCheck2.Test.make ~count:150 ~name:"generated nets are strongly connected"
    ~print:Topology.to_string gen_spec (fun spec ->
      let net = Topology.build spec in
      let g, _ = Network.to_digraph net in
      List.length (Scc.components g) = 1)

let prop_cycles_tokened =
  QCheck2.Test.make ~count:150
    ~name:"every cycle carries >= 1 token (MCR > 0 at capacity 2)"
    ~print:Topology.to_string gen_spec (fun spec ->
      let net = Topology.build spec in
      (Topology.mcr net).Cycle_ratio.num > 0)

let prop_seed_stable =
  QCheck2.Test.make ~count:80
    ~name:"digest and build are seed-stable across runs"
    ~print:Topology.to_string gen_spec (fun spec ->
      let d1 = Topology.digest spec and d2 = Topology.digest spec in
      let n1 = Topology.build spec and n2 = Topology.build spec in
      d1 = d2
      && Batch.signature n1 = Batch.signature n2
      && List.for_all
           (fun c ->
             Network.relay_stations n1 c = Network.relay_stations n2 c)
           (Network.channels n1)
      &&
      let run net =
        let sim = Sim.create ~engine:Sim.Fast ~capacity:2 ~mode:Shell.Plain net in
        ignore (Sim.run ~max_cycles:64 sim);
        List.map (fun c -> Sim.delivered sim c) (Network.channels net)
      in
      run n1 = run n2)

let prop_grammar_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"grammar round trip"
    ~print:Topology.to_string gen_spec (fun spec ->
      Topology.of_string (Topology.to_string spec) = Ok spec)

let prop_schedule_accepted =
  QCheck2.Test.make ~count:80
    ~name:"Schedule.check accepts the balanced word of every instance"
    ~print:Topology.to_string gen_spec (fun spec ->
      let net = Topology.build spec in
      let sched = Static.schedule ~capacity:2 net in
      let g, tokens, time = Static.capacity_graph ~capacity:2 net in
      Schedule.check g ~tokens ~time sched = Ok ())

(* One reference-interpreter cycle as a table row: the nodes whose
   firing, input-starved and output-blocked counts grew, and the
   channels that delivered. *)
let engine_row e net =
  let nodes = Array.of_list (Network.nodes net) in
  let chans = Array.of_list (Network.channels net) in
  let snap () =
    ( Array.map (fun n -> Shell.stats (Engine.shell e n)) nodes,
      Array.map (Engine.delivered e) chans )
  in
  let s0, d0 = snap () in
  Engine.step e;
  let s1, d1 = snap () in
  let grew f =
    Array.of_list
      (List.filter (fun i -> f s1.(i) > f s0.(i)) (List.init (Array.length nodes) Fun.id))
  in
  ( grew (fun s -> s.Shell.firings),
    grew (fun s -> s.Shell.input_starved),
    grew (fun s -> s.Shell.output_blocked),
    Array.of_list
      (List.filter (fun i -> d1.(i) > d0.(i)) (List.init (Array.length chans) Fun.id)) )

let prop_table_replays_engine =
  QCheck2.Test.make ~count:50
    ~name:"recorded table is periodic and replays Engine"
    ~print:Topology.to_string gen_spec (fun spec ->
      let net = Topology.build spec in
      List.for_all
        (fun capacity ->
          let transient, period, table = Static.tables ~capacity net in
          let e = Engine.create ~capacity ~mode:Shell.Plain net in
          transient >= 0 && period >= 1
          && Array.length table = transient + period
          && List.for_all
               (fun cycle ->
                 let tc =
                   table.(if cycle < transient then cycle
                          else transient + ((cycle - transient) mod period))
                 in
                 engine_row e net
                 = (tc.Static.tc_fired, tc.tc_starved, tc.tc_blocked, tc.tc_deliver))
               (List.init (transient + (2 * period)) Fun.id))
        [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Grammar corner cases                                                *)
(* ------------------------------------------------------------------ *)

let test_grammar () =
  let ok s exp =
    match Topology.of_string s with
    | Ok t -> Alcotest.(check string) s exp (Topology.to_string t)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "ring:16" "ring:16";
  ok "mesh:8x8" "mesh:8x8";
  ok "rand:64:seed0" "rand:64";
  ok "torus:3x3:seed7:rs4:adapt" "torus:3x3:seed7:rs4:adapt";
  ok "rand:20:adapt:rs0" "rand:20:rs0:adapt";
  ok "ring:2" "ring:2";
  ok "mesh:1x2" "mesh:1x2";
  ok "torus:2x2" "torus:2x2";
  ok "rand:100000" "rand:100000";
  ok "mesh:2x50000" "mesh:2x50000";
  List.iter
    (fun s ->
      match Topology.of_string s with
      | Ok _ -> Alcotest.failf "%s unexpectedly parsed" s
      | Error _ -> ())
    [ "ring"; "ring:x"; "mesh:4"; "hex:4"; "ring:4:spin3"; "" ];
  (* Shapes [build] refuses fail to parse, with [build]'s message. *)
  List.iter
    (fun (s, shape) ->
      match Topology.of_string s with
      | Ok _ -> Alcotest.failf "%s unexpectedly parsed" s
      | Error e ->
        Alcotest.check_raises s (Invalid_argument ("Topology.build: " ^ e)) (fun () ->
            ignore (Topology.build (Topology.v shape))))
    [
      ("ring:1", Topology.Ring 1);
      ("rand:1", Topology.Rand 1);
      ("mesh:1x1", Topology.Mesh (1, 1));
      ("mesh:0x5", Topology.Mesh (0, 5));
      ("torus:1x5", Topology.Torus (1, 5));
      ("torus:2x1", Topology.Torus (2, 1));
      ("rand:200000", Topology.Rand 200_000);
      ("ring:100001", Topology.Ring 100_001);
      ("mesh:2x50001", Topology.Mesh (2, 50_001));
      ("torus:4611686018427387903x4", Topology.Torus (max_int, 4));
    ]

(* ------------------------------------------------------------------ *)
(* Space-time adapter round trip                                       *)
(* ------------------------------------------------------------------ *)

let test_adapter_roundtrip () =
  let rec find seed =
    if seed > 50 then Alcotest.fail "no adapter found in 50 seeds"
    else
      let spec = Topology.v ~seed ~adapters:true (Topology.Ring 8) in
      let net = Topology.build spec in
      match Network.node_of_name net "x0d" with
      | Some _ -> net
      | None -> find (seed + 1)
  in
  let net = find 0 in
  let dn = Option.get (Network.node_of_name net "x0d") in
  let up = Option.get (Network.node_of_name net "x0u") in
  let pd = Network.node_process net dn in
  let pu = Network.node_process net up in
  let r = Array.length pd.Process.output_names in
  checki "lane counts agree" r (Array.length pu.Process.input_names);
  let slice = (pd.Process.make ()).Process.fire in
  let pack = (pu.Process.make ()).Process.fire in
  let rng = Prng.create ~seed:42 in
  for _ = 1 to 200 do
    let v = Prng.int rng (1 lsl 48) in
    let lanes = slice [| Some v |] in
    let packed = pack (Array.map (fun w -> Some w) lanes) in
    checki "pack (slice v) = v" v packed.(0)
  done

let test_build_10k () =
  let net = Topology.build (Topology.v (Topology.Rand 10_000)) in
  checkb "10k blocks" true (Network.node_count net >= 10_000);
  checkb "connected" true
    (List.length (Scc.components (fst (Network.to_digraph net))) = 1)

(* 20 000 flow-like moves on rand:1000's capacity graph (channel c owns
   edge 2c, time 1 + rs, and edge 2c + 1, cost capacity + 2 rs - 1),
   replayed through one incremental solver: each move re-derives the
   relay stations of one to four channels, and every 200th re-derives a
   quarter of them.  Every 500 steps the warm result must equal a cold
   solve of the same weights, with an elementary critical cycle at that
   ratio. *)
let test_incremental_long_run () =
  let net = Topology.build (Topology.v (Topology.Rand 1000)) in
  let g, tokens, time0 = Static.capacity_graph ~capacity:2 net in
  let m = Wp_graph.Digraph.edge_count g in
  let cost = Array.init m tokens and time = Array.init m time0 in
  let cost_f e = cost.(e) and time_f e = time.(e) in
  let inc = Incr.create g ~cost:cost_f ~time:time_f in
  let channels = m / 2 in
  let prng = Prng.create ~seed:7 in
  let reroute c =
    let rs = Prng.int prng 4 in
    time.(2 * c) <- 1 + rs;
    cost.((2 * c) + 1) <- 2 + (2 * rs) - 1;
    Incr.set_time inc (2 * c) time.(2 * c);
    Incr.set_cost inc ((2 * c) + 1) cost.((2 * c) + 1)
  in
  for step = 1 to 20_000 do
    let moved = if step mod 200 = 0 then channels / 4 else 1 + Prng.int prng 4 in
    for _ = 1 to moved do
      reroute (Prng.int prng channels)
    done;
    let warm = Incr.solve inc in
    if step mod 500 = 0 then
      match (warm, Cycle_ratio.minimum g ~cost:cost_f ~time:time_f) with
      | Some (r1, cycle), Some (r2, _) ->
        if Cycle_ratio.ratio_compare r1 r2 <> 0 then
          Alcotest.failf "step %d: warm %s, cold %s" step
            (Format.asprintf "%a" Cycle_ratio.ratio_pp r1)
            (Format.asprintf "%a" Cycle_ratio.ratio_pp r2);
        let own = Cycle_ratio.cycle_ratio g ~cost:cost_f ~time:time_f cycle in
        checkb (Printf.sprintf "step %d: witness" step) true
          (Wp_graph.Cycles.is_elementary_cycle g cycle && Cycle_ratio.ratio_compare own r1 = 0)
      | _ -> Alcotest.failf "step %d: expected a cycle on both sides" step
  done

(* ------------------------------------------------------------------ *)
(* Differential battery over >= 30 generated topologies               *)
(* ------------------------------------------------------------------ *)

let battery_cycles = 160

let battery_specs : Topology.spec list =
  let open Topology in
  List.concat
    [
      List.map
        (fun (n, seed, max_rs) -> { shape = Ring n; seed; max_rs; adapters = false })
        [ (2, 0, 0); (3, 0, 1); (4, 1, 2); (6, 2, 3); (8, 3, 1) ];
      List.map
        (fun (n, seed) -> { shape = Ring n; seed; max_rs = 2; adapters = true })
        [ (4, 0); (6, 1); (8, 5) ];
      List.map
        (fun (r, c, seed, max_rs) ->
          { shape = Mesh (r, c); seed; max_rs; adapters = false })
        [ (1, 2, 0, 0); (2, 2, 0, 1); (2, 3, 1, 2); (3, 3, 2, 2); (1, 6, 3, 3) ];
      List.map
        (fun (r, c, seed) ->
          { shape = Mesh (r, c); seed; max_rs = 2; adapters = true })
        [ (2, 2, 4); (2, 3, 5); (3, 3, 6) ];
      List.map
        (fun (r, c, seed, max_rs) ->
          { shape = Torus (r, c); seed; max_rs; adapters = false })
        [ (2, 2, 0, 1); (2, 3, 1, 2); (3, 3, 2, 0) ];
      List.map
        (fun (r, c, seed) ->
          { shape = Torus (r, c); seed; max_rs = 1; adapters = true })
        [ (2, 2, 7); (3, 3, 8) ];
      List.map
        (fun (n, seed, max_rs) -> { shape = Rand n; seed; max_rs; adapters = false })
        [ (6, 0, 1); (10, 1, 2); (14, 2, 0); (18, 3, 3); (10, 4, 2); (12, 5, 1) ];
      List.map
        (fun (n, seed) -> { shape = Rand n; seed; max_rs = 2; adapters = true })
        [ (8, 0); (12, 3); (16, 6); (20, 9) ];
    ]

(* One kernel's run of a net, as its observables. *)
type observed = {
  o_outcome : Engine.outcome;
  o_cycles : int;
  o_delivered : Network.channel -> int;
  o_stats : Network.node -> Shell.stats;
  o_trace : Network.node -> int -> int Wp_lis.Token.t list;
}

(* A [Sim] of [engine]; one of kind [Fast] is routed, so it replays
   where the replay admits the net. *)
let run_engine ?(capacity = 2) engine net =
  let sim =
    Sim.create ~engine ~capacity ~record_traces:true ~mode:Shell.Plain net
  in
  let o_outcome = Sim.run ~max_cycles:battery_cycles sim in
  { o_outcome; o_cycles = Sim.cycles sim; o_delivered = Sim.delivered sim;
    o_stats = Sim.node_stats sim; o_trace = Sim.output_trace sim }

(* The handshake itself, which a routed [Sim] would not run here. *)
let run_handshake ~capacity net =
  let f = Fast.create ~capacity ~record_traces:true ~mode:Shell.Plain net in
  let o_outcome = Fast.run ~max_cycles:battery_cycles f in
  { o_outcome; o_cycles = Fast.cycles f; o_delivered = Fast.delivered f;
    o_stats = Fast.node_stats f; o_trace = Fast.output_trace f }

(* The table replay, solo, on the same net. *)
let run_replay ~capacity net =
  let st = Static.create ~capacity ~record_traces:true ~mode:Shell.Plain net in
  let o_outcome = Static.run ~max_cycles:battery_cycles st in
  { o_outcome; o_cycles = Static.cycles st; o_delivered = Static.delivered st;
    o_stats = Static.node_stats st; o_trace = Static.output_trace st }

(* Each spec also runs at capacity 1 or 3, by its seed, so the kernels
   are compared under tighter and looser backpressure too, and the
   replay at odd ring bounds [C + 2k + 2]. *)
let battery_capacities (spec : Topology.spec) = [ 2; 1 + (2 * (spec.seed mod 2)) ]

(* The first observable on which [other] differs from [base]: outcome,
   cycles, per-channel delivered counts, per-node stats, then full
   output traces. *)
let mismatch net ~base who other =
  let complain fmt = Printf.ksprintf Option.some fmt in
  if other.o_outcome <> base.o_outcome then complain "%s: outcome differs" who
  else if other.o_cycles <> base.o_cycles then
    complain "%s: cycles %d vs %d" who other.o_cycles base.o_cycles
  else
    let bad = ref None in
    List.iter
      (fun c ->
        if !bad = None && other.o_delivered c <> base.o_delivered c then
          bad := complain "%s: delivered(%d) differs" who c)
      (Network.channels net);
    List.iter
      (fun n ->
        if !bad = None && other.o_stats n <> base.o_stats n then
          bad := complain "%s: stats(%d) differs" who n;
        if !bad = None then
          Array.iteri
            (fun p _ ->
              if !bad = None && other.o_trace n p <> base.o_trace n p then
                bad := complain "%s: trace(%d.%d) differs" who n p)
            (Network.node_process net n).Process.output_names)
      (Network.nodes net);
    !bad

(* First engine disagreement of one spec at one capacity, or None: the
   Fast handshake against the reference interpreter and against the
   table replay. *)
let diff_engines ~capacity spec =
  let net = Topology.build spec in
  let base = run_handshake ~capacity net in
  let found =
    match mismatch net ~base "ref" (run_engine ~capacity Sim.Reference net) with
    | Some m -> Some m
    | None -> mismatch net ~base "static" (run_replay ~capacity net)
  in
  Option.map (Printf.sprintf "capacity %d, %s" capacity) found

let fail_shrunk ~capacity spec msg =
  let still_fails s = diff_engines ~capacity s <> None in
  let minimal =
    Shrink.fixpoint ~candidates:Topology.shrink_candidates ~still_fails spec
  in
  let sc =
    {
      Sweep.topo = minimal;
      spec =
        Run_spec.v ~engine:Sim.Fast ~capacity ~max_cycles:battery_cycles ();
    }
  in
  let path = Sweep.write_repro sc ~reason:msg in
  Alcotest.failf
    "engine disagreement on %s (%s); minimal repro %s written to %s; replay: %s"
    (Topology.to_string spec) msg
    (Topology.to_string minimal)
    path (Sweep.replay_command sc)

let test_differential_battery () =
  checkb "battery has >= 30 topologies" true (List.length battery_specs >= 30);
  List.iter
    (fun spec ->
      List.iter
        (fun capacity ->
          match diff_engines ~capacity spec with
          | None -> ()
          | Some msg -> fail_shrunk ~capacity spec msg)
        (battery_capacities spec))
    battery_specs

(* Every battery topology as a routed [Sim] (what a Batch lane is), one
   after another: each byte-identical to its solo Fast handshake run. *)
let test_battery_batch_matches_fast () =
  List.iter
    (fun spec ->
      let net = Topology.build spec in
      let base = run_handshake ~capacity:2 net in
      match mismatch net ~base "routed Sim" (run_engine Sim.Fast net) with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" (Topology.to_string spec) m)
    battery_specs

(* ------------------------------------------------------------------ *)
(* Sweep harness                                                       *)
(* ------------------------------------------------------------------ *)

let fail_sweep r =
  Alcotest.failf "sweep scenario %s failed: %s; replay: %s"
    (Topology.to_string r.Sweep.r_scenario.Sweep.topo)
    (match (r.Sweep.r_error, r.Sweep.r_disagreements) with
    | Some e, _ -> e
    | None, d :: _ -> d
    | None, [] -> "word-rate check failed")
    (Sweep.replay_command r.Sweep.r_scenario)

(* The word check rides every checked schedulable scenario, whatever
   the primary engine: here the default one. *)
let test_sweep_static_word_rate () =
  let spec = Run_spec.v ~capacity:2 ~max_cycles:300 () in
  let topos =
    [
      Topology.v (Topology.Mesh (4, 4));
      Topology.v (Topology.Torus (3, 3));
      Topology.v ~max_rs:3 (Topology.Ring 9);
    ]
  in
  let results = Sweep.run ~jobs:2 (Sweep.expand ~topos ~seeds:3 ~spec) in
  checki "scenario count" 9 (List.length results);
  List.iter
    (fun r ->
      if not (Sweep.ok r) then fail_sweep r;
      checkb "word rate checked" true (r.Sweep.r_word_ok = Some true);
      checkb "word rate equals MCR bound" true
        (r.Sweep.r_word_rate = Some r.Sweep.r_bound);
      (* A word rate off the bound fails the check even when block 0
         sustains it: here, the word's ones over one cycle more than
         its period. *)
      let st =
        Static.create ~capacity:2 ~mode:Shell.Plain
          (Topology.build r.Sweep.r_scenario.Sweep.topo)
      in
      let ones = Array.fold_left (fun a f -> if f then a + 1 else a) 0 (Static.word st 0) in
      let off = Cycle_ratio.make_ratio ones (Static.period st + 1) in
      checkb "rate off the bound fails" false
        (Sweep.word_rate_ok ~bound:r.Sweep.r_bound ~rate:off ~sustained:true);
      checkb "unsustained rate fails" false
        (Sweep.word_rate_ok ~bound:r.Sweep.r_bound ~rate:r.Sweep.r_bound ~sustained:false))
    results;
  (* Without a firing word there is no word check. *)
  let ring = [ Topology.v (Topology.Ring 6) ] in
  let jitter = Fault.of_string ~seed:11 "jitter:10@100" in
  let unscheduled =
    Sweep.expand ~topos:ring ~seeds:2 ~spec:(Run_spec.v ~capacity:0 ~max_cycles:300 ())
    @ Sweep.expand ~topos:ring ~seeds:2 ~spec:(Run_spec.v ~max_cycles:150 ~fault:jitter ())
  in
  List.iter
    (fun r ->
      if not (Sweep.ok r) then fail_sweep r;
      checkb "capacity 0 or faulted: no word check" true
        (r.Sweep.r_word_ok = None && r.Sweep.r_word_rate = None))
    (Sweep.run ~jobs:1 unscheduled)

let test_sweep_fast_agreement () =
  let spec = Run_spec.v ~engine:Sim.Fast ~capacity:2 ~max_cycles:200 () in
  let topos =
    [ Topology.v (Topology.Mesh (3, 3)); Topology.v ~seed:2 (Topology.Rand 12) ]
  in
  let results = Sweep.run ~jobs:2 (Sweep.expand ~topos ~seeds:4 ~spec) in
  checki "scenario count" 8 (List.length results);
  List.iter (fun r -> if not (Sweep.ok r) then fail_sweep r) results;
  let report = Sweep.render results in
  checkb "report names the mesh family" true (contains report "mesh:3x3")

let test_sweep_faulted_runs () =
  (* A benign stall fault: still batchable, still deterministic, not
     schedulable — exercises the dynamic lanes of the sweep. *)
  let fault = Fault.of_string ~seed:11 "jitter:10@100" in
  let spec = Run_spec.v ~engine:Sim.Fast ~capacity:2 ~max_cycles:150 ~fault () in
  let topos = [ Topology.v (Topology.Ring 6) ] in
  let results = Sweep.run ~jobs:1 (Sweep.expand ~topos ~seeds:3 ~spec) in
  List.iter (fun r -> if not (Sweep.ok r) then fail_sweep r) results

(* Unbounded FIFOs never push back, so a ring's bound at capacity 0 is
   the forward-only marked-graph ratio 8 / (8 + total RS) — at least
   what any bounded capacity allows, and not a bound the capacity-0
   runs could beat. *)
let test_sweep_capacity0_bound () =
  let spec = Run_spec.v ~engine:Sim.Fast ~capacity:0 ~max_cycles:300 () in
  let topos = [ Topology.v (Topology.Ring 8) ] in
  let results = Sweep.run ~jobs:1 (Sweep.expand ~topos ~seeds:4 ~spec) in
  checki "scenario count" 4 (List.length results);
  let at_least a b =
    a.Cycle_ratio.num * b.Cycle_ratio.den >= b.Cycle_ratio.num * a.Cycle_ratio.den
  in
  List.iter
    (fun r ->
      if not (Sweep.ok r) then fail_sweep r;
      let net = Topology.build r.Sweep.r_scenario.Sweep.topo in
      let rs =
        List.fold_left (fun acc c -> acc + Network.relay_stations net c) 0
          (Network.channels net)
      in
      let seed = r.Sweep.r_scenario.Sweep.topo.Topology.seed in
      checkb (Printf.sprintf "seed %d: bound 8/(8+%d)" seed rs) true
        (r.Sweep.r_bound = Cycle_ratio.make_ratio 8 (8 + rs));
      List.iter
        (fun capacity ->
          checkb
            (Printf.sprintf "seed %d: bound >= capacity-%d bound" seed capacity)
            true
            (at_least r.Sweep.r_bound (Topology.mcr ~capacity net)))
        [ 1; 2 ])
    results

let test_expand_and_replay () =
  let spec = Run_spec.v ~engine:Sim.Fast () in
  let topos = [ Topology.v ~seed:5 (Topology.Ring 4) ] in
  let scs = Sweep.expand ~topos ~seeds:3 ~spec in
  checki "expansion count" 3 (List.length scs);
  let seeds = List.map (fun sc -> sc.Sweep.topo.Topology.seed) scs in
  checkb "seeds advance from the base" true (seeds = [ 5; 6; 7 ]);
  let cmd = Sweep.replay_command (List.hd scs) in
  checkb "replay names the seed" true (contains cmd "ring:4:seed5")

(* ------------------------------------------------------------------ *)
(* Schedule memo                                                       *)
(* ------------------------------------------------------------------ *)

(* [Static.tables] memoises by topology, relay-station counts and
   capacity, and every replay ([Static.create] or a routed [Sim.create])
   shares the memo.
   Observed through physical equality of the returned tables. *)

let build_of s =
  match Topology.of_string s with
  | Ok t -> Topology.build t
  | Error e -> failwith e

let test_memo_shared () =
  let net = build_of "mesh:8x8:seed7301" in
  let a = Static.tables ~capacity:2 net in
  checkb "second call returns the cached tables" true
    (Static.tables ~capacity:2 net == a);
  checkb "a rebuilt net has the same key" true
    (Static.tables ~capacity:2 (build_of "mesh:8x8:seed7301") == a);
  checkb "capacity is part of the key" true (Static.tables ~capacity:3 net != a);
  let c = List.hd (Network.channels net) in
  Network.set_relay_stations net c (Network.relay_stations net c + 1);
  checkb "a relay-station count is part of the key" true
    (Static.tables ~capacity:2 net != a)

let test_memo_word_budget () =
  (* ring:1000's table (period 2048) is larger than the memo's whole
     word budget: it is returned but never cached. *)
  let net = build_of "ring:1000" in
  let _, period, _ = Static.tables ~capacity:2 net in
  checki "period" 2048 period;
  checkb "an oversized table is not cached" true
    (Static.tables ~capacity:2 net != Static.tables ~capacity:2 net)

(* An Oracle replay bounds its learnt transitions by the memo's word
   budget.  ring:1000's blocks require every input, so its Oracle run
   follows the Plain table: period 2048, each state ~2,000 ints and each
   row ~2,000 more, so two periods of first visits cross the budget
   several times.  Every observable must still match the handshake. *)
let test_oracle_word_budget () =
  let net = build_of "ring:1000" in
  let cycles = 2 * 2048 in
  let fast = Fast.create ~capacity:2 ~mode:Shell.Oracle net in
  let st = Static.create ~capacity:2 ~mode:Shell.Oracle net in
  checkb "outcome" true
    (Static.run ~max_cycles:cycles st = Fast.run ~max_cycles:cycles fast);
  checki "cycles" (Fast.cycles fast) (Static.cycles st);
  checkb "delivered" true
    (List.for_all
       (fun c -> Static.delivered st c = Fast.delivered fast c)
       (Network.channels net));
  checkb "stats" true
    (List.for_all
       (fun n -> Static.node_stats st n = Fast.node_stats fast n)
       (Network.nodes net))

let test_memo_cold_warm () =
  (* The first create of a fresh spec records the table; the second
     replays the memoised tables.  Every observable must match. *)
  let net = build_of "rand:64:seed7919" in
  let run () =
    let st = Static.create ~capacity:2 ~record_traces:true ~mode:Shell.Plain net in
    let o = Static.run ~max_cycles:1500 st in
    ( o,
      Static.cycles st,
      List.map
        (fun n ->
          ( Static.node_stats st n,
            List.init
              (Process.n_outputs (Network.node_process net n))
              (Static.output_trace st n) ))
        (Network.nodes net),
      List.map (Static.delivered st) (Network.channels net) )
  in
  let cold = run () in
  let tables = Static.tables ~capacity:2 net in
  let warm = run () in
  checkb "the cold run cached its tables" true
    (Static.tables ~capacity:2 net == tables);
  checkb "cold and warm runs identical" true (cold = warm)

let () =
  Alcotest.run "topo"
    [
      ( "generator properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_connected;
            prop_cycles_tokened;
            prop_seed_stable;
            prop_grammar_roundtrip;
            prop_schedule_accepted;
            prop_table_replays_engine;
          ] );
      ( "generator units",
        [
          Alcotest.test_case "grammar corner cases" `Quick test_grammar;
          Alcotest.test_case "adapter round trip" `Quick test_adapter_roundtrip;
          Alcotest.test_case "10k-block build" `Quick test_build_10k;
        ] );
      ( "incremental mcr",
        [
          Alcotest.test_case "20k flow-like moves on rand:1000" `Slow
            test_incremental_long_run;
        ] );
      ( "differential",
        [
          Alcotest.test_case "31-topology three-engine battery" `Slow
            test_differential_battery;
          Alcotest.test_case "heterogeneous batch matches solo Fast" `Slow
            test_battery_batch_matches_fast;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "static word-rate equality" `Quick
            test_sweep_static_word_rate;
          Alcotest.test_case "fast cross-engine agreement" `Quick
            test_sweep_fast_agreement;
          Alcotest.test_case "faulted scenarios run" `Quick
            test_sweep_faulted_runs;
          Alcotest.test_case "capacity-0 bound" `Quick test_sweep_capacity0_bound;
          Alcotest.test_case "expand and replay" `Quick test_expand_and_replay;
        ] );
      ( "schedule memo",
        [
          Alcotest.test_case "shared tables and key" `Quick test_memo_shared;
          Alcotest.test_case "word budget" `Quick test_memo_word_budget;
          Alcotest.test_case "cold and warm identical" `Quick test_memo_cold_warm;
          Alcotest.test_case "oracle replay past its word budget = Fast" `Slow
            test_oracle_word_budget;
        ] );
    ]
