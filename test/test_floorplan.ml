(* Tests for Wp_floorplan: geometry, slicing floorplans, annealing and
   the wire-pipelining methodology flow. *)

open Wp_floorplan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Geometry                                                           *)
(* ------------------------------------------------------------------ *)

let test_geometry_basics () =
  let r = Geometry.rect ~x:1.0 ~y:2.0 ~w:4.0 ~h:6.0 in
  checkf "area" 24.0 (Geometry.area r);
  checkf "aspect" 1.5 (Geometry.aspect r);
  let c = Geometry.center r in
  checkf "center x" 3.0 c.Geometry.x;
  checkf "center y" 5.0 c.Geometry.y;
  checkb "negative rejected" true
    (match Geometry.rect ~x:0.0 ~y:0.0 ~w:(-1.0) ~h:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_geometry_manhattan_hpwl () =
  let p a b = { Geometry.x = a; y = b } in
  checkf "manhattan" 7.0 (Geometry.manhattan (p 0.0 0.0) (p 3.0 4.0));
  checkf "hpwl" 7.0 (Geometry.hpwl [ p 0.0 0.0; p 3.0 4.0; p 1.0 1.0 ]);
  checkf "hpwl singleton" 0.0 (Geometry.hpwl [ p 1.0 1.0 ])

let test_geometry_overlap () =
  let a = Geometry.rect ~x:0.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  let b = Geometry.rect ~x:1.0 ~y:1.0 ~w:2.0 ~h:2.0 in
  let c = Geometry.rect ~x:2.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  checkb "overlapping" true (Geometry.overlap a b);
  checkb "edge-sharing is not overlap" false (Geometry.overlap a c);
  checkb "contains" true
    (Geometry.contains ~outer:(Geometry.rect ~x:0.0 ~y:0.0 ~w:5.0 ~h:5.0) a)

(* ------------------------------------------------------------------ *)
(* Slicing                                                            *)
(* ------------------------------------------------------------------ *)

let square_shapes _ = [ { Slicing.w = 1.0; h = 1.0 } ]

let test_slicing_initial_valid () =
  for n = 1 to 6 do
    checkb "valid" true (Slicing.is_valid (Slicing.initial ~block_count:n))
  done

let test_slicing_invalid_expressions () =
  checkb "operator first" false (Slicing.is_valid [| Slicing.V; Slicing.Leaf 0; Slicing.Leaf 1 |]);
  checkb "too few operators" false (Slicing.is_valid [| Slicing.Leaf 0; Slicing.Leaf 1 |]);
  checkb "empty" false (Slicing.is_valid [||])

let test_slicing_pack_two_blocks () =
  (* Two unit squares side by side: 2 x 1 die. *)
  let expr = [| Slicing.Leaf 0; Slicing.Leaf 1; Slicing.V |] in
  let die, rects = Slicing.pack ~shapes:square_shapes expr in
  checkf "width" 2.0 die.Slicing.w;
  checkf "height" 1.0 die.Slicing.h;
  checkf "second block offset" 1.0 rects.(1).Geometry.origin.Geometry.x;
  (* Stacked: 1 x 2 die. *)
  let die, rects = Slicing.pack ~shapes:square_shapes [| Slicing.Leaf 0; Slicing.Leaf 1; Slicing.H |] in
  checkf "stacked height" 2.0 die.Slicing.h;
  checkf "second block y" 1.0 rects.(1).Geometry.origin.Geometry.y;
  ignore rects

let test_slicing_pack_uses_rotation () =
  (* A 2x1 block next to a 1x2 block: with rotations both can stand
     upright in a 2 x 2 die, or better; min area must be 4 exactly
     with the rotation aligned. *)
  let shapes = function
    | 0 -> [ { Slicing.w = 2.0; h = 1.0 }; { Slicing.w = 1.0; h = 2.0 } ]
    | _ -> [ { Slicing.w = 1.0; h = 2.0 }; { Slicing.w = 2.0; h = 1.0 } ]
  in
  let die, _ = Slicing.pack ~shapes [| Slicing.Leaf 0; Slicing.Leaf 1; Slicing.V |] in
  checkf "optimal packed area" 4.0 (die.Slicing.w *. die.Slicing.h)

let gen_expr_and_moves =
  QCheck2.Gen.(
    let* blocks = int_range 2 7 in
    let* seed = int_range 0 10_000 in
    let* moves = int_range 1 40 in
    return (blocks, seed, moves))

let prop_moves_preserve_validity =
  QCheck2.Test.make ~count:300 ~name:"random moves keep expressions valid" gen_expr_and_moves
    (fun (blocks, seed, moves) ->
      let prng = Wp_util.Prng.create ~seed in
      let expr = ref (Slicing.initial ~block_count:blocks) in
      let ok = ref true in
      for _ = 1 to moves do
        expr := Slicing.random_neighbor prng !expr;
        if not (Slicing.is_valid !expr) then ok := false
      done;
      !ok)

let prop_pack_no_overlap =
  QCheck2.Test.make ~count:200 ~name:"packed blocks never overlap and fit the die"
    gen_expr_and_moves
    (fun (blocks, seed, moves) ->
      let prng = Wp_util.Prng.create ~seed in
      let expr = ref (Slicing.initial ~block_count:blocks) in
      for _ = 1 to moves do
        expr := Slicing.random_neighbor prng !expr
      done;
      let shapes i = [ { Slicing.w = 1.0 +. float_of_int (i mod 3); h = 1.0 } ] in
      let die, rects = Slicing.pack ~shapes !expr in
      let outer = Geometry.rect ~x:0.0 ~y:0.0 ~w:die.Slicing.w ~h:die.Slicing.h in
      let no_overlap = ref true in
      Array.iteri
        (fun i a ->
          if not (Geometry.contains ~outer a) then no_overlap := false;
          Array.iteri (fun j b -> if i < j && Geometry.overlap a b then no_overlap := false) rects)
        rects;
      !no_overlap)

(* ------------------------------------------------------------------ *)
(* Sequence_pair                                                      *)
(* ------------------------------------------------------------------ *)

let unit_shapes _ = [ { Slicing.w = 1.0; h = 1.0 } ]

let test_sp_initial_valid () =
  for n = 1 to 6 do
    checkb "valid" true
      (Sequence_pair.is_valid ~shapes:unit_shapes (Sequence_pair.initial ~block_count:n))
  done

let test_sp_invalid () =
  let bad =
    { Sequence_pair.order_a = [| 0; 0 |]; order_b = [| 0; 1 |]; choice = [| 0; 0 |] }
  in
  checkb "duplicate rejected" false (Sequence_pair.is_valid ~shapes:unit_shapes bad);
  let bad_choice =
    { Sequence_pair.order_a = [| 0; 1 |]; order_b = [| 0; 1 |]; choice = [| 0; 5 |] }
  in
  checkb "choice out of range" false (Sequence_pair.is_valid ~shapes:unit_shapes bad_choice)

let test_sp_pack_known () =
  (* (0 1), (0 1): 1 left of... 0 before 1 in both -> side by side. *)
  let sp = Sequence_pair.initial ~block_count:2 in
  let die, rects = Sequence_pair.pack ~shapes:unit_shapes sp in
  Alcotest.(check (float 1e-9)) "width 2" 2.0 die.Slicing.w;
  Alcotest.(check (float 1e-9)) "height 1" 1.0 die.Slicing.h;
  Alcotest.(check (float 1e-9)) "block 1 at x=1" 1.0 rects.(1).Geometry.origin.Geometry.x;
  (* (1 0), (0 1): 0 after 1 in a, before in b -> 0 below 1. *)
  let sp =
    { Sequence_pair.order_a = [| 1; 0 |]; order_b = [| 0; 1 |]; choice = [| 0; 0 |] }
  in
  let die, rects = Sequence_pair.pack ~shapes:unit_shapes sp in
  Alcotest.(check (float 1e-9)) "stacked width 1" 1.0 die.Slicing.w;
  Alcotest.(check (float 1e-9)) "stacked height 2" 2.0 die.Slicing.h;
  Alcotest.(check (float 1e-9)) "block 1 at y=1" 1.0 rects.(1).Geometry.origin.Geometry.y

let test_sp_shape_choice () =
  let shapes = function
    | 0 -> [ { Slicing.w = 2.0; h = 1.0 }; { Slicing.w = 1.0; h = 2.0 } ]
    | _ -> [ { Slicing.w = 1.0; h = 1.0 } ]
  in
  let sp0 = Sequence_pair.initial ~block_count:2 in
  let die0, _ = Sequence_pair.pack ~shapes sp0 in
  let sp1 = { sp0 with Sequence_pair.choice = [| 1; 0 |] } in
  let die1, _ = Sequence_pair.pack ~shapes sp1 in
  checkb "choice changes the die" true (die0 <> die1)

let gen_sp_state =
  QCheck2.Gen.(
    let* blocks = int_range 2 7 in
    let* seed = int_range 0 10_000 in
    let* moves = int_range 1 40 in
    return (blocks, seed, moves))

let sp_shapes i = [ { Slicing.w = 1.0 +. float_of_int (i mod 3); h = 1.0 +. float_of_int (i mod 2) } ]

let prop_sp_moves_valid =
  QCheck2.Test.make ~count:300 ~name:"sequence-pair moves keep states valid" gen_sp_state
    (fun (blocks, seed, moves) ->
      let prng = Wp_util.Prng.create ~seed in
      let sp = ref (Sequence_pair.initial ~block_count:blocks) in
      let ok = ref true in
      for _ = 1 to moves do
        sp := Sequence_pair.random_neighbor prng ~shapes:sp_shapes !sp;
        if not (Sequence_pair.is_valid ~shapes:sp_shapes !sp) then ok := false
      done;
      !ok)

let prop_sp_pack_no_overlap =
  QCheck2.Test.make ~count:300 ~name:"sequence-pair packings never overlap" gen_sp_state
    (fun (blocks, seed, moves) ->
      let prng = Wp_util.Prng.create ~seed in
      let sp = ref (Sequence_pair.initial ~block_count:blocks) in
      for _ = 1 to moves do
        sp := Sequence_pair.random_neighbor prng ~shapes:sp_shapes !sp
      done;
      let die, rects = Sequence_pair.pack ~shapes:sp_shapes !sp in
      let outer = Geometry.rect ~x:0.0 ~y:0.0 ~w:die.Slicing.w ~h:die.Slicing.h in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          if not (Geometry.contains ~outer a) then ok := false;
          Array.iteri (fun j b -> if i < j && Geometry.overlap a b then ok := false) rects)
        rects;
      !ok)

(* ------------------------------------------------------------------ *)
(* Anneal                                                             *)
(* ------------------------------------------------------------------ *)

let test_anneal_minimises () =
  (* Minimise (x - 17)^2 over integers via +-1 moves. *)
  let prng = Wp_util.Prng.create ~seed:3 in
  let result =
    Wp_util.Anneal.optimize ~prng ~init:100
      ~neighbor:(fun prng x -> if Wp_util.Prng.bool prng then x + 1 else x - 1)
      ~cost:(fun x -> float_of_int ((x - 17) * (x - 17)))
      ~schedule:{ Wp_util.Anneal.steps = 5000; initial_temperature = 50.0; cooling = 0.9; plateau = 50 }
      ()
  in
  checki "found the minimum" 17 result.Wp_util.Anneal.best;
  checkf "cost zero" 0.0 result.Wp_util.Anneal.best_cost;
  checkb "accepted some moves" true (result.Wp_util.Anneal.accepted > 0)

let test_anneal_deterministic () =
  let run () =
    let prng = Wp_util.Prng.create ~seed:99 in
    (Wp_util.Anneal.optimize ~prng ~init:50
       ~neighbor:(fun prng x -> x + Wp_util.Prng.int_in prng (-2) 2)
       ~cost:(fun x -> abs_float (float_of_int x))
       ())
      .Wp_util.Anneal.best
  in
  checki "same seed, same answer" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Place                                                              *)
(* ------------------------------------------------------------------ *)

let three_blocks =
  [
    Place.block ~name:"A" ~area:4.0 ();
    Place.block ~name:"B" ~area:2.0 ();
    Place.block ~name:"C" ~area:1.0 ();
  ]

let test_place_pack_expression () =
  let p =
    Place.pack_expression ~blocks:three_blocks
      (Slicing.initial ~block_count:3)
  in
  checki "all blocks placed" 3 (List.length p.Place.rects);
  checkb "utilisation sane" true
    (let u = Place.utilization p ~blocks:three_blocks in
     u > 0.3 && u <= 1.0 +. 1e-9);
  checkb "wire length symmetric" true
    (Place.wire_length p "A" "B" = Place.wire_length p "B" "A")

let test_place_anneal_improves () =
  let nets = [ ("A", "B"); ("B", "C"); ("A", "C") ] in
  let initial =
    Place.pack_expression ~blocks:three_blocks (Slicing.initial ~block_count:3)
  in
  let cost p =
    (p.Place.die.Slicing.w *. p.Place.die.Slicing.h)
    +. (0.5 *. Place.total_wirelength p ~nets)
  in
  let prng = Wp_util.Prng.create ~seed:4 in
  let annealed = Place.anneal ~prng ~blocks:three_blocks ~nets () in
  checkb "anneal no worse than the chain" true (cost annealed <= cost initial +. 1e-9)

let test_sp_anneal_vs_slicing () =
  (* Independent packers, same blocks and objective: annealed results
     should land in the same quality region. *)
  let nets = [ ("A", "B"); ("B", "C"); ("A", "C") ] in
  let cost p =
    (p.Place.die.Slicing.w *. p.Place.die.Slicing.h)
    +. (0.5 *. Place.total_wirelength p ~nets)
  in
  let slicing =
    Place.anneal ~prng:(Wp_util.Prng.create ~seed:4) ~blocks:three_blocks ~nets ()
  in
  let sp =
    Place.anneal_sequence_pair ~prng:(Wp_util.Prng.create ~seed:4) ~blocks:three_blocks ~nets ()
  in
  checkb
    (Printf.sprintf "sequence pair (%.2f) within 25%% of slicing (%.2f)" (cost sp) (cost slicing))
    true
    (cost sp <= cost slicing *. 1.25 +. 1e-9);
  checkb "sp utilisation sane" true (Place.utilization sp ~blocks:three_blocks > 0.5)

let test_place_invalid_block () =
  checkb "zero area rejected" true
    (match Place.block ~name:"X" ~area:0.0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Flow                                                               *)
(* ------------------------------------------------------------------ *)

let test_flow_relay_station_sizing () =
  checki "short wire" 0 (Flow.relay_stations_for ~reach:1.5 0.5);
  checki "exactly one reach" 0 (Flow.relay_stations_for ~reach:1.5 1.5);
  checki "just over" 1 (Flow.relay_stations_for ~reach:1.5 1.6);
  checki "three spans" 2 (Flow.relay_stations_for ~reach:1.5 4.4);
  checkb "bad reach" true
    (match Flow.relay_stations_for ~reach:0.0 1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let spec_with ?(reach = Flow_spec.default.Flow_spec.reach) seed =
  { Flow_spec.default with Flow_spec.seed; reach }

let test_flow_run_deterministic () =
  let a = Flow.run ~spec:(spec_with 5) () and b = Flow.run ~spec:(spec_with 5) () in
  checkf "same bound" a.Flow.wp1_bound b.Flow.wp1_bound;
  checkf "same area" a.Flow.die_area b.Flow.die_area;
  checkb "same config" true (Wp_core.Config.equal a.Flow.config b.Flow.config)

let test_flow_config_is_geometric () =
  let r = Flow.run ~spec:(spec_with ~reach:1.2 6) () in
  (* Each connection's RS count must match its wire length. *)
  List.iter
    (fun (conn, count) ->
      let a, b =
        let _, (src, _), (dst, _) =
          List.find (fun (c, _, _) -> c = conn) Wp_soc.Datapath.topology
        in
        (src, dst)
      in
      let expected =
        Flow.relay_stations_for ~reach:1.2 (Place.wire_length r.Flow.placement a b)
      in
      checki (Wp_soc.Datapath.connection_name conn) expected count)
    (Wp_core.Config.to_alist r.Flow.config)

let test_flow_ablation () =
  let results = Flow.objectives_ablation ~spec:(spec_with ~reach:1.3 9) () in
  checki "three objectives" 3 (List.length results);
  let bound label = (List.assoc label results).Flow.wp1_bound in
  checkb
    (Printf.sprintf "throughput-aware (%.2f) >= area-only (%.2f)"
       (bound "area + loop throughput") (bound "area only"))
    true
    (bound "area + loop throughput" >= bound "area only" -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Flow_spec                                                          *)
(* ------------------------------------------------------------------ *)

let test_flow_spec_of_args () =
  (match Flow_spec.of_args () with
  | Ok spec -> checkb "defaults" true (Flow_spec.equal spec Flow_spec.default)
  | Error e -> Alcotest.fail e);
  (match Flow_spec.of_args ~topology:"mesh:4x4" ~objective:"pareto" ~seed:7 () with
  | Ok spec ->
    Alcotest.(check string)
      "digest" "mesh:4x4|r1.5|pareto|b4000|s7|t0c0.95p40|k4" (Flow_spec.digest spec)
  | Error e -> Alcotest.fail e);
  let is_error = function Error _ -> true | Ok _ -> false in
  checkb "bad topology" true (is_error (Flow_spec.of_args ~topology:"blob:9" ()));
  checkb "bad objective" true (is_error (Flow_spec.of_args ~objective:"speed" ()));
  checkb "bad reach" true (is_error (Flow_spec.of_args ~reach:0.0 ()));
  checkb "bad budget" true (is_error (Flow_spec.of_args ~budget:0 ()));
  checkb "bad cooling" true (is_error (Flow_spec.of_args ~cooling:1.5 ()));
  checkb "bad plateau" true (is_error (Flow_spec.of_args ~plateau:0 ()));
  checkb "bad pool" true (is_error (Flow_spec.of_args ~pool:0 ()))

let test_flow_spec_to_search () =
  let spec = { Flow_spec.default with Flow_spec.seed = 11; budget = 123 } in
  let search = Flow_spec.to_search spec in
  checki "seed" 11 search.Wp_core.Optimizer.seed;
  checki "steps" 123 search.Wp_core.Optimizer.schedule.Wp_util.Anneal.steps;
  checki "budget stays core default" Wp_core.Optimizer.default_search.Wp_core.Optimizer.budget
    search.Wp_core.Optimizer.budget;
  let search = Flow_spec.to_search ~budget:5 ~per_connection_max:1 spec in
  checki "budget override" 5 search.Wp_core.Optimizer.budget;
  checki "per-connection override" 1 search.Wp_core.Optimizer.per_connection_max

let test_flow_spec_topology_gate () =
  let generated =
    match Flow_spec.of_args ~topology:"mesh:3x3" () with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  checkb "Flow.run rejects generated" true
    (match Flow.run ~spec:generated () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "Flow_scale.run rejects case study" true
    (match Flow_scale.run ~spec:Flow_spec.default () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Flow_scale                                                         *)
(* ------------------------------------------------------------------ *)

let scale_spec =
  match
    Flow_spec.of_args ~topology:"mesh:4x4" ~objective:"pareto" ~budget:400 ~seed:3 ()
  with
  | Ok spec -> spec
  | Error e -> failwith e

(* The population annealer must be byte-identical at 1 vs 4 domains:
   cached evaluation values are pure functions of the placement, so
   walker trajectories cannot depend on domain interleaving. *)
let test_flow_scale_domain_determinism () =
  let a = Flow_scale.run ~jobs:1 ~spec:scale_spec () in
  let b = Flow_scale.run ~jobs:4 ~spec:scale_spec () in
  checkb "identical results at 1 vs 4 domains" true (a = b);
  Alcotest.(check string)
    "identical artifacts"
    (Flow_scale.front_to_json ~spec:scale_spec a)
    (Flow_scale.front_to_json ~spec:scale_spec b)

let test_flow_scale_front_consistent () =
  let r = Flow_scale.run ~jobs:2 ~spec:scale_spec () in
  checkb "best heads the front" true (List.hd r.Flow_scale.front = r.Flow_scale.best);
  (* [run] cross-checks the best point internally; re-check every front
     point against a cold solve of its derived network. *)
  List.iter
    (fun (p : Flow_scale.point) ->
      let net = Flow_scale.derived_network scale_spec p in
      checkb "front bound is exact" true
        (Wp_graph.Cycle_ratio.ratio_compare p.Flow_scale.wp1_bound
           (Flow_scale.scratch_bound net)
         = 0))
    r.Flow_scale.front;
  (* Pairwise non-dominance of the front. *)
  let dominates (p : Flow_scale.point) (q : Flow_scale.point) =
    p.Flow_scale.die_area <= q.Flow_scale.die_area
    && p.Flow_scale.wirelength <= q.Flow_scale.wirelength
    && Wp_graph.Cycle_ratio.ratio_compare p.Flow_scale.wp1_bound q.Flow_scale.wp1_bound
       >= 0
    && (p.Flow_scale.die_area < q.Flow_scale.die_area
        || p.Flow_scale.wirelength < q.Flow_scale.wirelength
        || Wp_graph.Cycle_ratio.ratio_compare p.Flow_scale.wp1_bound
             q.Flow_scale.wp1_bound
           > 0)
  in
  List.iter
    (fun p ->
      List.iter
        (fun q -> checkb "front is mutually non-dominated" false (dominates p q))
        (List.filter (fun q -> q != p) r.Flow_scale.front))
    r.Flow_scale.front;
  (* The static engine agrees with the marked-graph bound on the best. *)
  let net = Flow_scale.derived_network scale_spec r.Flow_scale.best in
  checkb "static word rate = WP1 bound" true
    (Wp_graph.Cycle_ratio.ratio_compare (Flow_scale.static_rate net)
       r.Flow_scale.best.Flow_scale.wp1_bound
    = 0)

(* Regression: at this seed the walkers reach a placement whose capacity
   graph has many cycles tied at the optimum 5/72, where policy
   iteration used to swap the same policy edges back and forth until
   its n*m iteration cap (minutes).  It must return, with the exact
   bound (which [run] re-checks against a cold solve). *)
let test_flow_scale_tied_optimum_returns () =
  let spec =
    match Flow_spec.of_args ~topology:"rand:1000" ~budget:1000 ~seed:409 () with
    | Ok spec -> spec
    | Error e -> failwith e
  in
  let r = Flow_scale.run ~jobs:1 ~spec () in
  Alcotest.(check string) "WP1 bound" "5/72"
    (Format.asprintf "%a" Wp_graph.Cycle_ratio.ratio_pp r.Flow_scale.best.Flow_scale.wp1_bound)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_moves_preserve_validity; prop_pack_no_overlap; prop_sp_moves_valid; prop_sp_pack_no_overlap ]
  in
  Alcotest.run "wp_floorplan"
    [
      ( "geometry",
        [
          Alcotest.test_case "basics" `Quick test_geometry_basics;
          Alcotest.test_case "manhattan/hpwl" `Quick test_geometry_manhattan_hpwl;
          Alcotest.test_case "overlap" `Quick test_geometry_overlap;
        ] );
      ( "slicing",
        [
          Alcotest.test_case "initial valid" `Quick test_slicing_initial_valid;
          Alcotest.test_case "invalid expressions" `Quick test_slicing_invalid_expressions;
          Alcotest.test_case "pack two blocks" `Quick test_slicing_pack_two_blocks;
          Alcotest.test_case "rotation used" `Quick test_slicing_pack_uses_rotation;
        ] );
      ( "sequence_pair",
        [
          Alcotest.test_case "initial valid" `Quick test_sp_initial_valid;
          Alcotest.test_case "invalid states" `Quick test_sp_invalid;
          Alcotest.test_case "pack known" `Quick test_sp_pack_known;
          Alcotest.test_case "shape choice" `Quick test_sp_shape_choice;
          Alcotest.test_case "anneal vs slicing" `Quick test_sp_anneal_vs_slicing;
        ] );
      ( "anneal",
        [
          Alcotest.test_case "minimises" `Quick test_anneal_minimises;
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
        ] );
      ( "place",
        [
          Alcotest.test_case "pack expression" `Quick test_place_pack_expression;
          Alcotest.test_case "anneal improves" `Quick test_place_anneal_improves;
          Alcotest.test_case "invalid block" `Quick test_place_invalid_block;
        ] );
      ( "flow",
        [
          Alcotest.test_case "relay sizing" `Quick test_flow_relay_station_sizing;
          Alcotest.test_case "deterministic" `Quick test_flow_run_deterministic;
          Alcotest.test_case "config is geometric" `Quick test_flow_config_is_geometric;
          Alcotest.test_case "objectives ablation" `Slow test_flow_ablation;
        ] );
      ( "flow_spec",
        [
          Alcotest.test_case "of_args" `Quick test_flow_spec_of_args;
          Alcotest.test_case "to_search" `Quick test_flow_spec_to_search;
          Alcotest.test_case "topology gate" `Quick test_flow_spec_topology_gate;
        ] );
      ( "flow_scale",
        [
          Alcotest.test_case "1 vs 4 domains byte-identical" `Quick
            test_flow_scale_domain_determinism;
          Alcotest.test_case "front is exact and non-dominated" `Quick
            test_flow_scale_front_consistent;
          Alcotest.test_case "tied optimum returns (rand:1000 seed 409)" `Quick
            test_flow_scale_tied_optimum_returns;
        ] );
      ("properties", props);
    ]
