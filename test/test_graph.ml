(* Unit and property tests for Wp_graph. *)

module Digraph = Wp_graph.Digraph
module Scc = Wp_graph.Scc
module Cycles = Wp_graph.Cycles
module Cycle_ratio = Wp_graph.Cycle_ratio
module Karp = Wp_oracle.Karp
module Lawler = Wp_oracle.Lawler
module Enumeration = Wp_oracle.Enumeration
module Shortest_path = Wp_oracle.Shortest_path
module Topo = Wp_graph.Topo
module Dot = Wp_graph.Dot

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* Build a graph from an edge list over vertices 0..n-1. *)
let graph_of n edges =
  let g = Digraph.create () in
  for i = 0 to n - 1 do
    ignore (Digraph.add_vertex g ~label:(Printf.sprintf "v%d" i))
  done;
  List.iter
    (fun (src, dst) -> ignore (Digraph.add_edge g ~src ~dst ~label:(Printf.sprintf "%d->%d" src dst)))
    edges;
  g

(* Reachability by plain DFS, used as an oracle for SCC tests. *)
let reachable g src =
  let n = Digraph.vertex_count g in
  let seen = Array.make n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (Digraph.succ g v)
    end
  in
  go src;
  seen

(* Independent elementary-cycle enumeration (plain DFS with smallest-vertex
   canonicalisation, no blocking) used as an oracle for Johnson. *)
let brute_force_cycles g =
  let n = Digraph.vertex_count g in
  let results = ref [] in
  for s = 0 to n - 1 do
    let rec extend v path on_path =
      List.iter
        (fun e ->
          let w = Digraph.edge_dst g e in
          if w = s then results := List.rev (e :: path) :: !results
          else if w > s && not (List.mem w on_path) then
            extend w (e :: path) (w :: on_path))
        (Digraph.out_edges g v)
    in
    extend s [] [ s ]
  done;
  !results

(* A deterministic random-graph generator for properties. *)
let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* m = int_range 0 12 in
    let* edges = list_size (return m) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, edges))

(* ------------------------------------------------------------------ *)
(* Digraph                                                            *)
(* ------------------------------------------------------------------ *)

let test_digraph_basics () =
  let g = Digraph.create () in
  let a = Digraph.add_vertex g ~label:"A" in
  let b = Digraph.add_vertex g ~label:"B" in
  let e = Digraph.add_edge g ~src:a ~dst:b ~label:"ab" in
  checki "vertices" 2 (Digraph.vertex_count g);
  checki "edges" 1 (Digraph.edge_count g);
  Alcotest.(check string) "vertex label" "A" (Digraph.vertex_label g a);
  Alcotest.(check string) "edge label" "ab" (Digraph.edge_label g e);
  checki "src" a (Digraph.edge_src g e);
  checki "dst" b (Digraph.edge_dst g e);
  Alcotest.(check (list int)) "out" [ e ] (Digraph.out_edges g a);
  Alcotest.(check (list int)) "in" [ e ] (Digraph.in_edges g b);
  Alcotest.(check (option int)) "find vertex" (Some b) (Digraph.find_vertex g "B");
  Alcotest.(check (option int)) "find edge" (Some e) (Digraph.find_edge g "ab");
  Alcotest.(check (option int)) "find missing" None (Digraph.find_vertex g "Z")

let test_digraph_parallel_edges () =
  let g = graph_of 2 [ (0, 1); (0, 1); (1, 0) ] in
  checki "3 edges" 3 (Digraph.edge_count g);
  checki "two parallel out-edges" 2 (List.length (Digraph.out_edges g 0))

let test_digraph_invalid_endpoint () =
  let g = graph_of 1 [] in
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Digraph: no such vertex")
    (fun () -> ignore (Digraph.add_edge g ~src:0 ~dst:5 ~label:""))

let test_digraph_order_preserved () =
  let g = graph_of 3 [ (0, 1); (0, 2) ] in
  Alcotest.(check (list int)) "insertion order" [ 0; 1 ] (Digraph.out_edges g 0)

(* ------------------------------------------------------------------ *)
(* Scc                                                                *)
(* ------------------------------------------------------------------ *)

let test_scc_two_cycles_bridge () =
  (* 0<->1 -> 2<->3, plus isolated 4 *)
  let g = graph_of 5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  let comps = List.map (List.sort compare) (Scc.components g) in
  checkb "has {0,1}" true (List.mem [ 0; 1 ] comps);
  checkb "has {2,3}" true (List.mem [ 2; 3 ] comps);
  checkb "has {4}" true (List.mem [ 4 ] comps);
  (* Reverse topological order: {2,3} must appear before {0,1}. *)
  let idx23 = ref (-1) and idx01 = ref (-1) in
  List.iteri
    (fun i c -> if c = [ 2; 3 ] then idx23 := i else if c = [ 0; 1 ] then idx01 := i)
    comps;
  checkb "reverse topological" true (!idx23 < !idx01)

let test_scc_self_loop_not_trivial () =
  let g = graph_of 2 [ (0, 0) ] in
  checkb "self loop nontrivial" false (Scc.is_trivial g [ 0 ]);
  checkb "lone vertex trivial" true (Scc.is_trivial g [ 1 ])

let prop_scc_partition =
  QCheck2.Test.make ~count:300 ~name:"scc components partition the vertex set" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let comps = Scc.components g in
      let all = List.sort compare (List.concat comps) in
      all = List.init n Fun.id)

let prop_scc_mutual_reachability =
  QCheck2.Test.make ~count:300 ~name:"same component iff mutually reachable" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let ids = Scc.component_ids g in
      let reach = Array.init n (fun v -> reachable g v) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let mutual = reach.(u).(v) && reach.(v).(u) in
          if mutual <> (ids.(u) = ids.(v)) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Cycles                                                             *)
(* ------------------------------------------------------------------ *)

let test_cycles_triangle () =
  let g = graph_of 3 [ (0, 1); (1, 2); (2, 0) ] in
  let cycles = Cycles.elementary_cycles g in
  checki "one cycle" 1 (List.length cycles);
  checki "length 3" 3 (List.length (List.hd cycles))

let test_cycles_complete_k3 () =
  (* Complete digraph on 3 vertices: 3 two-cycles + 2 three-cycles. *)
  let g = graph_of 3 [ (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) ] in
  checki "5 cycles" 5 (List.length (Cycles.elementary_cycles g))

let test_cycles_complete_k4 () =
  let edges = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j then edges := (i, j) :: !edges
    done
  done;
  let g = graph_of 4 !edges in
  (* 6 two-cycles + 8 three-cycles + 6 four-cycles. *)
  checki "20 cycles" 20 (List.length (Cycles.elementary_cycles g))

let test_cycles_self_loop () =
  let g = graph_of 1 [ (0, 0) ] in
  let cycles = Cycles.elementary_cycles g in
  checki "self loop is a cycle" 1 (List.length cycles);
  checki "of length 1" 1 (List.length (List.hd cycles))

let test_cycles_parallel_edges () =
  (* Two parallel edges 0->1 and one 1->0: two distinct 2-cycles. *)
  let g = graph_of 2 [ (0, 1); (0, 1); (1, 0) ] in
  checki "two distinct cycles" 2 (List.length (Cycles.elementary_cycles g))

let test_cycles_dag_empty () =
  let g = graph_of 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  checki "dag has no cycles" 0 (List.length (Cycles.elementary_cycles g))

let test_cycles_bound () =
  let g = graph_of 3 [ (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) ] in
  Alcotest.check_raises "bound enforced" (Failure "Cycles.elementary_cycles: bound exceeded")
    (fun () -> ignore (Cycles.elementary_cycles ~max_cycles:2 g))

let sort_cycles cycles = List.sort compare cycles

let prop_cycles_match_brute_force =
  QCheck2.Test.make ~count:300 ~name:"johnson matches brute-force enumeration" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      sort_cycles (Cycles.elementary_cycles g) = sort_cycles (brute_force_cycles g))

let prop_cycles_all_elementary =
  QCheck2.Test.make ~count:300 ~name:"every enumerated cycle is elementary" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      List.for_all (Cycles.is_elementary_cycle g) (Cycles.elementary_cycles g))

(* ------------------------------------------------------------------ *)
(* Karp / Cycle_ratio                                                 *)
(* ------------------------------------------------------------------ *)

(* Deterministic weights derived from the edge id so properties are
   reproducible: weight in [-3, 4]. *)
let edge_weight e = (e * 7 mod 8) - 3
let edge_time e = 1 + (e mod 3)

let test_karp_simple () =
  (* Cycle 0->1->0 with weights 2 and 4: mean 3. Self loop at 2 weight 1. *)
  let g = graph_of 3 [ (0, 1); (1, 0); (2, 2) ] in
  let weight e = [| 2.0; 4.0; 1.0 |].(e) in
  (match Karp.maximum_cycle_mean g ~weight with
  | Some m -> checkf "max mean 3" 3.0 m
  | None -> Alcotest.fail "expected a cycle");
  match Karp.minimum_cycle_mean g ~weight with
  | Some m -> checkf "min mean 1" 1.0 m
  | None -> Alcotest.fail "expected a cycle"

let test_karp_acyclic () =
  let g = graph_of 3 [ (0, 1); (1, 2) ] in
  checkb "acyclic -> None" true (Karp.maximum_cycle_mean g ~weight:(fun _ -> 1.0) = None)

let prop_karp_matches_enumeration =
  QCheck2.Test.make ~count:200 ~name:"karp max mean = enumerated max mean" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let cycles = Cycles.elementary_cycles g in
      let mean cycle =
        let total = List.fold_left (fun acc e -> acc + edge_weight e) 0 cycle in
        float_of_int total /. float_of_int (List.length cycle)
      in
      match (Karp.maximum_cycle_mean g ~weight:(fun e -> float_of_int (edge_weight e)), cycles) with
      | None, [] -> true
      | None, _ :: _ | Some _, [] -> false
      | Some got, _ :: _ ->
        let expected = List.fold_left (fun acc c -> max acc (mean c)) neg_infinity cycles in
        abs_float (got -. expected) < 1e-6)

let test_ratio_make () =
  let r = Cycle_ratio.make_ratio 4 8 in
  checki "num" 1 r.Cycle_ratio.num;
  checki "den" 2 r.Cycle_ratio.den;
  let r = Cycle_ratio.make_ratio 3 (-6) in
  checki "sign in num" (-1) r.Cycle_ratio.num;
  checki "den positive" 2 r.Cycle_ratio.den;
  Alcotest.check_raises "zero den" (Invalid_argument "Cycle_ratio.make_ratio: zero denominator")
    (fun () -> ignore (Cycle_ratio.make_ratio 1 0))

let test_ratio_known () =
  (* Loop of 2 processes and 1 extra delay: ratio 2/(2+1).  Edges carry
     cost 1; the edge 0->1 has time 2 (one relay station), 1->0 time 1. *)
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  let time e = if e = 0 then 2 else 1 in
  match Cycle_ratio.minimum g ~cost:(fun _ -> 1) ~time with
  | Some (r, cycle) ->
    checki "num" 2 r.Cycle_ratio.num;
    checki "den" 3 r.Cycle_ratio.den;
    checki "cycle length" 2 (List.length cycle)
  | None -> Alcotest.fail "expected a cycle"

let test_ratio_picks_worst_loop () =
  (* Two loops: 0<->1 with 1 RS (ratio 2/3) and 2<->3 with 3 RS
     (ratio 2/5).  The minimum is 2/5. *)
  let g = graph_of 4 [ (0, 1); (1, 0); (2, 3); (3, 2) ] in
  let time e = match e with 0 -> 2 | 2 -> 4 | _ -> 1 in
  match Cycle_ratio.minimum g ~cost:(fun _ -> 1) ~time with
  | Some (r, _) ->
    checki "num" 2 r.Cycle_ratio.num;
    checki "den" 5 r.Cycle_ratio.den
  | None -> Alcotest.fail "expected a cycle"

let test_ratio_acyclic () =
  let g = graph_of 3 [ (0, 1); (1, 2) ] in
  checkb "acyclic -> None" true
    (Cycle_ratio.minimum g ~cost:(fun _ -> 1) ~time:(fun _ -> 1) = None)

let test_ratio_zero_time_cycle_rejected () =
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  Alcotest.check_raises "zero-time cycle" (Invalid_argument "Cycle_ratio: cycle with zero total time")
    (fun () -> ignore (Cycle_ratio.minimum g ~cost:(fun _ -> 1) ~time:(fun _ -> 0)))

(* The two oracles agree with each other before either judges the
   library solver. *)
let prop_ratio_matches_enumeration =
  QCheck2.Test.make ~count:200 ~name:"parametric min ratio = enumerated min ratio" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let cost = edge_weight and time = edge_time in
      match (Lawler.minimum g ~cost ~time, Enumeration.minimum g ~cost ~time) with
      | None, None -> true
      | Some (r1, c1), Some (r2, c2) ->
        Cycle_ratio.ratio_compare r1 r2 = 0
        && Cycles.is_elementary_cycle g c1
        && Cycles.is_elementary_cycle g c2
      | None, Some _ | Some _, None -> false)

let prop_ratio_max_min_duality =
  QCheck2.Test.make ~count:200 ~name:"maximum ratio >= minimum ratio" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let cost = edge_weight and time = edge_time in
      match (Cycle_ratio.minimum g ~cost ~time, Lawler.maximum g ~cost ~time) with
      | None, None -> true
      | Some (rmin, _), Some (rmax, _) -> Cycle_ratio.ratio_compare rmin rmax <= 0
      | None, Some _ | Some _, None -> false)

(* ------------------------------------------------------------------ *)
(* Howard: the library solver against the oracles                     *)
(* ------------------------------------------------------------------ *)

let test_howard_known () =
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  let time e = if e = 0 then 2 else 1 in
  match Cycle_ratio.minimum g ~cost:(fun _ -> 1) ~time with
  | Some (r, cycle) ->
    checki "num" 2 r.Cycle_ratio.num;
    checki "den" 3 r.Cycle_ratio.den;
    checkb "witness is a cycle" true (Cycles.is_elementary_cycle g cycle)
  | None -> Alcotest.fail "expected a cycle"

let test_howard_acyclic () =
  let g = graph_of 3 [ (0, 1); (1, 2) ] in
  checkb "acyclic -> None" true
    (Cycle_ratio.minimum g ~cost:(fun _ -> 1) ~time:(fun _ -> 1) = None)

let prop_howard_matches_lawler =
  QCheck2.Test.make ~count:300 ~name:"howard = lawler = enumeration" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let cost = edge_weight and time = edge_time in
      match
        ( Cycle_ratio.minimum g ~cost ~time,
          Lawler.minimum g ~cost ~time,
          Enumeration.minimum g ~cost ~time )
      with
      | None, None, None -> true
      | Some (r1, c1), Some (r2, _), Some (r3, _) ->
        Cycle_ratio.ratio_compare r1 r2 = 0
        && Cycle_ratio.ratio_compare r1 r3 = 0
        && Cycles.is_elementary_cycle g c1
      | _ -> false)

(* Many cycles tied at the optimum: strongly connected graphs of 20-60
   vertices with costs and times in {1, 2}.  Ties are where policy
   iteration can oscillate between equally good policies; the solver
   must still terminate on an exact optimum with a witnessing cycle. *)
let gen_tie_heavy =
  QCheck2.Gen.(
    let* n = int_range 20 60 in
    let* extra =
      list_size (int_range n (2 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    let edges = List.init n (fun i -> (i, (i + 1) mod n)) @ extra in
    let* weights =
      list_size (return (List.length edges)) (pair (int_range 1 2) (int_range 1 2))
    in
    return (n, edges, Array.of_list weights))

let prop_howard_matches_lawler_tie_heavy =
  QCheck2.Test.make ~count:100 ~name:"howard = lawler on tie-heavy strongly connected graphs"
    gen_tie_heavy
    (fun (n, edges, weights) ->
      let g = graph_of n edges in
      let cost e = fst weights.(e) and time e = snd weights.(e) in
      match (Cycle_ratio.minimum g ~cost ~time, Lawler.minimum g ~cost ~time) with
      | Some (r1, c1), Some (r2, _) ->
        Cycle_ratio.ratio_compare r1 r2 = 0
        && Cycles.is_elementary_cycle g c1
        && Cycle_ratio.ratio_compare (Cycle_ratio.cycle_ratio g ~cost ~time c1) r1 = 0
      | _ -> false (* strongly connected => cyclic *))

(* Howard vs Karp on guaranteed-cyclic inputs: superimposing a
   Hamiltonian ring on random extra edges makes every generated digraph
   strongly connected, so both solvers must return Some and, with unit
   times, the minimum cycle ratio degenerates to Karp's minimum cycle
   mean.  Two entirely independent dynamic programs agreeing exactly on 200
   random instances is strong evidence both are right. *)
let gen_sc_graph =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* m = int_range 0 14 in
    let* extra = list_size (return m) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    let ring = List.init n (fun i -> (i, (i + 1) mod n)) in
    return (n, ring @ extra))

let prop_howard_matches_karp_sc =
  QCheck2.Test.make ~count:200 ~name:"howard = karp min cycle mean on strongly connected digraphs"
    gen_sc_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let cost = edge_weight in
      match
        ( Cycle_ratio.minimum g ~cost ~time:(fun _ -> 1),
          Karp.minimum_cycle_mean g ~weight:(fun e -> float_of_int (cost e)) )
      with
      | Some (r, cycle), Some mean ->
        Cycles.is_elementary_cycle g cycle
        && Float.abs (Cycle_ratio.ratio_to_float r -. mean) < 1e-9
      | _ -> false (* strongly connected => at least one cycle on both sides *))

let prop_howard_matches_karp_max_sc =
  QCheck2.Test.make ~count:200 ~name:"lawler max = karp max cycle mean on strongly connected digraphs"
    gen_sc_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let cost = edge_weight in
      match
        ( Lawler.maximum g ~cost ~time:(fun _ -> 1),
          Karp.maximum_cycle_mean g ~weight:(fun e -> float_of_int (cost e)) )
      with
      | Some (r, cycle), Some mean ->
        Cycles.is_elementary_cycle g cycle
        && Float.abs (Cycle_ratio.ratio_to_float r -. mean) < 1e-9
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Cycle_ratio.Incremental                                            *)
(* ------------------------------------------------------------------ *)

module Incr = Cycle_ratio.Incremental

let test_incremental_acyclic () =
  let g = graph_of 3 [ (0, 1); (1, 2) ] in
  let t = Incr.create g ~cost:(fun _ -> 1) ~time:(fun _ -> 1) in
  checkb "acyclic -> None" true (Incr.solve t = None);
  Incr.set_cost t 0 5;
  checkb "still None after a perturbation" true (Incr.solve t = None)

let test_incremental_memoised () =
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  let t = Incr.create g ~cost:(fun _ -> 1) ~time:(fun e -> if e = 0 then 2 else 1) in
  (match Incr.solve t with
  | Some (r, _) ->
    checki "num" 2 r.Cycle_ratio.num;
    checki "den" 3 r.Cycle_ratio.den
  | None -> Alcotest.fail "expected a cycle");
  checki "one solve" 1 (Incr.solves t);
  ignore (Incr.solve t);
  checki "clean state is memoised" 1 (Incr.solves t);
  Incr.set_time t 0 2;
  ignore (Incr.solve t);
  checki "no-op perturbation stays memoised" 1 (Incr.solves t);
  Incr.set_time t 0 5;
  (match Incr.solve t with
  | Some (r, _) ->
    checki "perturbed num" 1 r.Cycle_ratio.num;
    checki "perturbed den" 3 r.Cycle_ratio.den
  | None -> Alcotest.fail "expected a cycle");
  checki "dirty state re-solves" 2 (Incr.solves t);
  checkb "negative time rejected" true
    (match Incr.set_time t 0 (-1) with
    | exception Invalid_argument _ -> true
    | () -> false);
  checki "accessors see the weights" 5 (Incr.time t 0);
  checki "accessors see the weights (cost)" 1 (Incr.cost t 0)

(* The differential battery: one persistent evaluator driven through a
   50-step random perturbation sequence must agree exactly with Lawler's
   search on the same weights at every step.  [gen_graph] mixes
   acyclic, multi-SCC and self-loop shapes, so the warm-started policy
   iteration is exercised across components and through None results. *)
let prop_incremental_matches_scratch =
  QCheck2.Test.make ~count:100
    ~name:"incremental mcr = from-scratch lawler across 50 perturbations"
    QCheck2.Gen.(
      let* n, edges = gen_graph in
      let m = List.length edges in
      let* steps =
        list_size (return 50)
          (triple (int_range 0 (max 0 (m - 1))) (int_range (-3) 4) (int_range 1 3))
      in
      return (n, edges, steps))
    (fun (n, edges, steps) ->
      let g = graph_of n edges in
      let m = List.length edges in
      m = 0
      ||
      let cost = Array.init m edge_weight and time = Array.init m edge_time in
      let inc = Incr.create g ~cost:(fun e -> cost.(e)) ~time:(fun e -> time.(e)) in
      List.for_all
        (fun (e, c, t) ->
          cost.(e) <- c;
          time.(e) <- t;
          Incr.set_cost inc e c;
          Incr.set_time inc e t;
          match
            ( Incr.solve inc,
              Lawler.minimum g ~cost:(fun e -> cost.(e)) ~time:(fun e -> time.(e)) )
          with
          | None, None -> true
          | Some (r1, c1), Some (r2, _) ->
            Cycle_ratio.ratio_compare r1 r2 = 0 && Cycles.is_elementary_cycle g c1
          | None, Some _ | Some _, None -> false)
        steps)

(* The witness contract, checked directly rather than through
   [Cycles]: each edge's destination is the next edge's source, the
   last edge returns to the first edge's source, no vertex repeats, and
   the cycle's own ratio is the returned one. *)
let witness_ok g ~cost ~time (r, cycle) =
  let seen = Array.make (Digraph.vertex_count g) false in
  let rec closed = function
    | [] -> false
    | [ e ] -> Digraph.edge_dst g e = Digraph.edge_src g (List.hd cycle) && fresh e
    | e :: (e' :: _ as rest) ->
      Digraph.edge_dst g e = Digraph.edge_src g e' && fresh e && closed rest
  and fresh e =
    let u = Digraph.edge_src g e in
    (not seen.(u)) && (seen.(u) <- true; true)
  in
  closed cycle
  && Cycle_ratio.ratio_compare (Cycle_ratio.cycle_ratio g ~cost ~time cycle) r = 0

(* Small random graphs (acyclic, multi-SCC, self-loops) with costs in
   [-3, 4], or tie-heavy strongly connected ones with weights in
   {1, 2}: each with its (cost, time) per edge, and a generator of new
   (cost, time) pairs from the same ranges. *)
let gen_weighted_graph =
  QCheck2.Gen.(
    let* n, edges, weights, (clo, chi), thi =
      oneof
        [
          (let* n, edges = gen_graph in
           let weights = Array.of_list (List.mapi (fun e _ -> (edge_weight e, edge_time e)) edges) in
           return (n, edges, weights, (-3, 4), 3));
          (let* n, edges, weights = gen_tie_heavy in
           return (n, edges, weights, (1, 2), 2));
        ]
    in
    return (n, edges, weights, pair (int_range clo chi) (int_range 1 thi)))

(* Each graph with 20 perturbations. *)
let gen_witness_case =
  QCheck2.Gen.(
    let* n, edges, weights, weight = gen_weighted_graph in
    let edge = pair (int_range 0 (max 0 (List.length edges - 1))) weight in
    let* steps = list_size (return 20) edge in
    return (n, edges, weights, steps))

let prop_witness_is_closed_elementary_walk =
  QCheck2.Test.make ~count:200
    ~name:"witness cycle is a closed elementary walk at the returned ratio" gen_witness_case
    (fun (n, edges, weights, steps) ->
      let g = graph_of n edges in
      let cost = Array.map fst weights and time = Array.map snd weights in
      let cost_f e = cost.(e) and time_f e = time.(e) in
      let ok = function
        | None -> true
        | Some w -> witness_ok g ~cost:cost_f ~time:time_f w
      in
      ok (Cycle_ratio.minimum g ~cost:cost_f ~time:time_f)
      && (edges = []
         ||
         let inc = Incr.create g ~cost:cost_f ~time:time_f in
         List.for_all
           (fun (e, (c, t)) ->
             cost.(e) <- c;
             time.(e) <- t;
             Incr.set_cost inc e c;
             Incr.set_time inc e t;
             ok (Incr.solve inc))
           steps))

(* The worklist differential: one evaluator driven through 200 changes
   of three kinds, each step checked against a fresh cold solve and
   Lawler's search.  A single-edge change re-walks one in-tree; a bulk
   change of up to a quarter of the edges (the flow re-deriving every
   channel after adopting a placement) can tip an iteration into the
   whole-graph fallback; a change to an edge of the previous witness
   reweights the critical cycle that most in-trees drain into. *)
type change =
  | Edge of int * (int * int)
  | Bulk of (int * (int * int)) list
  | On_witness of int * (int * int)

let gen_worklist_case =
  QCheck2.Gen.(
    let* n, edges, weights, weight = gen_weighted_graph in
    let m = List.length edges in
    let edge = pair (int_range 0 (max 0 (m - 1))) weight in
    let change =
      frequency
        [
          (3, map (fun (e, w) -> Edge (e, w)) edge);
          ( 1,
            let* k = int_range 1 (max 1 (m / 4)) in
            map (fun l -> Bulk l) (list_size (return k) edge) );
          (2, map (fun (i, w) -> On_witness (i, w)) (pair nat weight));
        ]
    in
    let* steps = list_size (return 200) change in
    return (n, edges, weights, steps))

let prop_worklist_differential =
  QCheck2.Test.make ~count:15
    ~name:"worklist mcr = cold howard = lawler over 200 mixed changes" gen_worklist_case
    (fun (n, edges, weights, steps) ->
      edges = []
      ||
      let g = graph_of n edges in
      let cost = Array.map fst weights and time = Array.map snd weights in
      let cost_f e = cost.(e) and time_f e = time.(e) in
      let inc = Incr.create g ~cost:cost_f ~time:time_f in
      let set (e, (c, t)) =
        cost.(e) <- c;
        time.(e) <- t;
        Incr.set_cost inc e c;
        Incr.set_time inc e t
      in
      let witness = ref [] in
      List.for_all
        (fun change ->
          (match change with
          | Edge (e, w) -> set (e, w)
          | Bulk l -> List.iter set l
          | On_witness (i, w) ->
            if !witness <> [] then set (List.nth !witness (i mod List.length !witness), w));
          let warm = Incr.solve inc in
          witness := (match warm with Some (_, c) -> c | None -> []);
          let same a b =
            match (a, b) with
            | None, None -> true
            | Some (r1, _), Some (r2, _) -> Cycle_ratio.ratio_compare r1 r2 = 0
            | _ -> false
          in
          same warm (Cycle_ratio.minimum g ~cost:cost_f ~time:time_f)
          && same warm (Lawler.minimum g ~cost:cost_f ~time:time_f)
          && match warm with None -> true | Some w -> witness_ok g ~cost:cost_f ~time:time_f w)
        steps)

(* One directed cycle of 100 000 vertices: the policy path of the first
   evaluation runs through every vertex, which pins the size of the
   solver's walk stack. *)
let test_incremental_long_cycle () =
  let n = 100_000 in
  let g = graph_of n (List.init n (fun i -> (i, (i + 1) mod n))) in
  let time = Array.init n (fun i -> 1 + (i mod 3)) in
  let cost _ = 1 and time_f e = time.(e) in
  (* sum of 1 + (i mod 3) over i < n *)
  let total = n + (3 * (n / 3)) + if n mod 3 = 2 then 1 else 0 in
  let check label t total =
    match Incr.solve t with
    | None -> Alcotest.failf "%s: expected a cycle" label
    | Some ((r, cycle) as w) ->
      checkb (label ^ ": closed-form ratio") true
        (Cycle_ratio.ratio_compare r (Cycle_ratio.make_ratio n total) = 0);
      checki (label ^ ": n edges") n (List.length cycle);
      checkb (label ^ ": witness") true (witness_ok g ~cost ~time:time_f w)
  in
  let t = Incr.create g ~cost ~time:time_f in
  check "cold" t total;
  time.(0) <- 5;
  Incr.set_time t 0 5;
  check "after set_time" t (total + 4);
  checki "two solves" 2 (Incr.solves t)

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

module Schedule = Wp_graph.Schedule

(* Deterministic initial markings for schedule properties: keeping
   tokens in {0,1} and times >= 1 bounds every cycle ratio by 1/1, so
   the schedule's rate is the unclamped minimum cycle ratio and the
   exact-rational comparison below is meaningful. *)
let edge_tokens e = e mod 2

let test_schedule_known_loop () =
  (* 2-process loop with one relay station on 0->1: rate 2/3. *)
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  let tokens _ = 1 and time e = if e = 0 then 2 else 1 in
  let t = Schedule.build g ~tokens ~time in
  checki "num" 2 t.Schedule.rate.Cycle_ratio.num;
  checki "den" 3 t.Schedule.rate.Cycle_ratio.den;
  checki "period" 3 t.Schedule.period;
  Array.iter
    (fun w ->
      checki "word length" 3 (Array.length w);
      checki "ones" 2 (Array.fold_left (fun a b -> if b then a + 1 else a) 0 w))
    t.Schedule.words;
  checkb "checker accepts" true (Schedule.check g ~tokens ~time t = Ok ());
  (* The rendering pins rate and period for humans and goldens alike. *)
  let r = Schedule.render g t in
  checkb "render mentions rate" true
    (String.length r >= 8 && String.sub r 0 8 = "rate 2/3")

let test_schedule_acyclic () =
  let g = graph_of 3 [ (0, 1); (1, 2) ] in
  let tokens _ = 1 and time _ = 1 in
  let t = Schedule.build g ~tokens ~time in
  checki "rate num" 1 t.Schedule.rate.Cycle_ratio.num;
  checki "rate den" 1 t.Schedule.rate.Cycle_ratio.den;
  checki "period" 1 t.Schedule.period;
  checkb "checker accepts" true (Schedule.check g ~tokens ~time t = Ok ())

let test_schedule_deadlocked_loop () =
  (* A token-free cycle can never fire: rate 0/1, all-zero words. *)
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  let tokens _ = 0 and time _ = 1 in
  let t = Schedule.build g ~tokens ~time in
  checki "rate num" 0 t.Schedule.rate.Cycle_ratio.num;
  checkb "vertex 0 never fires" false (Schedule.fires_at t 0 7);
  checki "no firings in 100 cycles" 0 (Schedule.firings_before t 0 100);
  checkb "checker accepts" true (Schedule.check g ~tokens ~time t = Ok ())

let test_schedule_balanced_examples () =
  checkb "10110 balanced" true (Schedule.is_balanced [| true; false; true; true; false |]);
  checkb "1100 unbalanced" false (Schedule.is_balanced [| true; true; false; false |])

let schedule_of (n, edges) =
  let g = graph_of n edges in
  (g, Schedule.build g ~tokens:edge_tokens ~time:edge_time)

let prop_schedule_words_balanced =
  QCheck2.Test.make ~count:300
    ~name:"schedule words are balanced with exactly rate.num ones" gen_sc_graph
    (fun (n, edges) ->
      let _, t = schedule_of (n, edges) in
      let ones w = Array.fold_left (fun a b -> if b then a + 1 else a) 0 w in
      Array.length t.Schedule.words = n
      && Array.for_all
           (fun w ->
             Array.length w = t.Schedule.period
             && ones w = t.Schedule.rate.Cycle_ratio.num
             && Schedule.is_balanced w)
           t.Schedule.words)

let prop_schedule_rate_is_mcr =
  QCheck2.Test.make ~count:300
    ~name:"schedule rate = minimum cycle ratio, exactly as a rational" gen_sc_graph
    (fun (n, edges) ->
      let g, t = schedule_of (n, edges) in
      match Lawler.minimum g ~cost:edge_tokens ~time:edge_time with
      | None -> false (* strongly connected => cyclic *)
      | Some (mcr, _) ->
        Cycle_ratio.ratio_compare t.Schedule.rate mcr = 0
        && List.for_all
             (fun v -> Schedule.word_rate t v = t.Schedule.rate)
             (Digraph.vertices g))

let prop_schedule_check_accepts =
  QCheck2.Test.make ~count:300 ~name:"schedule checker accepts every built schedule"
    gen_sc_graph
    (fun (n, edges) ->
      let g, t = schedule_of (n, edges) in
      Schedule.check g ~tokens:edge_tokens ~time:edge_time t = Ok ())

let prop_schedule_mutation_rejected =
  QCheck2.Test.make ~count:300 ~name:"schedule checker rejects any single flipped word bit"
    gen_sc_graph
    (fun (n, edges) ->
      let g, t = schedule_of (n, edges) in
      (* Flip one bit at a position derived from the instance, so the
         300 runs between them exercise many vertices and phases. *)
      let words = Array.map Array.copy t.Schedule.words in
      let v = List.length edges mod n in
      let i = (n + List.length edges) mod t.Schedule.period in
      words.(v).(i) <- not words.(v).(i);
      match Schedule.check g ~tokens:edge_tokens ~time:edge_time { t with Schedule.words } with
      | Error _ -> true
      | Ok () -> false)

(* ------------------------------------------------------------------ *)
(* Shortest_path                                                      *)
(* ------------------------------------------------------------------ *)

let test_bf_simple () =
  let g = graph_of 3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight e = [| 1.0; 1.0; 5.0 |].(e) in
  match Shortest_path.bellman_ford g ~weight ~src:0 with
  | Shortest_path.Distances (dist, pred) ->
    checkf "0->2 via 1" 2.0 dist.(2);
    checki "path length" 2 (List.length (Shortest_path.path_to g pred 2))
  | Shortest_path.Negative_cycle _ -> Alcotest.fail "no negative cycle here"

let test_bf_unreachable () =
  let g = graph_of 2 [] in
  match Shortest_path.bellman_ford g ~weight:(fun _ -> 1.0) ~src:0 with
  | Shortest_path.Distances (dist, _) -> checkb "unreachable" true (dist.(1) = infinity)
  | Shortest_path.Negative_cycle _ -> Alcotest.fail "no negative cycle here"

let test_bf_negative_cycle () =
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  let weight e = if e = 0 then 1.0 else -2.0 in
  match Shortest_path.potentials g ~weight with
  | Shortest_path.Negative_cycle cycle ->
    let total = List.fold_left (fun acc e -> acc +. weight e) 0.0 cycle in
    checkb "cycle weight negative" true (total < 0.0)
  | Shortest_path.Distances _ -> Alcotest.fail "expected negative cycle"

let prop_bf_agrees_with_dijkstra =
  QCheck2.Test.make ~count:200 ~name:"bellman-ford = dijkstra on non-negative weights" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let weight e = float_of_int (1 + (e mod 4)) in
      match Shortest_path.bellman_ford g ~weight ~src:0 with
      | Shortest_path.Negative_cycle _ -> false
      | Shortest_path.Distances (d1, _) ->
        let d2, _ = Shortest_path.dijkstra g ~weight ~src:0 in
        let same = ref true in
        for v = 0 to n - 1 do
          let a = d1.(v) and b = d2.(v) in
          if a = infinity || b = infinity then (if a <> b then same := false)
          else if abs_float (a -. b) > 1e-9 then same := false
        done;
        !same)

let prop_bf_detects_negative_cycles =
  QCheck2.Test.make ~count:300 ~name:"negative-cycle detection matches enumeration" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      let weight e = float_of_int (edge_weight e) in
      let exists_negative =
        List.exists
          (fun c -> List.fold_left (fun acc e -> acc + edge_weight e) 0 c < 0)
          (Cycles.elementary_cycles g)
      in
      match Shortest_path.potentials g ~weight with
      | Shortest_path.Negative_cycle cycle ->
        exists_negative
        && List.fold_left (fun acc e -> acc +. weight e) 0.0 cycle < 0.0
        && Cycles.is_elementary_cycle g cycle
      | Shortest_path.Distances _ -> not exists_negative)

let test_dijkstra_rejects_negative () =
  let g = graph_of 2 [ (0, 1) ] in
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Shortest_path.dijkstra: negative weight") (fun () ->
      ignore (Shortest_path.dijkstra g ~weight:(fun _ -> -1.0) ~src:0))

(* ------------------------------------------------------------------ *)
(* Topo                                                               *)
(* ------------------------------------------------------------------ *)

let test_topo_dag () =
  let g = graph_of 4 [ (3, 1); (1, 0); (3, 0); (0, 2) ] in
  match Topo.sort g with
  | Ok order ->
    let pos = Array.make 4 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    Digraph.iter_edges g (fun e ->
        checkb "edge goes forward" true (pos.(Digraph.edge_src g e) < pos.(Digraph.edge_dst g e)))
  | Error _ -> Alcotest.fail "dag expected"

let test_topo_cyclic () =
  let g = graph_of 2 [ (0, 1); (1, 0) ] in
  checkb "cycle detected" false (Topo.is_dag g);
  match Topo.sort g with
  | Error comp -> checki "component size" 2 (List.length comp)
  | Ok _ -> Alcotest.fail "cycle expected"

let prop_topo_iff_no_cycles =
  QCheck2.Test.make ~count:300 ~name:"is_dag iff no elementary cycles" gen_graph
    (fun (n, edges) ->
      let g = graph_of n edges in
      Topo.is_dag g = (Cycles.elementary_cycles g = []))

(* ------------------------------------------------------------------ *)
(* Dot                                                                *)
(* ------------------------------------------------------------------ *)

let test_dot_output () =
  let g = graph_of 2 [ (0, 1) ] in
  let s = Dot.to_string ~name:"fig1" g in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec scan i = i + n <= h && (String.sub s i n = needle || scan (i + 1)) in
    scan 0
  in
  checkb "digraph header" true (contains "digraph \"fig1\"");
  checkb "edge" true (contains "n0 -> n1");
  checkb "label" true (contains "v0")

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_scc_partition;
        prop_scc_mutual_reachability;
        prop_cycles_match_brute_force;
        prop_cycles_all_elementary;
        prop_karp_matches_enumeration;
        prop_ratio_matches_enumeration;
        prop_howard_matches_lawler;
        prop_howard_matches_lawler_tie_heavy;
        prop_incremental_matches_scratch;
        prop_witness_is_closed_elementary_walk;
        prop_worklist_differential;
        prop_howard_matches_karp_sc;
        prop_howard_matches_karp_max_sc;
        prop_ratio_max_min_duality;
        prop_schedule_words_balanced;
        prop_schedule_rate_is_mcr;
        prop_schedule_check_accepts;
        prop_schedule_mutation_rejected;
        prop_bf_agrees_with_dijkstra;
        prop_bf_detects_negative_cycles;
        prop_topo_iff_no_cycles;
      ]
  in
  Alcotest.run "wp_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "parallel edges" `Quick test_digraph_parallel_edges;
          Alcotest.test_case "invalid endpoint" `Quick test_digraph_invalid_endpoint;
          Alcotest.test_case "order preserved" `Quick test_digraph_order_preserved;
        ] );
      ( "scc",
        [
          Alcotest.test_case "two cycles and bridge" `Quick test_scc_two_cycles_bridge;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop_not_trivial;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "triangle" `Quick test_cycles_triangle;
          Alcotest.test_case "complete K3" `Quick test_cycles_complete_k3;
          Alcotest.test_case "complete K4" `Quick test_cycles_complete_k4;
          Alcotest.test_case "self loop" `Quick test_cycles_self_loop;
          Alcotest.test_case "parallel edges" `Quick test_cycles_parallel_edges;
          Alcotest.test_case "dag" `Quick test_cycles_dag_empty;
          Alcotest.test_case "bound" `Quick test_cycles_bound;
        ] );
      ( "karp",
        [
          Alcotest.test_case "simple" `Quick test_karp_simple;
          Alcotest.test_case "acyclic" `Quick test_karp_acyclic;
        ] );
      ( "cycle_ratio",
        [
          Alcotest.test_case "make_ratio" `Quick test_ratio_make;
          Alcotest.test_case "known loop" `Quick test_ratio_known;
          Alcotest.test_case "worst loop wins" `Quick test_ratio_picks_worst_loop;
          Alcotest.test_case "acyclic" `Quick test_ratio_acyclic;
          Alcotest.test_case "zero-time rejected" `Quick test_ratio_zero_time_cycle_rejected;
        ] );
      ( "howard",
        [
          Alcotest.test_case "known loop" `Quick test_howard_known;
          Alcotest.test_case "acyclic" `Quick test_howard_acyclic;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "acyclic" `Quick test_incremental_acyclic;
          Alcotest.test_case "memoisation and perturbation" `Quick test_incremental_memoised;
          Alcotest.test_case "100k-vertex cycle" `Quick test_incremental_long_cycle;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "known loop" `Quick test_schedule_known_loop;
          Alcotest.test_case "acyclic" `Quick test_schedule_acyclic;
          Alcotest.test_case "deadlocked loop" `Quick test_schedule_deadlocked_loop;
          Alcotest.test_case "balance examples" `Quick test_schedule_balanced_examples;
        ] );
      ( "shortest_path",
        [
          Alcotest.test_case "simple" `Quick test_bf_simple;
          Alcotest.test_case "unreachable" `Quick test_bf_unreachable;
          Alcotest.test_case "negative cycle" `Quick test_bf_negative_cycle;
          Alcotest.test_case "dijkstra negative rejected" `Quick test_dijkstra_rejects_negative;
        ] );
      ( "topo",
        [
          Alcotest.test_case "dag order" `Quick test_topo_dag;
          Alcotest.test_case "cyclic" `Quick test_topo_cyclic;
        ] );
      ("dot", [ Alcotest.test_case "output" `Quick test_dot_output ]);
      ("properties", props);
    ]
