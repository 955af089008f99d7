type ratio = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make_ratio num den =
  if den = 0 then invalid_arg "Cycle_ratio.make_ratio: zero denominator";
  let num, den = if den < 0 then (-num, -den) else (num, den) in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let ratio_to_float r = float_of_int r.num /. float_of_int r.den

(* Cross-multiplication; operands stay small in this library. *)
let ratio_compare a b = compare (a.num * b.den) (b.num * a.den)

let ratio_pp ppf r =
  if r.den = 1 then Format.fprintf ppf "%d" r.num
  else Format.fprintf ppf "%d/%d" r.num r.den

let sum_over cycle f = List.fold_left (fun acc e -> acc + f e) 0 cycle

let cycle_ratio _g ~cost ~time cycle =
  make_ratio (sum_over cycle cost) (sum_over cycle time)

(* ------------------------------------------------------------------ *)
(* Policy iteration                                                   *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* Policy iteration (Howard's scheme) over a fixed topology with
     mutable edge weights.  Each vertex holds one chosen outgoing edge
     (the policy); evaluation finds the policy graph's cycles, their
     ratios and the vertex potentials, improvement switches any edge
     that beats the Bellman equation, and the process converges to the
     optimum.  The policy survives weight perturbations: edges chosen at
     [create] time stay inside the vertex's SCC, and SCCs depend only on
     the topology, so the previous optimum is always a proper warm
     start.  After a local perturbation the warm policy is usually
     optimal or one improvement sweep away, which is where the speedup
     over a cold solve comes from. *)

  let epsilon = 1e-9

  type t = {
    g : Digraph.t;
    cost : int array;           (* edge id -> cost *)
    time : int array;           (* edge id -> time, >= 0 *)
    comp : int array;           (* SCC ids, fixed: topology never changes *)
    policy : int array;         (* vertex -> chosen out-edge, -1 if none *)
    (* Scratch for policy evaluation, reused across solves. *)
    lambda : float array;
    potential : float array;
    cycle_repr : Digraph.edge list array;
    state : int array;          (* 0 white / 1 gray / 2 done *)
    mutable dirty : bool;
    mutable cached : (ratio * Digraph.edge list) option;
    mutable solves : int;       (* policy-iteration runs (cache misses) *)
  }

  let create g ~cost ~time =
    let n = Digraph.vertex_count g in
    let m = Digraph.edge_count g in
    let times = Array.init m time in
    Array.iter
      (fun t -> if t < 0 then invalid_arg "Cycle_ratio.Incremental.create: negative time")
      times;
    let comp = Scc.component_ids g in
    (* Initial policy: any out-edge that stays inside the vertex's SCC,
       so a policy path can always close a cycle; -1 if none exists. *)
    let policy = Array.make (max n 1) (-1) in
    for v = 0 to n - 1 do
      policy.(v) <-
        (match
           List.find_opt
             (fun e -> comp.(Digraph.edge_dst g e) = comp.(v))
             (Digraph.out_edges g v)
         with
        | Some e -> e
        | None -> -1)
    done;
    {
      g;
      cost = Array.init m cost;
      time = times;
      comp;
      policy;
      lambda = Array.make (max n 1) infinity;
      potential = Array.make (max n 1) 0.0;
      cycle_repr = Array.make (max n 1) [];
      state = Array.make (max n 1) 0;
      dirty = true;
      cached = None;
      solves = 0;
    }

  let cost t e = t.cost.(e)
  let time t e = t.time.(e)

  let set_cost t e c =
    if t.cost.(e) <> c then begin
      t.cost.(e) <- c;
      t.dirty <- true
    end

  let set_time t e x =
    if x < 0 then invalid_arg "Cycle_ratio.Incremental.set_time: negative time";
    if t.time.(e) <> x then begin
      t.time.(e) <- x;
      t.dirty <- true
    end

  let solves t = t.solves

  (* A cycle of zero total time exists iff the subgraph of zero-time
     edges contains a cycle; its ratio would be infinite. *)
  let reject_zero_time_cycles t =
    if Array.exists (fun x -> x = 0) t.time then begin
      let g = t.g in
      let zero_sub = Digraph.create () in
      List.iter
        (fun v -> ignore (Digraph.add_vertex zero_sub ~label:(Digraph.vertex_label g v)))
        (Digraph.vertices g);
      Digraph.iter_edges g (fun e ->
          if t.time.(e) = 0 then
            ignore
              (Digraph.add_edge zero_sub ~src:(Digraph.edge_src g e)
                 ~dst:(Digraph.edge_dst g e) ~label:""));
      if
        List.exists
          (fun comp -> not (Scc.is_trivial zero_sub comp))
          (Scc.components zero_sub)
      then invalid_arg "Cycle_ratio: cycle with zero total time"
    end

  (* Evaluate the current policy: per-vertex cycle ratio [lambda],
     potential, and representative policy cycle.  A policy cycle's
     potentials are anchored at the vertex that closed the walk, which
     keeps the potential it had after the previous evaluation (Cochet-
     Terrasson et al., 1998).  A cycle that survives an improvement
     sweep therefore keeps its potentials, so the tie-breaking
     comparisons in [improve] are monotone and policy iteration cannot
     cycle between equally good policies. *)
  let evaluate t =
    let g = t.g in
    let n = Digraph.vertex_count g in
    Array.fill t.state 0 (Array.length t.state) 0;
    let rec walk v path =
      match t.state.(v) with
      | 2 -> ()
      | 1 ->
        (* Closed a cycle: [path] holds edges newest-first; the cycle is
           the suffix of [path] from v's edge. *)
        let rec cut acc = function
          | [] -> acc
          | e :: rest ->
            let acc = e :: acc in
            if Digraph.edge_src g e = v then acc else cut acc rest
        in
        let cycle = cut [] path in
        let total_cost = List.fold_left (fun a e -> a + t.cost.(e)) 0 cycle in
        let total_time = List.fold_left (fun a e -> a + t.time.(e)) 0 cycle in
        let lam = float_of_int total_cost /. float_of_int total_time in
        t.lambda.(v) <- lam;
        t.cycle_repr.(v) <- cycle;
        t.state.(v) <- 2;
        (* Propagate backwards from the anchor along the cycle:
           d(u) = w(e) - lam*t(e) + d(dst e), processing the edges
           cycle-end first so each destination is already known. *)
        let rec assign = function
          | [] -> ()
          | e :: rest ->
            let u = Digraph.edge_src g e and x = Digraph.edge_dst g e in
            if t.state.(u) <> 2 then begin
              assign rest;
              t.lambda.(u) <- lam;
              t.potential.(u) <-
                float_of_int t.cost.(e)
                -. (lam *. float_of_int t.time.(e))
                +. t.potential.(x);
              t.cycle_repr.(u) <- cycle;
              t.state.(u) <- 2
            end
            else assign rest
        in
        assign cycle
      | _ ->
        t.state.(v) <- 1;
        (match t.policy.(v) with
        | -1 ->
          (* Dead end: no cycle reachable through the policy. *)
          t.state.(v) <- 2;
          t.lambda.(v) <- infinity
        | e ->
          let x = Digraph.edge_dst g e in
          walk x (e :: path);
          if t.state.(v) <> 2 then begin
            (* Tail vertex: inherits the cycle it reaches. *)
            t.lambda.(v) <- t.lambda.(x);
            t.potential.(v) <-
              float_of_int t.cost.(e)
              -. (t.lambda.(x) *. float_of_int t.time.(e))
              +. t.potential.(x);
            t.cycle_repr.(v) <- t.cycle_repr.(x);
            t.state.(v) <- 2
          end)
    in
    for v = 0 to n - 1 do
      walk v []
    done

  (* One improvement sweep: switch every vertex whose out-edge reaches a
     strictly better cycle, or an equally good one at a strictly lower
     potential.  Returns whether the policy changed. *)
  let improve t =
    let g = t.g in
    let improved = ref false in
    Digraph.iter_edges g (fun e ->
        let u = Digraph.edge_src g e and x = Digraph.edge_dst g e in
        if t.comp.(u) = t.comp.(x) && t.lambda.(x) < infinity then begin
          if t.lambda.(x) < t.lambda.(u) -. epsilon then begin
            t.policy.(u) <- e;
            improved := true
          end
          else if
            abs_float (t.lambda.(x) -. t.lambda.(u)) <= epsilon
            && float_of_int t.cost.(e)
               -. (t.lambda.(u) *. float_of_int t.time.(e))
               +. t.potential.(x)
               < t.potential.(u) -. epsilon
          then begin
            t.policy.(u) <- e;
            improved := true
          end
        end);
    !improved

  let solve t =
    if not t.dirty then t.cached
    else begin
      let g = t.g in
      let n = Digraph.vertex_count g in
      let result =
        if n = 0 || Array.for_all (fun e -> e = -1) t.policy then None
        else begin
          t.solves <- t.solves + 1;
          Array.fill t.potential 0 (Array.length t.potential) 0.0;
          let max_iterations = (n * Digraph.edge_count g) + 16 in
          let rec iterate k =
            evaluate t;
            if improve t then begin
              if k >= max_iterations then
                failwith
                  (Printf.sprintf
                     "Cycle_ratio: policy iteration did not converge in %d iterations"
                     max_iterations);
              iterate (k + 1)
            end
          in
          iterate 0;
          let best = ref (-1) in
          for v = 0 to n - 1 do
            if t.lambda.(v) < infinity
               && (!best < 0 || t.lambda.(v) < t.lambda.(!best))
            then best := v
          done;
          if !best < 0 then None
          else begin
            let cycle = t.cycle_repr.(!best) in
            Some
              ( cycle_ratio g
                  ~cost:(fun e -> t.cost.(e))
                  ~time:(fun e -> t.time.(e))
                  cycle,
                cycle )
          end
        end
      in
      t.dirty <- false;
      t.cached <- result;
      result
    end
end

let minimum g ~cost ~time =
  let t = Incremental.create g ~cost ~time in
  Incremental.reject_zero_time_cycles t;
  Incremental.solve t

let one = make_ratio 1 1

let throughput_bound = function
  | None -> (one, [])
  | Some (r, cycle) -> ((if ratio_compare r one > 0 then one else r), cycle)
