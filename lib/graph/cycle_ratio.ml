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
    src : int array;            (* edge id -> source vertex *)
    dst : int array;            (* edge id -> destination vertex *)
    cost : int array;           (* edge id -> cost *)
    time : int array;           (* edge id -> time, >= 0 *)
    comp : int array;           (* SCC ids, fixed: topology never changes *)
    policy : int array;         (* vertex -> chosen out-edge, -1 if none *)
    (* Scratch for policy evaluation, reused across solves. *)
    lambda : float array;
    potential : float array;
    anchor : int array;         (* vertex -> vertex that closed its policy cycle *)
    state : int array;          (* 0 white / 1 gray / 2 done *)
    stack : int array;          (* the policy path being walked *)
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
    let src = Array.init m (Digraph.edge_src g) in
    let dst = Array.init m (Digraph.edge_dst g) in
    let comp = Scc.component_ids g in
    (* Initial policy: the lowest-id out-edge that stays inside the
       vertex's SCC, so a policy path can always close a cycle; -1 if
       none exists. *)
    let policy = Array.make (max n 1) (-1) in
    for e = m - 1 downto 0 do
      if comp.(dst.(e)) = comp.(src.(e)) then policy.(src.(e)) <- e
    done;
    {
      g;
      src;
      dst;
      cost = Array.init m cost;
      time = times;
      comp;
      policy;
      lambda = Array.make (max n 1) infinity;
      potential = Array.make (max n 1) 0.0;
      anchor = Array.make (max n 1) (-1);
      state = Array.make (max n 1) 0;
      stack = Array.make (max n 1) 0;
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
     potential, and the [anchor] of the policy cycle each vertex
     reaches.  A policy cycle's potentials are anchored at the vertex
     that closed the walk, which keeps the potential it had after the
     previous evaluation (Cochet-Terrasson et al., 1998).  A cycle that
     survives an improvement sweep therefore keeps its potentials, so
     the tie-breaking comparisons in [improve] are monotone and policy
     iteration cannot cycle between equally good policies.

     Each walk follows the policy from a white vertex, graying the path
     on [stack], until it dead-ends, meets a finished vertex, or closes
     a cycle at a gray one.  Unwinding the stack newest-first then sets
     every vertex from its successor, d(u) = w(e) - lam*t(e) + d(dst e):
     the cycle's vertices from the anchor backwards, then the tail. *)
  let evaluate t =
    let n = Digraph.vertex_count t.g in
    let state = t.state and stack = t.stack and policy = t.policy in
    Array.fill state 0 (Array.length state) 0;
    for v0 = 0 to n - 1 do
      if state.(v0) = 0 then begin
        let top = ref 0 and v = ref v0 and walking = ref true in
        while !walking do
          let u = !v in
          state.(u) <- 1;
          stack.(!top) <- u;
          incr top;
          let e = policy.(u) in
          if e < 0 then begin
            (* Dead end: no cycle reachable through the policy. *)
            state.(u) <- 2;
            t.lambda.(u) <- infinity;
            walking := false
          end
          else begin
            let x = t.dst.(e) in
            match state.(x) with
            | 0 -> v := x
            | 1 ->
              (* [e] closed a cycle through [x], which becomes its
                 anchor. *)
              let total_cost = ref t.cost.(e) and total_time = ref t.time.(e) in
              let w = ref x in
              while !w <> u do
                let e = policy.(!w) in
                total_cost := !total_cost + t.cost.(e);
                total_time := !total_time + t.time.(e);
                w := t.dst.(e)
              done;
              t.lambda.(x) <- float_of_int !total_cost /. float_of_int !total_time;
              t.anchor.(x) <- x;
              state.(x) <- 2;
              walking := false
            | _ -> walking := false
          end
        done;
        for i = !top - 1 downto 0 do
          let u = stack.(i) in
          if state.(u) <> 2 then begin
            let e = policy.(u) in
            let x = t.dst.(e) in
            t.lambda.(u) <- t.lambda.(x);
            t.potential.(u) <-
              float_of_int t.cost.(e)
              -. (t.lambda.(x) *. float_of_int t.time.(e))
              +. t.potential.(x);
            t.anchor.(u) <- t.anchor.(x);
            state.(u) <- 2
          end
        done
      end
    done

  (* One improvement sweep, in edge-id order: switch every vertex whose
     out-edge reaches a strictly better cycle, or an equally good one at
     a strictly lower potential (the last such edge wins).  Every index
     comes from arrays built at [create], hence the unchecked loads.
     Returns whether the policy changed. *)
  let improve t =
    let lambda = t.lambda and potential = t.potential in
    let improved = ref false in
    for e = 0 to Array.length t.src - 1 do
      let u = Array.unsafe_get t.src e and x = Array.unsafe_get t.dst e in
      let lu = Array.unsafe_get lambda u and lx = Array.unsafe_get lambda x in
      if
        Array.unsafe_get t.comp u = Array.unsafe_get t.comp x
        && lx < infinity
        && (lx < lu -. epsilon
           || abs_float (lx -. lu) <= epsilon
              && float_of_int (Array.unsafe_get t.cost e)
                 -. (lu *. float_of_int (Array.unsafe_get t.time e))
                 +. Array.unsafe_get potential x
                 < Array.unsafe_get potential u -. epsilon)
      then begin
        Array.unsafe_set t.policy u e;
        improved := true
      end
    done;
    !improved

  (* The policy cycle through [a], in policy order from [a]'s edge. *)
  let policy_cycle t a =
    let rec go v acc =
      let e = t.policy.(v) in
      let x = t.dst.(e) in
      if x = a then List.rev (e :: acc) else go x (e :: acc)
    in
    go a []

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
            let cycle = policy_cycle t t.anchor.(!best) in
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
