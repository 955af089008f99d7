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
     (the policy); evaluation gives every vertex the ratio of the policy
     cycle it reaches and a potential, improvement switches any edge
     that beats the Bellman equation, and the process converges to the
     optimum.  Policy edges stay inside their SCC, and SCCs depend only
     on the topology, so a policy stays proper under any weights and the
     previous optimum is always a warm start.

     An iteration recomputes only what can have changed.  A vertex's
     value depends only on its policy path, so only the policy in-trees
     of the vertices whose policy edge switched (or was reweighted) are
     re-walked.  An edge's improvement test depends only on its weights
     and its endpoints' values, so only the out-edges of re-walked
     vertices, of their in-neighbours and of reweighted edges' sources
     are re-tested.  Every other vertex keeps its value and, having had
     no improving edge, still has none.  When the in-trees cover more
     than a quarter of the graph, the iteration re-walks and re-tests
     everything instead, which costs less there. *)

  let epsilon = 1e-9

  type t = {
    g : Digraph.t;
    n : int;
    rep : int array;            (* vertex -> lowest-id vertex of its SCC *)
    slot : int array;           (* edge id -> slot *)
    edge : int array;           (* slot -> edge id *)
    (* Slots [out_start.(u), out_start.(u + 1)) are u's out-edges inside
       its SCC, in edge-id order.  Edges between SCCs, which no policy
       can use, take the slots from [out_start.(n)] on. *)
    out_start : int array;
    dst : int array;            (* slot -> destination vertex *)
    cost : int array;           (* slot -> cost *)
    time : int array;           (* slot -> time, >= 0 *)
    (* Entries [in_start.(x), in_start.(x + 1)) of [in_src] are the
       sources of the in-SCC edges into [x]. *)
    in_start : int array;
    in_src : int array;
    policy : int array;         (* vertex -> slot of its chosen out-edge, -1 if none *)
    lambda : float array;
    potential : float array;
    state : int array;          (* 0 white / 1 gray / 2 evaluated *)
    stack : int array;          (* the policy path being walked *)
    (* Worklists; each holds a vertex at most once. *)
    stale : int array;          (* vertices to re-walk, then re-test *)
    switched : int array;       (* vertices whose policy edge switched or was reweighted *)
    mutable switched_count : int;
    touched : int array;        (* sources of in-SCC edges reweighted since the last solve *)
    mutable touched_count : int;
    (* Per vertex: 1 once listed in [touched], 2 once also in [switched]
       (its policy edge was reweighted). *)
    mark : Bytes.t;
    tested : int array;         (* vertex -> [stamp] when last re-tested or marked *)
    mutable stamp : int;
    mutable warm : bool;        (* values are the last solve's, for [policy] *)
    mutable dirty : bool;
    mutable cached : (ratio * Digraph.edge list) option;
    mutable solves : int;       (* policy-iteration runs (cache misses) *)
  }

  let create g ~cost ~time =
    let n = Digraph.vertex_count g in
    let m = Digraph.edge_count g in
    let nv = max n 1 in
    let rep = Array.make nv 0 in
    List.iter
      (fun c ->
        let r = List.fold_left Int.min max_int c in
        List.iter (fun v -> rep.(v) <- r) c)
      (Scc.components g);
    (* Counting sorts of the in-SCC edges by source (the slots) and by
       destination (the in-lists), both stable in edge id.  The first
       pass counts each vertex's edges into [start.(v)] and parks each
       edge's destination in [edge.(e)] and its source (-1 between
       SCCs) in [slot.(e)]; prefix sums make [start.(v)] the end of v's
       range; the second pass, in decreasing edge id, fills each range
       from its end, which leaves [start.(v)] at its beginning. *)
    let out_start = Array.make (n + 1) 0 and in_start = Array.make (n + 1) 0 in
    let slot = Array.make m 0 and edge = Array.make m 0 in
    for e = 0 to m - 1 do
      let u = Digraph.edge_src g e and x = Digraph.edge_dst g e in
      edge.(e) <- x;
      if rep.(u) = rep.(x) then begin
        slot.(e) <- u;
        out_start.(u) <- out_start.(u) + 1;
        in_start.(x) <- in_start.(x) + 1
      end
      else slot.(e) <- -1
    done;
    for v = 1 to n do
      out_start.(v) <- out_start.(v) + out_start.(v - 1);
      in_start.(v) <- in_start.(v) + in_start.(v - 1)
    done;
    let inner = out_start.(n) in
    let dst = Array.make m 0 and costs = Array.make m 0 and times = Array.make m 0 in
    let in_src = Array.make inner 0 in
    let cross = ref m in
    for e = m - 1 downto 0 do
      let u = slot.(e) and x = edge.(e) in
      let s =
        if u >= 0 then begin
          out_start.(u) <- out_start.(u) - 1;
          in_start.(x) <- in_start.(x) - 1;
          in_src.(in_start.(x)) <- u;
          out_start.(u)
        end
        else begin
          decr cross;
          !cross
        end
      in
      let w = time e in
      if w < 0 then invalid_arg "Cycle_ratio.Incremental.create: negative time";
      slot.(e) <- s;
      dst.(s) <- x;
      costs.(s) <- cost e;
      times.(s) <- w
    done;
    for e = 0 to m - 1 do
      edge.(slot.(e)) <- e
    done;
    (* Initial policy: the lowest-id out-edge that stays inside the
       vertex's SCC, so a policy path can always close a cycle. *)
    let policy = Array.make nv (-1) in
    for u = 0 to n - 1 do
      if out_start.(u) < out_start.(u + 1) then policy.(u) <- out_start.(u)
    done;
    {
      g;
      n;
      rep;
      slot;
      edge;
      out_start;
      dst;
      cost = costs;
      time = times;
      in_start;
      in_src;
      policy;
      lambda = Array.make nv infinity;
      potential = Array.make nv 0.0;
      state = Array.make nv 0;
      stack = Array.make nv 0;
      stale = Array.make nv 0;
      switched = Array.make nv 0;
      switched_count = 0;
      touched = Array.make nv 0;
      touched_count = 0;
      mark = Bytes.make nv '\000';
      tested = Array.make nv 0;
      stamp = 0;
      warm = false;
      dirty = true;
      cached = None;
      solves = 0;
    }

  let cost t e = t.cost.(t.slot.(e))
  let time t e = t.time.(t.slot.(e))

  (* Record a reweighted in-SCC edge for the next warm solve: list its
     source in [touched] and, when it is the source's policy edge, in
     [switched] too. *)
  let reweigh t e =
    t.dirty <- true;
    let s = t.slot.(e) in
    if s < t.out_start.(t.n) then begin
      let u = Digraph.edge_src t.g e in
      if Bytes.get t.mark u = '\000' then begin
        Bytes.set t.mark u '\001';
        t.touched.(t.touched_count) <- u;
        t.touched_count <- t.touched_count + 1
      end;
      if t.policy.(u) = s && Bytes.get t.mark u = '\001' then begin
        Bytes.set t.mark u '\002';
        t.switched.(t.switched_count) <- u;
        t.switched_count <- t.switched_count + 1
      end
    end

  let set_cost t e c =
    let s = t.slot.(e) in
    if t.cost.(s) <> c then begin
      t.cost.(s) <- c;
      reweigh t e
    end

  let set_time t e x =
    if x < 0 then invalid_arg "Cycle_ratio.Incremental.set_time: negative time";
    let s = t.slot.(e) in
    if t.time.(s) <> x then begin
      t.time.(s) <- x;
      reweigh t e
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
          if time t e = 0 then
            ignore
              (Digraph.add_edge zero_sub ~src:(Digraph.edge_src g e)
                 ~dst:(Digraph.edge_dst g e) ~label:""));
      if
        List.exists
          (fun comp -> not (Scc.is_trivial zero_sub comp))
          (Scc.components zero_sub)
      then invalid_arg "Cycle_ratio: cycle with zero total time"
    end

  (* Evaluate the policy from white vertex [v0]: set the ratio [lambda]
     of the policy cycle each vertex on the path reaches, and its
     potential.  A policy cycle's potentials are anchored at the vertex
     that closed the walk, which keeps the potential it had before
     (Cochet-Terrasson et al., 1998).  A cycle that survives an
     improvement therefore keeps its potentials, so the tie-breaking
     comparisons in [improve] are monotone and policy iteration cannot
     cycle between equally good policies.

     The walk follows the policy from [v0], graying the path on
     [stack], until it dead-ends, meets an evaluated vertex, or closes a
     cycle at a gray one.  Unwinding the stack newest-first then sets
     every vertex from its successor, d(u) = w(e) - lam*t(e) + d(dst e):
     the cycle's vertices from the anchor backwards, then the tail.
     Vertices and slots come from arrays built at [create], and a path
     holds each vertex once, so the loads are unchecked. *)
  let walk t v0 =
    let state = t.state and stack = t.stack and policy = t.policy in
    let dst = t.dst and cost = t.cost and time = t.time in
    let lambda = t.lambda and potential = t.potential in
    let top = ref 0 and v = ref v0 and walking = ref true in
    while !walking do
      let u = !v in
      Array.unsafe_set state u 1;
      Array.unsafe_set stack !top u;
      incr top;
      let s = Array.unsafe_get policy u in
      if s < 0 then begin
        (* Dead end: no cycle reachable through the policy. *)
        Array.unsafe_set state u 2;
        Array.unsafe_set lambda u infinity;
        walking := false
      end
      else begin
        let x = Array.unsafe_get dst s in
        match Array.unsafe_get state x with
        | 0 -> v := x
        | 1 ->
          (* [s] closed a cycle through [x], which becomes its anchor. *)
          let total_cost = ref (Array.unsafe_get cost s) in
          let total_time = ref (Array.unsafe_get time s) in
          let w = ref x in
          while !w <> u do
            let s = Array.unsafe_get policy !w in
            total_cost := !total_cost + Array.unsafe_get cost s;
            total_time := !total_time + Array.unsafe_get time s;
            w := Array.unsafe_get dst s
          done;
          Array.unsafe_set lambda x (float_of_int !total_cost /. float_of_int !total_time);
          Array.unsafe_set state x 2;
          walking := false
        | _ -> walking := false
      end
    done;
    for i = !top - 1 downto 0 do
      let u = Array.unsafe_get stack i in
      if Array.unsafe_get state u <> 2 then begin
        let s = Array.unsafe_get policy u in
        let x = Array.unsafe_get dst s in
        let lx = Array.unsafe_get lambda x in
        Array.unsafe_set lambda u lx;
        Array.unsafe_set potential u
          (float_of_int (Array.unsafe_get cost s)
          -. (lx *. float_of_int (Array.unsafe_get time s))
          +. Array.unsafe_get potential x);
        Array.unsafe_set state u 2
      end
    done

  (* Switch [u] to its last out-edge, in edge-id order, that reaches a
     strictly better cycle, or an equally good one at a strictly lower
     potential; list [u] in [switched] if it has one.  Every index comes
     from arrays built at [create], hence the unchecked loads. *)
  let improve t u =
    let lambda = t.lambda and potential = t.potential in
    let lu = Array.unsafe_get lambda u and pu = Array.unsafe_get potential u in
    let first = Array.unsafe_get t.out_start u in
    let s = ref (Array.unsafe_get t.out_start (u + 1) - 1) in
    while !s >= first do
      let x = Array.unsafe_get t.dst !s in
      let lx = Array.unsafe_get lambda x in
      if
        lx < lu -. epsilon
        || abs_float (lx -. lu) <= epsilon
           && float_of_int (Array.unsafe_get t.cost !s)
              -. (lu *. float_of_int (Array.unsafe_get t.time !s))
              +. Array.unsafe_get potential x
              < pu -. epsilon
      then begin
        Array.unsafe_set t.policy u !s;
        Array.unsafe_set t.switched t.switched_count u;
        t.switched_count <- t.switched_count + 1;
        s := -1
      end
      else decr s
    done

  (* A whole-graph iteration: evaluate from every vertex in id order,
     then test every vertex. *)
  let whole t =
    Array.fill t.state 0 t.n 0;
    for v = 0 to t.n - 1 do
      if t.state.(v) = 0 then walk t v
    done;
    t.switched_count <- 0;
    for u = 0 to t.n - 1 do
      improve t u
    done

  (* Restore the max-heap property of [a.(0 .. stop - 1)] below [root]. *)
  let rec sift (a : int array) root stop =
    let child = (2 * root) + 1 in
    if child < stop then begin
      let child = if child + 1 < stop && a.(child) < a.(child + 1) then child + 1 else child in
      if a.(root) < a.(child) then begin
        let x = a.(root) in
        a.(root) <- a.(child);
        a.(child) <- x;
        sift a child stop
      end
    end

  (* Heapsort [a.(0 .. k - 1)] ascending, in place. *)
  let sort_prefix (a : int array) k =
    for root = (k / 2) - 1 downto 0 do
      sift a root k
    done;
    for stop = k - 1 downto 1 do
      let x = a.(0) in
      a.(0) <- a.(stop);
      a.(stop) <- x;
      sift a 0 stop
    done

  (* Gather into [stale] the policy in-trees of the [switched] vertices,
     marking them white; -1 once they exceed a quarter of the graph.  A
     vertex is in [x]'s in-tree when its policy edge leads to [x]. *)
  let collect_stale t =
    let limit = t.n / 4 in
    let k = ref t.switched_count in
    if !k <= limit then begin
      for i = 0 to !k - 1 do
        let r = t.switched.(i) in
        t.state.(r) <- 0;
        t.stale.(i) <- r
      done;
      let head = ref 0 in
      while !head < !k && !k <= limit do
        let x = t.stale.(!head) in
        incr head;
        for j = t.in_start.(x) to t.in_start.(x + 1) - 1 do
          let u = t.in_src.(j) in
          if t.state.(u) = 2 && t.dst.(t.policy.(u)) = x then begin
            t.state.(u) <- 0;
            t.stale.(!k) <- u;
            incr k
          end
        done
      done
    end;
    if !k > limit then -1 else !k

  let retest t u =
    if t.tested.(u) <> t.stamp then begin
      t.tested.(u) <- t.stamp;
      improve t u
    end

  (* One iteration after the [switched] vertices changed policy edge:
     re-walk their in-trees in increasing vertex id (so each new cycle
     is closed, and anchored, where a whole-graph evaluation closes it),
     then re-test the re-walked vertices, their in-neighbours and, with
     [touched], the sources of the reweighted edges.  Returns true when
     it ran on the whole graph instead. *)
  let step t ~touched =
    let k = collect_stale t in
    if k < 0 then begin
      whole t;
      true
    end
    else begin
      t.switched_count <- 0;
      sort_prefix t.stale k;
      for i = 0 to k - 1 do
        let v = t.stale.(i) in
        if t.state.(v) = 0 then walk t v
      done;
      t.stamp <- t.stamp + 1;
      for i = 0 to k - 1 do
        let x = t.stale.(i) in
        retest t x;
        for j = t.in_start.(x) to t.in_start.(x + 1) - 1 do
          retest t t.in_src.(j)
        done
      done;
      if touched then
        for i = 0 to t.touched_count - 1 do
          retest t t.touched.(i)
        done;
      false
    end

  (* Subtract from each SCC's potentials the potential of its lowest-id
     vertex, which the descending order shifts last.  Anchoring lets
     the potentials of warm solves drift, each SCC by its own offset; a
     shift that is uniform per SCC changes no comparison. *)
  let level t =
    for v = t.n - 1 downto 0 do
      t.potential.(v) <- t.potential.(v) -. t.potential.(t.rep.(v))
    done

  (* Policy iteration to the optimum.  A cold solve zeroes the
     potentials and starts with a whole-graph iteration; a warm one
     starts from the last solve's values, with the sources of
     reweighted policy edges, listed by [reweigh], as the switched
     vertices.  A solve that ran a whole-graph iteration, which costs
     O(n + m) anyway, ends by re-levelling the potentials, so their
     drift stays bounded by what the worklist iterations between two
     whole-graph ones add. *)
  let iterate t =
    let cold = not t.warm in
    t.warm <- false;
    let whole_ran = ref cold in
    if cold then begin
      Array.fill t.potential 0 t.n 0.0;
      whole t
    end
    else whole_ran := step t ~touched:true;
    let max_iterations = (t.n * Array.length t.edge) + 16 in
    let k = ref 0 in
    while t.switched_count > 0 do
      if !k >= max_iterations then begin
        t.switched_count <- 0;
        failwith
          (Printf.sprintf "Cycle_ratio: policy iteration did not converge in %d iterations"
             max_iterations)
      end;
      incr k;
      if step t ~touched:false then whole_ran := true
    done;
    if !whole_ran then level t;
    t.warm <- true

  (* The critical cycle: the policy cycle of the lowest-id vertex with
     the least ratio, starting where that vertex's policy path enters
     it — the vertex a whole-graph evaluation anchors it at. *)
  let witness t =
    let best = ref (-1) in
    for v = 0 to t.n - 1 do
      if t.lambda.(v) < infinity && (!best < 0 || t.lambda.(v) < t.lambda.(!best)) then best := v
    done;
    if !best < 0 then None
    else begin
      t.stamp <- t.stamp + 1;
      let a = ref !best in
      while t.tested.(!a) <> t.stamp do
        t.tested.(!a) <- t.stamp;
        a := t.dst.(t.policy.(!a))
      done;
      let rec go v total_cost total_time acc =
        let s = t.policy.(v) in
        let total_cost = total_cost + t.cost.(s) and total_time = total_time + t.time.(s) in
        let acc = t.edge.(s) :: acc in
        let x = t.dst.(s) in
        if x = !a then (make_ratio total_cost total_time, List.rev acc)
        else go x total_cost total_time acc
      in
      Some (go !a 0 0 [])
    end

  let solve t =
    if not t.dirty then t.cached
    else begin
      let result =
        if t.out_start.(t.n) = 0 then None
        else begin
          t.solves <- t.solves + 1;
          iterate t;
          witness t
        end
      in
      for i = 0 to t.touched_count - 1 do
        Bytes.set t.mark t.touched.(i) '\000'
      done;
      t.touched_count <- 0;
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
