module Topology = Wp_topo.Topology
module Network = Wp_sim.Network
module Static = Wp_sim.Static
module Cycle_ratio = Wp_graph.Cycle_ratio
module Prng = Wp_util.Prng
module Pool = Wp_util.Pool

type point = {
  die_area : float;
  wirelength : float;
  wp1_bound : Cycle_ratio.ratio;
  rs_total : int;
  cells : int array;
}

type result = {
  front : point list;
  best : point;
  walkers : int;
  rounds : int;
  moves : int;
  evaluations : int;
  cache_hits : int;
}

(* ------------------------------------------------------------------ *)
(* Geometry: generated blocks live on a square grid with ~30% empty
   cells (so the occupied bounding box — the die area — can vary), unit
   cell pitch, Manhattan lengths between cell centers.               *)
(* ------------------------------------------------------------------ *)

type ctx = {
  n : int;                     (* nodes *)
  cells_total : int;
  row : int array;             (* cell -> grid row *)
  col : int array;             (* cell -> grid column *)
  chans : (int * int) array;   (* channel -> (src node, dst node) *)
  incident : int list array;   (* node -> incident channels, deduped *)
  reach : float;
  capacity : int;
  area0 : float;               (* initial-placement normalisers *)
  wire0 : float;
}

let cell_dist ctx a b = abs (ctx.row.(a) - ctx.row.(b)) + abs (ctx.col.(a) - ctx.col.(b))

let chan_len ctx cells c =
  let a, b = ctx.chans.(c) in
  cell_dist ctx cells.(a) cells.(b)

let total_wire ctx cells =
  let acc = ref 0 in
  for c = 0 to Array.length ctx.chans - 1 do
    acc := !acc + chan_len ctx cells c
  done;
  !acc

let bbox_area ctx cells =
  let rmin = ref max_int and rmax = ref min_int in
  let cmin = ref max_int and cmax = ref min_int in
  Array.iter
    (fun cell ->
      let r = ctx.row.(cell) and c = ctx.col.(cell) in
      if r < !rmin then rmin := r;
      if r > !rmax then rmax := r;
      if c < !cmin then cmin := c;
      if c > !cmax then cmax := c)
    cells;
  if !rmax < !rmin then 0.0
  else float_of_int ((!rmax - !rmin + 1) * (!cmax - !cmin + 1))

let rs_for ctx len = Flow.relay_stations_for ~reach:ctx.reach (float_of_int len)

(* ------------------------------------------------------------------ *)
(* Pareto dominance over (die area min, wirelength min, bound max)    *)
(* ------------------------------------------------------------------ *)

let dominates p q =
  p.die_area <= q.die_area && p.wirelength <= q.wirelength
  && Cycle_ratio.ratio_compare p.wp1_bound q.wp1_bound >= 0
  && (p.die_area < q.die_area || p.wirelength < q.wirelength
     || Cycle_ratio.ratio_compare p.wp1_bound q.wp1_bound > 0)

let same_metrics p q =
  p.die_area = q.die_area && p.wirelength = q.wirelength
  && Cycle_ratio.ratio_compare p.wp1_bound q.wp1_bound = 0

(* Insertion keeps first-seen order (deterministic merge): a point equal
   or dominated is dropped, otherwise it evicts what it dominates. *)
let archive_admits archive p =
  not (List.exists (fun q -> dominates q p || same_metrics q p) archive)

let archive_add archive p = List.filter (fun q -> not (dominates p q)) archive @ [ p ]

let archive_insert archive p = if archive_admits archive p then archive_add archive p else archive

(* ------------------------------------------------------------------ *)
(* Walkers                                                            *)
(* ------------------------------------------------------------------ *)

type walker = {
  id : int;
  prng : Prng.t;
  cells : int array;
  cell_of : int array;          (* cell -> node, -1 when empty *)
  len : int array;              (* channel -> grid length *)
  mutable wire : int;           (* sum of [len], exact *)
  rs : int array;               (* channel -> relay stations *)
  eval : Cycle_ratio.Incremental.t;
  wa : float;                   (* scalarisation weights *)
  ww : float;
  wt : float;
  mutable temperature : float;
  mutable cooldown : int;       (* moves since last cooling *)
  mutable current : float;
  mutable best_point : point;
  mutable best_cost : float;
  mutable archive : point list;
  mutable moves : int;
  mutable lookups : int;        (* evaluations requested (miss or hit) *)
}

let scalar w (area, wire, bound) ctx =
  (w.wa *. (area /. ctx.area0))
  +. (w.ww *. (wire /. ctx.wire0))
  +. (w.wt *. (1.0 -. Cycle_ratio.ratio_to_float bound))

(* Channel [c] of the capacity graph owns edges [2c] (forward: tokens 1,
   time [1 + rs]) and [2c + 1] (reverse: tokens [capacity + 2 rs - 1],
   time 1) — [Static.capacity_graph] adds them in channel order.  Every
   cell change goes through here, so [w.len] and [w.wire] track the
   placement. *)
let refresh_channel ctx w c =
  let len = chan_len ctx w.cells c in
  w.wire <- w.wire + len - w.len.(c);
  w.len.(c) <- len;
  let k = rs_for ctx len in
  if w.rs.(c) <> k then begin
    w.rs.(c) <- k;
    Cycle_ratio.Incremental.set_time w.eval (2 * c) (1 + k);
    Cycle_ratio.Incremental.set_cost w.eval ((2 * c) + 1) (ctx.capacity + (2 * k) - 1)
  end

let refresh_all ctx w =
  for c = 0 to Array.length ctx.chans - 1 do
    refresh_channel ctx w c
  done

type cache = {
  table : (string, float * float * Cycle_ratio.ratio * int) Hashtbl.t;
  lock : Mutex.t;
}

(* Score the walker's current placement.  The cache is keyed by the
   placement digest and shared by every walker on every domain: values
   are pure functions of the cells array (the die area is recomputed,
   the wirelength is an exact integer sum, the bound an exact
   rational), so a hit returns byte-identical data to a recompute and
   the walker trajectories do not depend on which domain filled the
   entry first. *)
let evaluate ctx cache w =
  w.lookups <- w.lookups + 1;
  let key = Digest.string (Marshal.to_string w.cells []) in
  let cached =
    Mutex.lock cache.lock;
    let r = Hashtbl.find_opt cache.table key in
    Mutex.unlock cache.lock;
    r
  in
  match cached with
  | Some v -> v
  | None ->
    let area = bbox_area ctx w.cells in
    let wire = float_of_int w.wire in
    let bound, _ = Cycle_ratio.throughput_bound (Cycle_ratio.Incremental.solve w.eval) in
    let rs_total = Array.fold_left ( + ) 0 w.rs in
    let v = (area, wire, bound, rs_total) in
    Mutex.lock cache.lock;
    if not (Hashtbl.mem cache.table key) then Hashtbl.add cache.table key v;
    Mutex.unlock cache.lock;
    v

(* The placement is copied only when the point is kept, as an archive
   entry, as the walker's best, or both (points are never mutated, so
   the two share the copy). *)
let observe ctx w (area, wire, bound, rs_total) =
  let cost = scalar w (area, wire, bound) ctx in
  let p = { die_area = area; wirelength = wire; wp1_bound = bound; rs_total; cells = [||] } in
  let archived = archive_admits w.archive p in
  let best = cost < w.best_cost in
  if archived || best then begin
    let p = { p with cells = Array.copy w.cells } in
    if archived then w.archive <- archive_add w.archive p;
    if best then begin
      w.best_cost <- cost;
      w.best_point <- p
    end
  end;
  cost

(* Swap node [u] into cell [target] (swapping with the occupant if the
   cell is taken); returns the undo closure's data. *)
let apply_move ctx w u target =
  let cur = w.cells.(u) in
  let v = w.cell_of.(target) in
  w.cells.(u) <- target;
  w.cell_of.(target) <- u;
  if v >= 0 then begin
    w.cells.(v) <- cur;
    w.cell_of.(cur) <- v
  end
  else w.cell_of.(cur) <- -1;
  let dirty =
    if v >= 0 && v <> u then
      List.sort_uniq compare (ctx.incident.(u) @ ctx.incident.(v))
    else ctx.incident.(u)
  in
  List.iter (refresh_channel ctx w) dirty;
  (cur, v, dirty)

let undo_move ctx w u (cur, v, dirty) =
  let target = w.cells.(u) in
  w.cells.(u) <- cur;
  w.cell_of.(cur) <- u;
  if v >= 0 then begin
    w.cells.(v) <- target;
    w.cell_of.(target) <- v
  end
  else w.cell_of.(target) <- -1;
  List.iter (refresh_channel ctx w) dirty

let cool schedule w =
  w.cooldown <- w.cooldown + 1;
  if w.cooldown >= schedule.Flow_spec.plateau then begin
    w.cooldown <- 0;
    w.temperature <- w.temperature *. schedule.Flow_spec.cooling
  end

let step ctx cache schedule w =
  w.moves <- w.moves + 1;
  let u = Prng.int w.prng ctx.n in
  let target = Prng.int w.prng ctx.cells_total in
  if target <> w.cells.(u) then begin
    let undo = apply_move ctx w u target in
    let v = evaluate ctx cache w in
    let cost = observe ctx w v in
    let d = cost -. w.current in
    let accept =
      d <= 0.0 || Prng.float w.prng 1.0 < exp (-.d /. max w.temperature 1e-12)
    in
    if accept then w.current <- cost else undo_move ctx w u undo
  end;
  cool schedule w

(* ------------------------------------------------------------------ *)
(* Population                                                          *)
(* ------------------------------------------------------------------ *)

let walker_weights spec i =
  match spec.Flow_spec.objective with
  | Flow_spec.Area -> (1.0, 0.0, 0.0)
  | Flow_spec.Area_wire -> (1.0, 0.5, 0.0)
  | Flow_spec.Aware -> (1.0, 0.5, 3.0)
  | Flow_spec.Pareto ->
    (* Diverse deterministic scalarisations: each walker pushes into a
       different region of the (area, wire, throughput) front. *)
    let prng = Prng.create ~seed:(spec.Flow_spec.seed + (1_000_003 * (i + 1))) in
    let wa = 0.2 +. Prng.float prng 1.0 in
    let ww = 0.1 +. Prng.float prng 1.0 in
    let wt = 0.5 +. Prng.float prng 4.0 in
    (wa, ww, wt)

let make_walker ctx spec g tokens time i =
  let cells = Array.init ctx.n Fun.id in
  let cell_of = Array.make ctx.cells_total (-1) in
  Array.iteri (fun node cell -> cell_of.(cell) <- node) cells;
  let len = Array.make (Array.length ctx.chans) 0 in
  let rs = Array.make (max 1 (Array.length ctx.chans)) (-1) in
  let eval = Cycle_ratio.Incremental.create g ~cost:tokens ~time in
  let wa, ww, wt = walker_weights spec i in
  let temperature =
    let t = spec.Flow_spec.schedule.Flow_spec.initial_temperature in
    if t > 0.0 then t else 0.3 *. (wa +. ww +. wt)
  in
  let w =
    {
      id = i;
      prng = Prng.create ~seed:(spec.Flow_spec.seed lxor (0x9E3779B9 * (i + 1)));
      cells;
      cell_of;
      len;
      wire = 0;
      rs;
      eval;
      wa;
      ww;
      wt;
      temperature;
      cooldown = 0;
      current = infinity;
      best_point =
        { die_area = infinity; wirelength = infinity; wp1_bound = Cycle_ratio.make_ratio 0 1;
          rs_total = 0; cells = Array.copy cells };
      best_cost = infinity;
      archive = [];
      moves = 0;
      lookups = 0;
    }
  in
  refresh_all ctx w;
  w

let adopt ctx w (p : point) cost =
  Array.blit p.cells 0 w.cells 0 Array.(length p.cells);
  Array.fill w.cell_of 0 (Array.length w.cell_of) (-1);
  Array.iteri (fun node cell -> w.cell_of.(cell) <- node) w.cells;
  refresh_all ctx w;
  w.current <- cost;
  w.best_cost <- cost;
  w.best_point <-
    { die_area = p.die_area; wirelength = p.wirelength; wp1_bound = p.wp1_bound;
      rs_total = p.rs_total; cells = Array.copy p.cells }

(* Ring elite exchange: after a round, walker [i] adopts its left
   neighbour's best state when that state scores better under [i]'s own
   scalarisation.  A pure function of the (deterministic) per-walker
   bests, so the exchange itself is domain-count independent. *)
let exchange ctx walkers =
  let k = Array.length walkers in
  let bests = Array.map (fun w -> w.best_point) walkers in
  Array.iteri
    (fun i w ->
      let donor = bests.((i + k - 1) mod k) in
      if donor.die_area < infinity then begin
        let cost = scalar w (donor.die_area, donor.wirelength, donor.wp1_bound) ctx in
        if cost < w.best_cost then adopt ctx w donor cost
      end)
    walkers

let build_ctx spec tspec =
  let net = Topology.build tspec in
  let n = Network.node_count net in
  let side = max 1 (int_of_float (ceil (sqrt (1.3 *. float_of_int n)))) in
  let chans =
    Array.of_list
      (List.map
         (fun c -> (fst (Network.channel_src net c), fst (Network.channel_dst net c)))
         (Network.channels net))
  in
  let incident = Array.make n [] in
  Array.iteri
    (fun c (a, b) ->
      incident.(a) <- c :: incident.(a);
      if b <> a then incident.(b) <- c :: incident.(b))
    chans;
  Array.iteri (fun v l -> incident.(v) <- List.rev l) incident;
  let ctx =
    {
      n;
      cells_total = side * side;
      row = Array.init (side * side) (fun cell -> cell / side);
      col = Array.init (side * side) (fun cell -> cell mod side);
      chans;
      incident;
      reach = spec.Flow_spec.reach;
      capacity = 2;
      area0 = 1.0;
      wire0 = 1.0;
    }
  in
  let cells0 = Array.init n Fun.id in
  let area0 = max (bbox_area ctx cells0) 1.0 in
  let wire0 = max (float_of_int (total_wire ctx cells0)) 1.0 in
  (net, { ctx with area0; wire0 })

let spec_topology spec =
  match spec.Flow_spec.topology with
  | Flow_spec.Generated t -> t
  | Flow_spec.Case_study ->
    invalid_arg "Flow_scale.run: the 5-block case study goes through Flow.run"

(* Derive the concrete network of one placement: the generated netlist
   with every channel's relay-station count set from its grid length. *)
let derived_network spec (point : point) =
  let tspec = spec_topology spec in
  let net, ctx = build_ctx spec tspec in
  List.iter
    (fun c ->
      Network.set_relay_stations net c (rs_for ctx (chan_len ctx point.cells c)))
    (Network.channels net);
  net

let scratch_bound = Topology.mcr

let run ?(jobs = Pool.default_jobs ()) ?(spec = Flow_spec.default) () =
  let tspec = spec_topology spec in
  let net, ctx = build_ctx spec tspec in
  let g, tokens, time = Static.capacity_graph ~capacity:ctx.capacity net in
  let k = max 1 spec.Flow_spec.pool in
  let walkers = Array.init k (make_walker ctx spec g tokens time) in
  let cache = { table = Hashtbl.create 4096; lock = Mutex.create () } in
  (* Score the (shared) initial placement so every walker starts with a
     defined current cost and one archive entry. *)
  Array.iter
    (fun w ->
      let v = evaluate ctx cache w in
      w.current <- observe ctx w v)
    walkers;
  let steps_per_walker = max 1 (spec.Flow_spec.budget / k) in
  let rounds = max 1 (min 8 steps_per_walker) in
  let schedule = spec.Flow_spec.schedule in
  Pool.with_pool ~jobs (fun pool ->
      for round = 0 to rounds - 1 do
        let base = steps_per_walker / rounds in
        let extra = if round < steps_per_walker mod rounds then 1 else 0 in
        let steps = base + extra in
        ignore
          (Pool.map pool
             (fun w ->
               for _ = 1 to steps do
                 step ctx cache schedule w
               done)
             (Array.to_list walkers));
        if k > 1 && round < rounds - 1 then exchange ctx walkers
      done);
  let merged =
    Array.fold_left
      (fun acc w -> List.fold_left archive_insert acc w.archive)
      [] walkers
  in
  let better p q =
    let c = Cycle_ratio.ratio_compare q.wp1_bound p.wp1_bound in
    if c <> 0 then c
    else if p.die_area <> q.die_area then compare p.die_area q.die_area
    else compare p.wirelength q.wirelength
  in
  let front = List.stable_sort better merged in
  let best = match front with [] -> assert false | p :: _ -> p in
  (* The headline invariant: the warm-started bound for the winning
     placement must equal a cold solve on the freshly derived network,
     exactly. *)
  let check = scratch_bound ~capacity:ctx.capacity (derived_network spec best) in
  if Cycle_ratio.ratio_compare check best.wp1_bound <> 0 then
    failwith
      (Format.asprintf
         "Flow_scale.run: incremental bound %a disagrees with from-scratch %a"
         Cycle_ratio.ratio_pp best.wp1_bound Cycle_ratio.ratio_pp check);
  let moves = Array.fold_left (fun a w -> a + w.moves) 0 walkers in
  let lookups = Array.fold_left (fun a w -> a + w.lookups) 0 walkers in
  let evaluations = Hashtbl.length cache.table in
  {
    front;
    best;
    walkers = k;
    rounds;
    moves;
    evaluations;
    cache_hits = lookups - evaluations;
  }

let static_rate ?(capacity = 2) net =
  let s = Static.schedule ~capacity net in
  Wp_graph.Schedule.word_rate s 0

let point_json p =
  Printf.sprintf
    "{ \"die_area\": %.6f, \"wirelength\": %.6f, \"wp1_bound\": \"%d/%d\", \"wp1_bound_float\": %.9f, \"rs_total\": %d }"
    p.die_area p.wirelength p.wp1_bound.Cycle_ratio.num p.wp1_bound.Cycle_ratio.den
    (Cycle_ratio.ratio_to_float p.wp1_bound)
    p.rs_total

let front_to_json ~spec r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"spec\": %S,\n" (Flow_spec.digest spec));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"walkers\": %d,\n  \"rounds\": %d,\n  \"moves\": %d,\n  \"evaluations\": %d,\n  \"cache_hits\": %d,\n"
       r.walkers r.rounds r.moves r.evaluations r.cache_hits);
  Buffer.add_string buf (Printf.sprintf "  \"best\": %s,\n" (point_json r.best));
  Buffer.add_string buf "  \"front\": [\n";
  List.iteri
    (fun i p ->
      Buffer.add_string buf "    ";
      Buffer.add_string buf (point_json p);
      if i < List.length r.front - 1 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n")
    r.front;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
