(* Balanced-binary-word periodic schedules on marked graphs.

   The schedule is the mechanical (Sturmian) staircase

     cum_v t = max 0 (floor ((t * num + offset_v) / den))

   at the graph's minimum cycle ratio num/den.  The offsets solve the
   difference-constraint system

     offset_dst - offset_src <= tokens e * den - time e * num

   whose constraint graph has no negative cycle exactly because num/den
   is the minimum over cycles of (sum tokens / sum time): summing the
   right-hand sides around any cycle C gives
   den * tokens(C) - num * time(C) >= 0.  Bellman-Ford therefore
   converges, and the resulting staircases never let any edge's token
   count go negative (the proof is a floor-difference bound; the
   checker below re-verifies it by direct simulation). *)

type t = {
  rate : Cycle_ratio.ratio;
  period : int;
  offsets : int array;
  words : bool array array;
  critical : Digraph.edge list;
}

(* Floor division for possibly-negative numerators (offsets can be
   arbitrarily negative on long chains). *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let cum ~num ~den ~offset n =
  let f = fdiv ((n * num) + offset) den in
  if f > 0 then f else 0

let firings_before t v n =
  cum ~num:t.rate.Cycle_ratio.num ~den:t.rate.Cycle_ratio.den
    ~offset:t.offsets.(v) n

let fires_at t v n = firings_before t v (n + 1) > firings_before t v n

let word_rate t v =
  let ones = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.words.(v) in
  Cycle_ratio.make_ratio ones t.period

(* The steady-state word: firing indicator over one period of the
   unclamped staircase.  Periodic because f (i + den) = f i + num. *)
let word_of ~num ~den ~offset =
  Array.init den (fun i ->
      fdiv (((i + 1) * num) + offset) den > fdiv ((i * num) + offset) den)

let min_ratio g ~tokens ~time =
  Cycle_ratio.throughput_bound (Cycle_ratio.minimum g ~cost:tokens ~time)

(* Feasible offsets by Bellman-Ford on the difference constraints; all
   sources at 0.  No negative cycle can exist (see header), so V-1
   rounds suffice; a V-th improving round means the rate passed in was
   not actually minimal. *)
let solve_offsets g ~tokens ~time ~num ~den =
  let nv = Digraph.vertex_count g in
  let theta = Array.make (max 1 nv) 0 in
  let relax () =
    let changed = ref false in
    Digraph.iter_edges g (fun e ->
        let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
        let w = (tokens e * den) - (time e * num) in
        if theta.(v) > theta.(u) + w then begin
          theta.(v) <- theta.(u) + w;
          changed := true
        end);
    !changed
  in
  let rounds = ref 0 in
  while relax () do
    incr rounds;
    if !rounds > nv then
      failwith "Schedule.build: difference constraints diverge (rate not minimal?)"
  done;
  theta

let build g ~tokens ~time =
  Digraph.iter_edges g (fun e ->
      if tokens e < 0 then invalid_arg "Schedule.build: negative token count");
  let rate, critical = min_ratio g ~tokens ~time in
  let num = rate.Cycle_ratio.num and den = rate.Cycle_ratio.den in
  let nv = Digraph.vertex_count g in
  let theta = solve_offsets g ~tokens ~time ~num ~den in
  (* Normalise by a common shift (differences — hence constraints — are
     preserved) so the largest offset is den - 1: every staircase then
     starts at cum 0 and the clamp only ever delays firings. *)
  if nv > 0 then begin
    let mx = Array.fold_left max theta.(0) (Array.sub theta 0 nv) in
    let shift = den - 1 - mx in
    for v = 0 to nv - 1 do
      theta.(v) <- theta.(v) + shift
    done
  end;
  let offsets = Array.sub theta 0 nv in
  let words = Array.init nv (fun v -> word_of ~num ~den ~offset:offsets.(v)) in
  { rate; period = den; offsets; words; critical }

let is_balanced w =
  let n = Array.length w in
  if n = 0 then true
  else begin
    let bit i = if w.(i mod n) then 1 else 0 in
    let ok = ref true in
    for len = 1 to n - 1 do
      let mn = ref max_int and mx = ref min_int in
      for start = 0 to n - 1 do
        let s = ref 0 in
        for i = start to start + len - 1 do
          s := !s + bit i
        done;
        if !s < !mn then mn := !s;
        if !s > !mx then mx := !s
      done;
      if !mx - !mn > 1 then ok := false
    done;
    !ok
  end

let check g ~tokens ~time t =
  let nv = Digraph.vertex_count g in
  let num = t.rate.Cycle_ratio.num and den = t.rate.Cycle_ratio.den in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let expected_rate, _ = min_ratio g ~tokens ~time in
  if t.rate <> expected_rate then
    err "rate %d/%d is not the minimum cycle ratio %d/%d" num den
      expected_rate.Cycle_ratio.num expected_rate.Cycle_ratio.den
  else if t.period <> den then err "period %d differs from denominator %d" t.period den
  else if Array.length t.offsets <> nv || Array.length t.words <> nv then
    err "schedule shape does not match the graph (%d vertices)" nv
  else begin
    let problem = ref None in
    let fail v fmt =
      Printf.ksprintf
        (fun s ->
          if !problem = None then
            problem := Some (Printf.sprintf "vertex %d (%s): %s" v (Digraph.vertex_label g v) s))
        fmt
    in
    for v = 0 to nv - 1 do
      let w = t.words.(v) in
      if Array.length w <> t.period then
        fail v "word length %d, expected %d" (Array.length w) t.period
      else begin
        let ones = Array.fold_left (fun a b -> if b then a + 1 else a) 0 w in
        if ones <> num then fail v "word has %d ones, rate demands %d" ones num;
        if not (is_balanced w) then fail v "word is not balanced";
        let mech = word_of ~num ~den ~offset:t.offsets.(v) in
        if w <> mech then fail v "word is not the mechanical word of offset %d" t.offsets.(v)
      end
    done;
    (match !problem with
    | Some _ -> ()
    | None ->
        Digraph.iter_edges g (fun e ->
            let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
            let slack = (tokens e * den) - (time e * num) - (t.offsets.(v) - t.offsets.(u)) in
            if slack < 0 then
              fail v "edge %s violates its difference constraint by %d"
                (Digraph.edge_label g e) (-slack)));
    (match !problem with
    | Some _ -> ()
    | None ->
        (* Direct evidence: replay the staircases and watch every
           edge's token count over the whole transient plus two full
           periods.  The transient ends once every unclamped staircase
           has reached zero. *)
        let transient = ref 0 in
        for v = 0 to nv - 1 do
          if num > 0 && t.offsets.(v) < 0 then
            transient := max !transient ((-t.offsets.(v) + num - 1) / num)
        done;
        let max_time = ref 0 in
        Digraph.iter_edges g (fun e -> max_time := max !max_time (time e));
        let horizon = !transient + (2 * t.period) + !max_time + 1 in
        Digraph.iter_edges g (fun e ->
            let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
            let l = time e in
            for n = 1 to horizon do
              let avail = tokens e + firings_before t u (n - l) - firings_before t v n in
              if avail < 0 && !problem = None then
                fail v "edge %s runs out of tokens at cycle %d"
                  (Digraph.edge_label g e) (n - 1)
            done));
    match !problem with Some s -> Error s | None -> Ok ()
  end

let render g t =
  let b = Buffer.create 256 in
  Printf.bprintf b "rate %d/%d  period %d\n" t.rate.Cycle_ratio.num
    t.rate.Cycle_ratio.den t.period;
  (match t.critical with
  | [] -> Buffer.add_string b "critical cycle: (acyclic)\n"
  | cyc ->
      Buffer.add_string b "critical cycle:";
      List.iter (fun e -> Printf.bprintf b " %s" (Digraph.edge_label g e)) cyc;
      Buffer.add_char b '\n');
  let width =
    List.fold_left
      (fun a v -> max a (String.length (Digraph.vertex_label g v)))
      1 (Digraph.vertices g)
  in
  List.iter
    (fun v ->
      let word =
        String.init t.period (fun i -> if t.words.(v).(i) then '1' else '0')
      in
      Printf.bprintf b "  %-*s  offset %4d  word %s\n" width
        (Digraph.vertex_label g v) t.offsets.(v) word)
    (Digraph.vertices g);
  Buffer.contents b
