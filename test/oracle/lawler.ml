(* Is there a cycle with total (cost - lambda * time) < 0 ?  Exactly the
   Lawler feasibility test.  [lambda] is a float; edge attributes are
   integers so the arithmetic is well conditioned. *)
let has_negative_cycle g ~cost ~time lambda =
  let weight e = float_of_int (cost e) -. (lambda *. float_of_int (time e)) in
  match Shortest_path.potentials g ~weight with
  | Shortest_path.Negative_cycle c -> Some c
  | Shortest_path.Distances _ -> None

let has_cycle g =
  List.exists (fun comp -> not (Scc.is_trivial g comp)) (Scc.components g)

let minimum g ~cost ~time =
  if not (has_cycle g) then None
  else begin
    let max_abs_cost =
      Digraph.fold_edges g ~init:1 ~f:(fun acc e -> max acc (abs (cost e)))
    in
    let bound = float_of_int (max_abs_cost * max 1 (Digraph.edge_count g)) +. 1.0 in
    (* Invariant: a cycle of ratio < hi exists; none of ratio < lo does.
       After 64 halvings [hi - lo] is far below the smallest gap between
       two distinct achievable ratios (>= 1 / total_time^2), so the last
       witness cycle achieves the optimum; its exact integer ratio is the
       answer. *)
    let lo = ref (-.bound) and hi = ref bound and witness = ref None in
    (match has_negative_cycle g ~cost ~time !hi with
    | Some c -> witness := Some c
    | None ->
      (* Every cycle ratio is < bound by construction. *)
      assert false);
    for _ = 1 to 64 do
      let mid = 0.5 *. (!lo +. !hi) in
      if !hi -. !lo > 1e-12 then
        match has_negative_cycle g ~cost ~time mid with
        | Some c ->
          hi := mid;
          witness := Some c
        | None -> lo := mid
    done;
    match !witness with
    | Some c -> Some (Cycle_ratio.cycle_ratio g ~cost ~time c, c)
    | None -> None
  end

let maximum g ~cost ~time =
  match minimum g ~cost:(fun e -> -cost e) ~time with
  | None -> None
  | Some (r, c) -> Some (Cycle_ratio.make_ratio (-r.Cycle_ratio.num) r.Cycle_ratio.den, c)
