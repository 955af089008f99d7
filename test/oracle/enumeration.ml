let minimum g ~cost ~time =
  let best = ref None in
  let consider cycle =
    let r = Cycle_ratio.cycle_ratio g ~cost ~time cycle in
    match !best with
    | None -> best := Some (r, cycle)
    | Some (r0, _) -> if Cycle_ratio.ratio_compare r r0 < 0 then best := Some (r, cycle)
  in
  List.iter consider (Cycles.elementary_cycles g);
  !best
