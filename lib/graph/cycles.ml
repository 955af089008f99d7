(* Johnson, "Finding all the elementary circuits of a directed graph",
   SIAM J. Comput. 1975 — adapted to multigraphs by walking edges rather
   than vertices.  The outer loop fixes the smallest vertex [s] of each
   cycle and explores only vertices >= s. *)

let elementary_cycles ?(max_cycles = 1_000_000) g =
  let n = Digraph.vertex_count g in
  let blocked = Array.make n false in
  let block_map = Array.make n [] in
  let results = ref [] in
  let count = ref 0 in
  let emit cycle =
    incr count;
    if !count > max_cycles then failwith "Cycles.elementary_cycles: bound exceeded";
    results := cycle :: !results
  in
  for s = 0 to n - 1 do
    (* Reset state for the subgraph induced by vertices >= s. *)
    Array.fill blocked 0 n false;
    Array.fill block_map 0 n [];
    let rec unblock v =
      blocked.(v) <- false;
      let waiting = block_map.(v) in
      block_map.(v) <- [];
      List.iter (fun w -> if blocked.(w) then unblock w) waiting
    in
    (* [circuit v path] explores from [v]; [path] is the reversed edge
       stack.  Returns true when some cycle through [v] was found. *)
    let rec circuit v path =
      blocked.(v) <- true;
      let found = ref false in
      let try_edge e =
        let w = Digraph.edge_dst g e in
        if w >= s then
          if w = s then begin
            emit (List.rev (e :: path));
            found := true
          end
          else if not blocked.(w) then
            if circuit w (e :: path) then found := true
      in
      List.iter try_edge (Digraph.out_edges g v);
      if !found then unblock v
      else
        (* Leave v blocked until a vertex on its escape routes unblocks. *)
        List.iter
          (fun e ->
            let w = Digraph.edge_dst g e in
            if w >= s && not (List.mem v block_map.(w)) then
              block_map.(w) <- v :: block_map.(w))
          (Digraph.out_edges g v);
      !found
    in
    ignore (circuit s [])
  done;
  List.rev !results

let is_elementary_cycle g = function
  | [] -> false
  | first :: _ as cycle ->
    let rec check seen prev = function
      | [] -> prev = Digraph.edge_src g first
      | e :: rest ->
        Digraph.edge_src g e = prev
        && (not (List.mem prev seen))
        && check (prev :: seen) (Digraph.edge_dst g e) rest
    in
    check [] (Digraph.edge_src g first) cycle
