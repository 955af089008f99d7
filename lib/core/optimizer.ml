module Datapath = Wp_soc.Datapath

let default_exclude = [ Datapath.CU_IC ]

type search = {
  budget : int;
  per_connection_max : int;
  exclude : Datapath.connection list;
  candidates : int;
  seed : int;
  schedule : Config.t Wp_util.Anneal.schedule;
}

let default_search =
  {
    budget = 9;
    per_connection_max = 2;
    exclude = default_exclude;
    candidates = 24;
    seed = 42;
    schedule =
      { Wp_util.Anneal.steps = 2000; initial_temperature = 0.2; cooling = 0.95; plateau = 40 };
  }

(* The one validation of a placement space: [slots] connections, at most
   [per_connection_max] stations each, exactly [budget] in total. *)
let check_budget who ~budget ~per_connection_max slots =
  if budget < 0 then invalid_arg (Printf.sprintf "%s: negative budget %d" who budget);
  if per_connection_max < 0 then
    invalid_arg
      (Printf.sprintf "%s: negative per-connection max %d" who per_connection_max);
  if budget > per_connection_max * slots then
    invalid_arg
      (Printf.sprintf
         "%s: budget %d exceeds capacity %d (%d connections x %d per connection)" who
         budget (per_connection_max * slots) slots per_connection_max)

let slots_of exclude =
  List.filter (fun c -> not (List.mem c exclude)) Datapath.all_connections

let enumerate ~budget ~per_connection_max ?(exclude = default_exclude) () =
  let slots = slots_of exclude in
  check_budget "Optimizer.enumerate" ~budget ~per_connection_max (List.length slots);
  let results = ref [] in
  let rec distribute remaining config = function
    | [] -> if remaining = 0 then results := config :: !results
    | conn :: rest ->
      for n = 0 to min remaining per_connection_max do
        distribute (remaining - n) (Config.set config conn n) rest
      done
  in
  distribute budget Config.zero slots;
  List.rev !results

(* A placement's static score: its worst-loop bound [num/den], then fewer
   physical channels.  [seq] orders placements as [enumerate] lists them,
   the final tie-break. *)
type entry = { num : int; den : int; channels : int; seq : int; config : Config.t }

(* Negative iff the score (num/den, channels) is better than [e]'s. *)
let compare_score ~num ~den ~channels e =
  match compare (e.num * den) (num * e.den) with
  | 0 -> compare channels e.channels
  | c -> c

(* Best first. *)
module Ranking = Set.Make (struct
  type t = entry

  let compare a b =
    match compare_score ~num:a.num ~den:a.den ~channels:a.channels b with
    | 0 -> compare a.seq b.seq
    | c -> c
end)

(* The [k] best-ranked placements of the space [enumerate] lists, best
   first, found by a depth-first walk in enumeration order.  Adding
   stations never raises a loop's bound nor lowers the channel count, so
   a partial placement's score bounds every completion of it; a
   completion also comes later in enumeration order than every entry
   already kept.  A subtree whose partial score does not strictly beat
   the [k]-th entry therefore holds no placement of the top [k], and is
   skipped.  Bad bounds are reported under [enumerate]'s name, as they
   were when this space was listed in full. *)
let shortlist ~k ~budget ~per_connection_max ~exclude =
  let slots = Array.of_list (slots_of exclude) in
  let nslots = Array.length slots in
  check_budget "Optimizer.enumerate" ~budget ~per_connection_max nslots;
  let loops = Array.of_list (Analysis.static_loops ()) in
  let stations = Array.make (Array.length loops) 0 in
  (* The loops through each slot, once per channel of the slot on it. *)
  let crossings =
    Array.map
      (fun conn ->
        List.concat
          (List.mapi
             (fun l (_, conns) ->
               List.filter_map (fun c -> if c = conn then Some l else None) conns)
             (Array.to_list loops)))
      slots
  in
  let weight = Array.map (fun conn -> Config.total_channels (Config.only conn 1)) slots in
  let counts = Array.make nslots 0 in
  let kept = ref Ranking.empty and entered = ref 0 and kth = ref None in
  let admits num den channels =
    match !kth with None -> true | Some e -> compare_score ~num ~den ~channels e < 0
  in
  let keep num den channels =
    let config = Config.of_alist (List.combine (Array.to_list slots) (Array.to_list counts)) in
    kept := Ranking.add { num; den; channels; seq = !entered; config } !kept;
    incr entered;
    if !entered > k then kept := Ranking.remove (Ranking.max_elt !kept) !kept;
    if !entered >= k then kth := Some (Ranking.max_elt !kept)
  in
  let set_count i n =
    let delta = n - counts.(i) in
    counts.(i) <- n;
    List.iter (fun l -> stations.(l) <- stations.(l) + delta) crossings.(i)
  in
  (* Slots [0..i-1] are assigned, with partial score (num/den, channels). *)
  let rec visit i remaining num den channels =
    if admits num den channels then
      if i = nslots then keep num den channels
      else begin
        (* Never leave more stations than the later slots can hold. *)
        for n = max 0 (remaining - (per_connection_max * (nslots - i - 1)))
            to min remaining per_connection_max do
          set_count i n;
          let num, den =
            List.fold_left
              (fun (num, den) l ->
                let m = fst loops.(l) in
                if m * den < num * (m + stations.(l)) then (m, m + stations.(l))
                else (num, den))
              (num, den) crossings.(i)
          in
          visit (i + 1) (remaining - n) num den (channels + (weight.(i) * n))
        done;
        set_count i 0
      end
  in
  if k > 0 then visit 0 budget 1 1 0;
  Ranking.elements !kept

let best_static ~budget ~per_connection_max ?(exclude = default_exclude) () =
  match shortlist ~k:1 ~budget ~per_connection_max ~exclude with
  | [ best ] -> (best.config, float_of_int best.num /. float_of_int best.den)
  | _ -> assert false

let optimal ~search ?(map = List.map) ~objective () =
  let { budget; per_connection_max; exclude; candidates; _ } = search in
  match shortlist ~k:candidates ~budget ~per_connection_max ~exclude with
  | [] -> invalid_arg "Optimizer.optimal: empty search space"
  | shortlist ->
    (* Objective evaluations fan out through [map] (e.g. a parallel
       runner); the winner is then folded in shortlist order, so the
       result — including tie-breaking towards the better static rank —
       is identical to the sequential fold. *)
    let shortlist = List.map (fun e -> e.config) shortlist in
    let values = map objective shortlist in
    (match List.combine shortlist values with
    | [] -> assert false
    | (first, first_v) :: rest ->
      List.fold_left
        (fun (bc, bv) (config, v) -> if v > bv then (config, v) else (bc, bv))
        (first, first_v) rest)

let anneal_placement ~search ?(objective = Analysis.wp1_bound_float) () =
  let { budget; per_connection_max; exclude; seed; schedule; _ } = search in
  let prng = Wp_util.Prng.create ~seed in
  let slots = Array.of_list (slots_of exclude) in
  let n = Array.length slots in
  check_budget "Optimizer.anneal_placement" ~budget ~per_connection_max n;
  (* Deterministic initial spread: round-robin one station at a time. *)
  let init =
    let config = ref Config.zero in
    for i = 0 to budget - 1 do
      let conn = slots.(i mod n) in
      config := Config.set !config conn (Config.get !config conn + 1)
    done;
    !config
  in
  (* Move: take one relay station from a loaded connection, give it to a
     connection with headroom. *)
  let neighbor prng config =
    let loaded = Array.to_list slots |> List.filter (fun c -> Config.get config c > 0) in
    let roomy =
      Array.to_list slots |> List.filter (fun c -> Config.get config c < per_connection_max)
    in
    match (loaded, roomy) with
    | [], _ | _, [] -> config
    | _ ->
      let pick xs = List.nth xs (Wp_util.Prng.int prng (List.length xs)) in
      let from_conn = pick loaded and to_conn = pick roomy in
      if from_conn = to_conn then config
      else
        Config.set
          (Config.set config from_conn (Config.get config from_conn - 1))
          to_conn
          (Config.get config to_conn + 1)
  in
  let result =
    Wp_util.Anneal.optimize ~prng ~init ~neighbor
      ~cost:(fun config -> -.objective config)
      ~schedule ()
  in
  (result.Wp_util.Anneal.best, -.result.Wp_util.Anneal.best_cost)
