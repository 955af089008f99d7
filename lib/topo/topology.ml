module Process = Wp_lis.Process
module Network = Wp_sim.Network
module Prng = Wp_util.Prng
module Sexp = Wp_util.Shrink.Sexp

type shape = Ring of int | Mesh of int * int | Torus of int * int | Rand of int

type spec = { shape : shape; seed : int; max_rs : int; adapters : bool }

let v ?(seed = 0) ?(max_rs = 2) ?(adapters = false) shape =
  { shape; seed; max_rs; adapters }

let shape_to_string = function
  | Ring n -> Printf.sprintf "ring:%d" n
  | Mesh (r, c) -> Printf.sprintf "mesh:%dx%d" r c
  | Torus (r, c) -> Printf.sprintf "torus:%dx%d" r c
  | Rand n -> Printf.sprintf "rand:%d" n

let to_string t =
  let b = Buffer.create 24 in
  Buffer.add_string b (shape_to_string t.shape);
  if t.seed <> 0 then Buffer.add_string b (Printf.sprintf ":seed%d" t.seed);
  if t.max_rs <> 2 then Buffer.add_string b (Printf.sprintf ":rs%d" t.max_rs);
  if t.adapters then Buffer.add_string b ":adapt";
  Buffer.contents b

let family t = to_string { t with seed = 0 }

let digest t =
  Printf.sprintf "%s:seed%d:rs%d:%s" (shape_to_string t.shape) t.seed t.max_rs
    (if t.adapters then "adapt" else "plain")

let with_seed t seed = { t with seed }

let block_count t =
  match t.shape with
  | Ring n | Rand n -> n
  | Mesh (r, c) | Torus (r, c) -> r * c

let max_blocks = 100_000

(* The shapes [build] accepts, shared with the grammar so a spec that
   parses also builds.  The block cap is checked without forming
   [r * c], which can overflow. *)
let shape_error = function
  | Ring n when n < 2 -> Some "ring needs >= 2 blocks"
  | Rand n when n < 2 -> Some "rand needs >= 2 blocks"
  | Mesh (r, c) when r < 1 || c < 1 || (r = 1 && c = 1) -> Some "mesh needs >= 2 blocks"
  | Torus (r, c) when r < 2 || c < 2 -> Some "torus needs >= 2x2"
  | Ring n | Rand n when n > max_blocks -> Some "more than 100_000 blocks"
  | Mesh (r, c) | Torus (r, c) when r > max_blocks / c -> Some "more than 100_000 blocks"
  | _ -> None

(* --------------------------------------------------------------- *)
(* Grammar                                                          *)
(* --------------------------------------------------------------- *)

let parse_int s = match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "not a number: %S" s)

let parse_dims s =
  match String.index_opt s 'x' with
  | None -> Error (Printf.sprintf "expected RxC, got %S" s)
  | Some i -> (
    match
      ( int_of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some r, Some c -> Ok (r, c)
    | _ -> Error (Printf.sprintf "expected RxC, got %S" s))

let strip_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s > lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let ( let* ) = Result.bind

let of_string s =
  match String.split_on_char ':' s with
  | [] | [ _ ] -> Error (Printf.sprintf "empty topology spec %S" s)
  | fam :: arg :: opts ->
    let* shape =
      match fam with
      | "ring" ->
        let* n = parse_int arg in
        Ok (Ring n)
      | "mesh" ->
        let* r, c = parse_dims arg in
        Ok (Mesh (r, c))
      | "torus" ->
        let* r, c = parse_dims arg in
        Ok (Torus (r, c))
      | "rand" ->
        let* n = parse_int arg in
        Ok (Rand n)
      | _ ->
        Error
          (Printf.sprintf "unknown topology family %S (ring|mesh|torus|rand)"
             fam)
    in
    let* () = match shape_error shape with Some e -> Error e | None -> Ok () in
    List.fold_left
      (fun acc opt ->
        let* t = acc in
        if opt = "adapt" then Ok { t with adapters = true }
        else
          match strip_prefix ~prefix:"seed" opt with
          | Some n ->
            let* seed = parse_int n in
            Ok { t with seed }
          | None -> (
            match strip_prefix ~prefix:"rs" opt with
            | Some n ->
              let* max_rs = parse_int n in
              if max_rs < 0 then Error "rs must be >= 0"
              else Ok { t with max_rs }
            | None -> Error (Printf.sprintf "unknown topology option %S" opt)))
      (Ok (v shape)) opts

(* --------------------------------------------------------------- *)
(* Deterministic seeding                                            *)
(* --------------------------------------------------------------- *)

(* FNV-1a over the digest string: platform-independent, stable across
   runs, and distinct specs land in distinct PRNG streams. *)
let hash_string s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land max_int)
    s;
  !h

(* --------------------------------------------------------------- *)
(* Synthetic processes                                              *)
(* --------------------------------------------------------------- *)

(* Values are 48-bit so an [r]-lane adapter can slice them into exact
   [48/r]-bit fields and repack without loss. *)
let word_bits = 48
let mask48 = (1 lsl word_bits) - 1
let fnv_prime = 0x100000001b3
let gold = 0x2545F4914F6CDD1D

let never_halted () = false

(* Output word [q] of a block whose inputs folded to [h]. *)
let mix h q = (h + ((q + 1) * 0x9e3779b9)) * gold land mask48

(* A synthetic IP block: each firing folds all consumed words with the
   block id and emits one mixed word per output port.  Stateless, so
   every engine (and every replay) reconstructs identical data.
   [fire] runs once per firing on every engine, so it is written as a
   plain loop with literal result arrays for the common fan-outs. *)
let block_process ~id ~n_in ~n_out =
  let input_names = Array.init n_in (Printf.sprintf "i%d") in
  let output_names = Array.init n_out (Printf.sprintf "o%d") in
  let reset_outputs =
    Array.init n_out (fun q ->
        (0x811c9dc5 + (id * 8191) + (q * 131071)) * fnv_prime land mask48)
  in
  let fire inputs =
    let h = ref ((id + 0x9e3779b9) land mask48) in
    for p = 0 to Array.length inputs - 1 do
      match inputs.(p) with
      | Some v -> h := (!h lxor v) * fnv_prime land mask48
      | None -> ()
    done;
    let h = !h in
    match n_out with
    | 1 -> [| mix h 0 |]
    | 2 -> [| mix h 0; mix h 1 |]
    | 3 -> [| mix h 0; mix h 1; mix h 2 |]
    | 4 -> [| mix h 0; mix h 1; mix h 2; mix h 3 |]
    | _ ->
      let out = Array.make n_out 0 in
      for q = 0 to n_out - 1 do
        out.(q) <- mix h q
      done;
      out
  in
  {
    Process.name = Printf.sprintf "b%d" id;
    input_names;
    output_names;
    reset_outputs;
    make =
      (fun () ->
        { Process.required = Process.all_required n_in; fire; halted = never_halted });
  }

(* Space-time adapter, down half: slice one wide word into [r] narrow
   lanes of [48/r] bits each. *)
let slice_process ~idx ~r =
  let s = word_bits / r in
  let lane_mask = (1 lsl s) - 1 in
  let fire inputs =
    let v = match inputs.(0) with Some v -> v | None -> 0 in
    Array.init r (fun q -> (v lsr (q * s)) land lane_mask)
  in
  {
    Process.name = Printf.sprintf "x%dd" idx;
    input_names = [| "i" |];
    output_names = Array.init r (Printf.sprintf "o%d");
    reset_outputs = Array.make r 0;
    make =
      (fun () ->
        { Process.required = Process.all_required 1; fire; halted = never_halted });
  }

(* Up half: reassemble the wide word from the [r] lanes.  Inverse of
   {!slice_process} on every 48-bit value, so the adapter pair is the
   identity on the link. *)
let pack_process ~idx ~r =
  let s = word_bits / r in
  let lane_mask = (1 lsl s) - 1 in
  let fire inputs =
    let v = ref 0 in
    for q = 0 to r - 1 do
      let w = match inputs.(q) with Some w -> w | None -> 0 in
      v := !v lor ((w land lane_mask) lsl (q * s))
    done;
    [| !v |]
  in
  {
    Process.name = Printf.sprintf "x%du" idx;
    input_names = Array.init r (Printf.sprintf "i%d");
    output_names = [| "o" |];
    reset_outputs = [| 0 |];
    make =
      (fun () ->
        { Process.required = Process.all_required r; fire; halted = never_halted });
  }

(* --------------------------------------------------------------- *)
(* Shape -> block-level edge list                                   *)
(* --------------------------------------------------------------- *)

let base_edges ~rng spec =
  let n = block_count spec in
  match spec.shape with
  | Ring _ -> List.init n (fun i -> (i, (i + 1) mod n))
  | Mesh (r, c) ->
    let id row col = (row * c) + col in
    let es = ref [] in
    for row = r - 1 downto 0 do
      for col = c - 1 downto 0 do
        if col + 1 < c then es := (id row col, id row (col + 1)) :: !es;
        if row + 1 < r then es := (id row col, id (row + 1) col) :: !es
      done
    done;
    !es @ [ ((r * c) - 1, 0) ]
  | Torus (r, c) ->
    let id row col = (row * c) + col in
    let es = ref [] in
    for row = r - 1 downto 0 do
      for col = c - 1 downto 0 do
        es := (id row col, id row ((col + 1) mod c)) :: !es;
        es := (id row col, id ((row + 1) mod r) col) :: !es
      done
    done;
    !es
  | Rand _ ->
    let seen = Hashtbl.create (2 * n) in
    let es = ref [] in
    let add src dst =
      if not (Hashtbl.mem seen (src, dst)) then begin
        Hashtbl.add seen (src, dst) ();
        es := (src, dst) :: !es
      end
    in
    (* Backbone path plus the feedback closing it: strong connectivity
       and liveness come for free, extras only add constraints. *)
    for i = 0 to n - 2 do
      add i (i + 1)
    done;
    add (n - 1) 0;
    for _ = 1 to n / 2 do
      let src = Prng.int rng (n - 1) in
      let dst = Prng.int_in rng (src + 1) (n - 1) in
      add src dst
    done;
    for _ = 1 to max 1 (n / 8) do
      let src = Prng.int_in rng 1 (n - 1) in
      let dst = Prng.int rng src in
      add src dst
    done;
    List.rev !es

(* --------------------------------------------------------------- *)
(* Build                                                            *)
(* --------------------------------------------------------------- *)

type node_kind = Block of int | Slice of int * int | Pack of int * int
(* Slice/Pack carry (adapter index, lane count). *)

let build spec =
  Option.iter (fun e -> invalid_arg ("Topology.build: " ^ e)) (shape_error spec.shape);
  if spec.max_rs < 0 then invalid_arg "Topology.build: negative max_rs";
  let rng = Prng.create ~seed:(hash_string (digest spec)) in
  let edges = base_edges ~rng spec in
  let n_blocks = block_count spec in
  (* Expand adapter links; nodes beyond the blocks are adapter halves. *)
  let kinds = ref [] (* reversed tail beyond blocks *) in
  let n_nodes = ref n_blocks in
  let add_node k =
    let id = !n_nodes in
    kinds := k :: !kinds;
    incr n_nodes;
    id
  in
  let final = ref [] in
  (* (src, dst, rs, width), reversed *)
  let n_adapters = ref 0 in
  let draw_rs () = Prng.int rng (spec.max_rs + 1) in
  List.iter
    (fun (s, d) ->
      if spec.adapters && Prng.int rng 4 = 0 then begin
        let r = if Prng.bool rng then 2 else 4 in
        let idx = !n_adapters in
        incr n_adapters;
        let dn = add_node (Slice (idx, r)) in
        let up = add_node (Pack (idx, r)) in
        final := (s, dn, draw_rs (), word_bits) :: !final;
        for q = 0 to r - 1 do
          ignore q;
          final := (dn, up, draw_rs (), word_bits / r) :: !final
        done;
        final := (up, d, draw_rs (), word_bits) :: !final
      end
      else final := (s, d, draw_rs (), word_bits) :: !final)
    edges;
  let final = Array.of_list (List.rev !final) in
  let kinds =
    Array.append
      (Array.init n_blocks (fun i -> Block i))
      (Array.of_list (List.rev !kinds))
  in
  let n_nodes = !n_nodes in
  (* Port indices in channel order. *)
  let in_deg = Array.make n_nodes 0 and out_deg = Array.make n_nodes 0 in
  Array.iter
    (fun (s, d, _, _) ->
      out_deg.(s) <- out_deg.(s) + 1;
      in_deg.(d) <- in_deg.(d) + 1)
    final;
  let net = Network.create () in
  let nodes =
    Array.mapi
      (fun i kind ->
        let p =
          match kind with
          | Block id -> block_process ~id ~n_in:in_deg.(i) ~n_out:out_deg.(i)
          | Slice (idx, r) -> slice_process ~idx ~r
          | Pack (idx, r) -> pack_process ~idx ~r
        in
        Network.add net p)
      kinds
  in
  let next_in = Array.make n_nodes 0 and next_out = Array.make n_nodes 0 in
  Array.iteri
    (fun i (s, d, rs, width) ->
      let sp =
        match kinds.(s) with
        | Block _ | Slice _ -> Printf.sprintf "o%d" next_out.(s)
        | Pack _ -> "o"
      in
      let dp =
        match kinds.(d) with
        | Block _ | Pack _ -> Printf.sprintf "i%d" next_in.(d)
        | Slice _ -> "i"
      in
      next_out.(s) <- next_out.(s) + 1;
      next_in.(d) <- next_in.(d) + 1;
      ignore
        (Network.connect net
           ~src:(nodes.(s), sp)
           ~dst:(nodes.(d), dp)
           ~relay_stations:rs
           ~label:(Printf.sprintf "e%d:w%d" i width)
           ()))
    final;
  Network.validate net;
  net

let mcr = Wp_sim.Static.mcr

(* --------------------------------------------------------------- *)
(* Shrinking and repro                                              *)
(* --------------------------------------------------------------- *)

let shrink_shape = function
  | Ring n -> List.filter_map (fun n' -> if n' >= 2 && n' < n then Some (Ring n') else None) [ 2; n / 2; n - 1 ]
  | Mesh (r, c) ->
    List.filter_map
      (fun (r', c') ->
        if r' * c' >= 2 && r' * c' < r * c then Some (Mesh (r', c')) else None)
      [ (1, 2); (r / 2, c); (r, c / 2); (r - 1, c); (r, c - 1) ]
    @ (if r * c >= 2 then [ Ring (r * c) ] else [])
  | Torus (r, c) ->
    List.filter_map
      (fun (r', c') ->
        if r' >= 2 && c' >= 2 && r' * c' < r * c then Some (Torus (r', c'))
        else None)
      [ (2, 2); (r / 2, c); (r, c / 2); (r - 1, c); (r, c - 1) ]
    @ [ Mesh (r, c) ]
  | Rand n ->
    List.filter_map (fun n' -> if n' >= 2 && n' < n then Some (Rand n') else None) [ 2; n / 2; n - 1 ]
    @ [ Ring n ]

let shrink_candidates t =
  let shapes = List.map (fun s -> { t with shape = s }) (shrink_shape t.shape) in
  let opts =
    (if t.adapters then [ { t with adapters = false } ] else [])
    @ (if t.max_rs > 0 then [ { t with max_rs = 0 }; { t with max_rs = t.max_rs / 2 } ] else [])
    @ if t.seed <> 0 then [ { t with seed = 0 } ] else []
  in
  List.to_seq (shapes @ List.filter (fun t' -> t' <> t) opts)

let to_sexp t = Sexp.field "topology" (Sexp.atom (to_string t))
