module Shell = Wp_lis.Shell

type kind =
  | Reference
  | Fast

let kind_to_string = function
  | Reference -> "ref"
  | Fast -> "fast"

let kind_of_string = function
  | "ref" | "reference" -> Some Reference
  | "fast" -> Some Fast
  | _ -> None

let default_kind () =
  match Sys.getenv_opt "WIREPIPE_ENGINE" with
  | None | Some "" -> Fast
  | Some s -> (
    match kind_of_string (String.lowercase_ascii s) with
    | Some k -> k
    | None -> invalid_arg (Printf.sprintf "WIREPIPE_ENGINE must be 'fast' or 'ref', got %S" s))

type t =
  | Ref of Engine.t
  | Fst of Fast.t
  | Rep of Network.t * Static.t

let kind = function Ref _ -> Reference | Fst _ | Rep _ -> Fast
let of_engine e = Ref e

(* The one routing rule: an unfaulted, uninstrumented [Fast] run
   replays; a fault or telemetry, or a configuration the replay refuses
   (capacity 0, link protection, a Plain recording with no periodic
   steady state), steps the handshake. *)
let create ?engine ?capacity ?record_traces ?(fault = Fault.none)
    ?(telemetry = Telemetry.off) ~mode net =
  let engine = match engine with Some k -> k | None -> default_kind () in
  let handshake () = Fst (Fast.create ?capacity ?record_traces ~fault ~telemetry ~mode net) in
  match engine with
  | Reference -> Ref (Engine.create ?capacity ?record_traces ~fault ~telemetry ~mode net)
  | Fast when Fault.is_none fault && Telemetry.is_off telemetry -> (
    match Static.create ?capacity ?record_traces ~mode net with
    | s -> Rep (net, s)
    | exception Static.Unschedulable _ -> handshake ())
  | Fast -> handshake ()

let run ?cancel ?max_cycles = function
  | Ref e -> Engine.run ?cancel ?max_cycles e
  | Fst f -> Fast.run ?cancel ?max_cycles f
  | Rep (_, s) -> Static.run ?cancel ?max_cycles s

let cycles = function
  | Ref e -> Engine.cycles e
  | Fst f -> Fast.cycles f
  | Rep (_, s) -> Static.cycles s

let network = function
  | Ref e -> Engine.network e
  | Fst f -> Fast.network f
  | Rep (net, _) -> net

let delivered t c =
  match t with
  | Ref e -> Engine.delivered e c
  | Fst f -> Fast.delivered f c
  | Rep (_, s) -> Static.delivered s c

let fault_injections = function
  | Ref e -> Engine.fault_injections e
  | Fst f -> Fast.fault_injections f
  | Rep _ -> 0

let link_summary = function
  | Ref e -> Engine.link_summary e
  | Fst f -> Fast.link_summary f
  | Rep _ -> None

let telemetry_report = function
  | Ref e -> Engine.telemetry_report e
  | Fst f -> Fast.telemetry_report f
  | Rep _ -> None

let node_stats t n =
  match t with
  | Ref e -> Shell.stats (Engine.shell e n)
  | Fst f -> Fast.node_stats f n
  | Rep (_, s) -> Static.node_stats s n

let output_trace t n p =
  match t with
  | Ref e -> Shell.output_trace (Engine.shell e n) p
  | Fst f -> Fast.output_trace f n p
  | Rep (_, s) -> Static.output_trace s n p
