module Shell = Wp_lis.Shell

type kind =
  | Reference
  | Fast
  | Static

let kind_to_string = function
  | Reference -> "ref"
  | Fast -> "fast"
  | Static -> "static"

let kind_of_string = function
  | "ref" | "reference" -> Some Reference
  | "fast" -> Some Fast
  | "static" -> Some Static
  | _ -> None

let default_kind =
  match Sys.getenv_opt "WIREPIPE_ENGINE" with
  | Some s -> (match kind_of_string (String.lowercase_ascii s) with Some k -> k | None -> Fast)
  | None -> Fast

type t =
  | Ref of Engine.t
  | Fst of Fast.t
  | Sta of Static.t

let kind = function Ref _ -> Reference | Fst _ -> Fast | Sta _ -> Static
let of_engine e = Ref e

let create ?(engine = default_kind) ?capacity ?record_traces ?fault ?telemetry
    ~mode net =
  match engine with
  | Reference ->
      Ref (Engine.create ?capacity ?record_traces ?fault ?telemetry ~mode net)
  | Fast ->
      Fst (Fast.create ?capacity ?record_traces ?fault ?telemetry ~mode net)
  | Static ->
      Sta (Static.create ?capacity ?record_traces ?fault ?telemetry ~mode net)

let run ?cancel ?max_cycles = function
  | Ref e -> Engine.run ?cancel ?max_cycles e
  | Fst f -> Fast.run ?cancel ?max_cycles f
  | Sta s -> Static.run ?cancel ?max_cycles s

let cycles = function
  | Ref e -> Engine.cycles e
  | Fst f -> Fast.cycles f
  | Sta s -> Static.cycles s

let network = function
  | Ref e -> Engine.network e
  | Fst f -> Fast.network f
  | Sta s -> Static.network s

let delivered t c =
  match t with
  | Ref e -> Engine.delivered e c
  | Fst f -> Fast.delivered f c
  | Sta s -> Static.delivered s c

(* A statically scheduled run has no faults, link layer or telemetry. *)
let fault_injections = function
  | Ref e -> Engine.fault_injections e
  | Fst f -> Fast.fault_injections f
  | Sta _ -> 0

let link_summary = function
  | Ref e -> Engine.link_summary e
  | Fst f -> Fast.link_summary f
  | Sta _ -> None

let telemetry_report = function
  | Ref e -> Engine.telemetry_report e
  | Fst f -> Fast.telemetry_report f
  | Sta _ -> None

let node_stats t n =
  match t with
  | Ref e -> Shell.stats (Engine.shell e n)
  | Fst f -> Fast.node_stats f n
  | Sta s -> Static.node_stats s n

let output_trace t n p =
  match t with
  | Ref e -> Shell.output_trace (Engine.shell e n) p
  | Fst f -> Fast.output_trace f n p
  | Sta s -> Static.output_trace s n p
