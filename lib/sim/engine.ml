module Shell = Wp_lis.Shell
module Relay_station = Wp_lis.Relay_station
module Token = Wp_lis.Token
module Process = Wp_lis.Process

(* The reference interpreter: the executable spec every compiled kernel
   is tested against.  It keeps the object model ({!Shell},
   {!Relay_station}, {!Token}), the three phases in their order and the
   termination scan, and shares no code with the compiled kernels.  What
   it does not keep is per-cycle garbage: chains carry their endpoints,
   resolved at [create], and each cycle's emissions and relay outputs go
   into scratch that belongs to the run.  A cycle in which nothing fires
   allocates nothing; a firing allocates its tokens ([Token.Valid] and
   option boxes, the array [Shell.fire] returns) and whatever its
   process allocates. *)

type chain = {
  channel : Network.channel;
  src_node : Network.node;
  src_port : int;
  dst : Shell.t; (* the consumer *)
  dst_port : int;
  relays : int Relay_station.t array; (* index 0 nearest the producer *)
  relay_outs : int Token.t array; (* scratch: each relay's emission this cycle *)
  mutable delivered : int;
  (* scratch, refreshed each cycle *)
  mutable producer_stop : bool;
  mutable consumer_stop : bool;
  stage_stops : bool array; (* stop_in seen by each relay this cycle *)
  protected_ : bool; (* wire owned by the Link layer, relays bypassed *)
  link_can_accept : unit -> bool; (* preallocated consumer-side hooks *)
  mutable link_accept : int -> unit; (* tied after construction *)
}

type t = {
  net : Network.t;
  engine_mode : Shell.mode;
  shells : Shell.t array;
  chains : chain array;
  out_chains : chain array array; (* per node, in channel order *)
  emissions : int Token.t array array; (* per node: this cycle's [fire] or [stall] *)
  delivered_now : int array; (* per channel: telemetry's per-cycle read *)
  fault : Fault.t option;
  link : Link.t option;
  telemetry : Telemetry.t option;
  mutable clock : int;
  mutable quiet_cycles : int;
  quiescence : int;
}

type outcome =
  | Halted of int
  | Deadlocked of int
  | Exhausted of int
  | Cancelled of int

(* Cancellation-poll cadence shared by all engines: at 256 the
   uncancellable inner loop pays one land+branch per cycle, and an
   expired deadline still stops a run within a few microseconds of
   simulated work. *)
let cancel_interval = 256

let create ?(capacity = 2) ?(record_traces = false) ?fault
    ?(telemetry = Telemetry.off) ~mode net =
  Network.validate net;
  let fault_rt =
    match fault with
    | None -> None
    | Some spec when Fault.is_none spec -> None
    | Some spec -> Some (Fault.make spec ~n_chans:(Network.channel_count net))
  in
  let shells =
    Array.init (Network.node_count net) (fun n ->
        Shell.create ~capacity ~record_traces ~mode (Network.node_process net n))
  in
  let link = Link.make ?fault:fault_rt net in
  let chains =
    Array.of_list
      (List.map
         (fun c ->
           let rs = Network.relay_stations net c in
           let label = Network.channel_label net c in
           let src_node, src_port = Network.channel_src net c in
           let dst_node, dst_port = Network.channel_dst net c in
           let dst = shells.(dst_node) in
           let protected_ =
             match link with
             | Some l -> Link.is_protected l ~chan:c
             | None -> false
           in
           let chain =
             {
               channel = c;
               src_node;
               src_port;
               dst;
               dst_port;
               relays =
                 Array.init rs (fun i ->
                     Relay_station.create ~name:(Printf.sprintf "%s/rs%d" label i) ());
               relay_outs = Array.make rs Token.Void;
               delivered = 0;
               producer_stop = false;
               consumer_stop = false;
               stage_stops = Array.make rs false;
               protected_;
               link_can_accept = (fun () -> not (Shell.input_stop dst dst_port));
               link_accept = ignore;
             }
           in
           (* [link_accept] needs [chain] itself for the delivered count,
              so it is tied after construction. *)
           chain.link_accept <-
             (fun v ->
               chain.delivered <- chain.delivered + 1;
               Shell.accept dst ~port:dst_port (Token.Valid v));
           chain)
         (Network.channels net))
  in
  let out_chains =
    let lists = Array.make (Network.node_count net) [] in
    for i = Array.length chains - 1 downto 0 do
      let ch = chains.(i) in
      lists.(ch.src_node) <- ch :: lists.(ch.src_node)
    done;
    Array.map Array.of_list lists
  in
  let total_rs =
    List.fold_left (fun acc c -> acc + Network.relay_stations net c) 0 (Network.channels net)
  in
  let quiescence =
    16
    + (4 * (Network.node_count net + Network.channel_count net + total_rs))
    + (match link with Some l -> Link.quiescence_bonus l | None -> 0)
  in
  (* Reset: one initial token per channel = the reset value of the
     producer's output register, latched in the consumer FIFO. *)
  Array.iter
    (fun ch ->
      let reset_value =
        (Network.node_process net ch.src_node).Process.reset_outputs.(ch.src_port)
      in
      Shell.accept ch.dst ~port:ch.dst_port (Token.Valid reset_value);
      match fault_rt with
      | Some f -> Fault.note_reset f ~chan:ch.channel ~value:reset_value
      | None -> ())
    chains;
  {
    net;
    engine_mode = mode;
    shells;
    chains;
    out_chains;
    emissions = Array.make (Array.length shells) [||];
    delivered_now = Array.make (Array.length chains) 0;
    fault = fault_rt;
    link;
    telemetry = Telemetry.make telemetry net;
    clock = 0;
    quiet_cycles = 0;
    quiescence;
  }

let cycles t = t.clock
let mode t = t.engine_mode
let network t = t.net
let shell t n = t.shells.(n)

let delivered t c =
  let chain = t.chains.(c) in
  chain.delivered

let fault_injections t =
  match t.fault with Some f -> Fault.injections f | None -> 0

let link_summary t = Option.map Link.summary t.link

let telemetry_report t =
  Option.map
    (fun tl -> Telemetry.report_of tl ~link:(link_summary t))
    t.telemetry

(* Phase 1: propagate stops backwards along one channel. *)
let compute_stops t chain =
  if chain.protected_ then begin
    (* The Link layer owns the wire: the producer stalls on replay
       window exhaustion or missing credits, never on a propagated stop
       (benign fault stalls freeze the link wire inside [channel_step]
       instead). *)
    chain.consumer_stop <- false;
    chain.producer_stop <-
      (match t.link with
      | Some l -> Link.producer_stop l ~chan:chain.channel
      | None -> false)
  end
  else begin
  chain.consumer_stop <-
    (Shell.input_stop chain.dst chain.dst_port
    ||
    match t.fault with
    | None -> false
    | Some f -> Fault.stalled f ~cycle:t.clock ~chan:chain.channel);
  let k = Array.length chain.relays in
  let stop = ref chain.consumer_stop in
  for i = k - 1 downto 0 do
    chain.stage_stops.(i) <- !stop;
    stop := Relay_station.stop_out chain.relays.(i) ~stop_in:!stop
  done;
  chain.producer_stop <- !stop
  end

(* The index of a node's first out-chain that stops its producer this
   cycle, in channel order (the order the Fast kernel's CSR rows scan);
   [Array.length chains] when every output accepts. *)
let rec first_stopped chains i =
  if i = Array.length chains || chains.(i).producer_stop then i
  else first_stopped chains (i + 1)

(* Phase 2 for one node: fire or stall, and leave its output tokens in
   [t.emissions]. *)
let decide t n =
  let sh = t.shells.(n) and outs = t.out_chains.(n) in
  let stopped = first_stopped outs 0 in
  let outputs_clear = stopped = Array.length outs in
  let ready = Shell.ready sh in
  let fired = ready && outputs_clear in
  (match t.telemetry with
  | None -> ()
  | Some tl ->
      let oracle_ready = (not ready) && outputs_clear && Shell.oracle_ready sh in
      let link_blocked = ready && (not outputs_clear) && outs.(stopped).protected_ in
      (Telemetry.cls_scratch tl).(n) <-
        Telemetry.cls_code
          (Telemetry.classify ~fired ~ready ~outputs_clear ~oracle_ready ~link_blocked));
  t.emissions.(n) <-
    (if fired then Shell.fire sh else Shell.stall sh ~reason:(if ready then `Output else `Input));
  fired

let token_value = function Token.Valid v -> v | Token.Void -> 0

(* Phase 3 for one chain: shift its relays and hand the consumer what
   leaves the last one. *)
let move t chain =
  let produced = t.emissions.(chain.src_node).(chain.src_port) in
  if chain.protected_ then begin
    let link = match t.link with Some l -> l | None -> assert false in
    Link.channel_step link ~chan:chain.channel ~cycle:t.clock
      ~produced_valid:(Token.is_valid produced) ~produced_value:(token_value produced)
      ~can_accept:chain.link_can_accept ~accept:chain.link_accept
  end
  else begin
  let k = Array.length chain.relays in
  let to_consumer =
    if k = 0 then produced
    else begin
      for i = 0 to k - 1 do
        chain.relay_outs.(i) <- Relay_station.emit chain.relays.(i) ~stop_in:chain.stage_stops.(i)
      done;
      Relay_station.accept chain.relays.(0) produced;
      for i = 1 to k - 1 do
        Relay_station.accept chain.relays.(i) chain.relay_outs.(i - 1)
      done;
      chain.relay_outs.(k - 1)
    end
  in
  match t.fault with
  | None ->
      if Token.is_valid to_consumer then chain.delivered <- chain.delivered + 1;
      Shell.accept chain.dst ~port:chain.dst_port to_consumer
  | Some f ->
      Fault.deliver f ~chan:chain.channel ~valid:(Token.is_valid to_consumer)
        ~value:(token_value to_consumer) ~can_accept:chain.link_can_accept
        ~accept:chain.link_accept
  end

let step t =
  for i = 0 to Array.length t.chains - 1 do
    compute_stops t t.chains.(i)
  done;
  (match t.telemetry with
  | None -> ()
  | Some tl ->
      (* Start-of-cycle observables: consumer-FIFO depth and the
         producer-visible stop, per channel. *)
      let occ = Telemetry.occ_scratch tl and stop = Telemetry.stop_scratch tl in
      for i = 0 to Array.length t.chains - 1 do
        let chain = t.chains.(i) in
        occ.(chain.channel) <- Shell.buffered chain.dst chain.dst_port;
        stop.(chain.channel) <- chain.producer_stop
      done);
  (* Phase 2: firing decisions; every node's output tokens. *)
  let fired_any = ref false in
  for n = 0 to Array.length t.shells - 1 do
    if decide t n then fired_any := true
  done;
  (* Phase 3: move tokens.  All of a chain's relay emissions are taken
     before any of its relays accepts, so the shift is simultaneous. *)
  for i = 0 to Array.length t.chains - 1 do
    move t t.chains.(i)
  done;
  (match t.telemetry with
  | None -> ()
  | Some tl ->
      for i = 0 to Array.length t.chains - 1 do
        let chain = t.chains.(i) in
        t.delivered_now.(chain.channel) <- chain.delivered
      done;
      Telemetry.commit_cycle tl ~delivered:t.delivered_now);
  t.clock <- t.clock + 1;
  if !fired_any then t.quiet_cycles <- 0 else t.quiet_cycles <- t.quiet_cycles + 1

let any_halted t = Array.exists Shell.halted t.shells

let run ?(cancel = Wp_util.Cancel.never) ?(max_cycles = 1_000_000) t =
  let poll = not (Wp_util.Cancel.is_never cancel) in
  let rec loop () =
    if any_halted t then Halted t.clock
    else if t.quiet_cycles > t.quiescence then Deadlocked t.clock
    else if t.clock >= max_cycles then Exhausted t.clock
    else if
      poll && t.clock land (cancel_interval - 1) = 0
      && Wp_util.Cancel.cancelled cancel
    then Cancelled t.clock
    else begin
      step t;
      loop ()
    end
  in
  loop ()
