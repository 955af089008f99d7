module Shell = Wp_lis.Shell
module Relay_station = Wp_lis.Relay_station
module Token = Wp_lis.Token
module Process = Wp_lis.Process

type chain = {
  channel : Network.channel;
  relays : int Relay_station.t array; (* index 0 nearest the producer *)
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
  out_channels : Network.channel list array; (* per node *)
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
           let dst_node, dst_port = Network.channel_dst net c in
           let sh = shells.(dst_node) in
           let protected_ =
             match link with
             | Some l -> Link.is_protected l ~chan:c
             | None -> false
           in
           let chain =
             {
               channel = c;
               relays =
                 Array.init rs (fun i ->
                     Relay_station.create ~name:(Printf.sprintf "%s/rs%d" label i) ());
               delivered = 0;
               producer_stop = false;
               consumer_stop = false;
               stage_stops = Array.make rs false;
               protected_;
               link_can_accept = (fun () -> not (Shell.input_stop sh dst_port));
               link_accept = ignore;
             }
           in
           (* [link_accept] needs [chain] itself for the delivered count,
              so it is tied after construction. *)
           chain.link_accept <-
             (fun v ->
               chain.delivered <- chain.delivered + 1;
               Shell.accept sh ~port:dst_port (Token.Valid v));
           chain)
         (Network.channels net))
  in
  let out_channels = Array.make (Network.node_count net) [] in
  List.iter
    (fun c ->
      let src, _ = Network.channel_src net c in
      out_channels.(src) <- c :: out_channels.(src))
    (List.rev (Network.channels net));
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
      let src_node, src_port = Network.channel_src net ch.channel in
      let dst_node, dst_port = Network.channel_dst net ch.channel in
      let reset_value = (Network.node_process net src_node).Process.reset_outputs.(src_port) in
      Shell.accept shells.(dst_node) ~port:dst_port (Token.Valid reset_value);
      match fault_rt with
      | Some f -> Fault.note_reset f ~chan:ch.channel ~value:reset_value
      | None -> ())
    chains;
  {
    net;
    engine_mode = mode;
    shells;
    chains;
    out_channels;
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
  let dst_node, dst_port = Network.channel_dst t.net chain.channel in
  chain.consumer_stop <-
    (Shell.input_stop t.shells.(dst_node) dst_port
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

let step t =
  Array.iter (fun chain -> compute_stops t chain) t.chains;
  (match t.telemetry with
  | None -> ()
  | Some tl ->
      (* Start-of-cycle observables: consumer-FIFO depth and the
         producer-visible stop, per channel. *)
      let occ = Telemetry.occ_scratch tl and stop = Telemetry.stop_scratch tl in
      Array.iter
        (fun chain ->
          let dst_node, dst_port = Network.channel_dst t.net chain.channel in
          occ.(chain.channel) <- Shell.buffered t.shells.(dst_node) dst_port;
          stop.(chain.channel) <- chain.producer_stop)
        t.chains);
  (* Phase 2: firing decisions; collect every node's output tokens. *)
  let fired_any = ref false in
  let emissions =
    Array.mapi
      (fun n sh ->
        let outputs_clear =
          List.for_all (fun c -> not t.chains.(c).producer_stop) t.out_channels.(n)
        in
        let ready = Shell.ready sh in
        let fired = ready && outputs_clear in
        (match t.telemetry with
        | None -> ()
        | Some tl ->
            let oracle_ready =
              (not ready) && outputs_clear && Shell.oracle_ready sh
            in
            let link_blocked =
              ready && (not outputs_clear)
              &&
              (* first refusing output channel, in channel order — the
                 same scan order the Fast kernel's CSR rows use *)
              match
                List.find_opt
                  (fun c -> t.chains.(c).producer_stop)
                  t.out_channels.(n)
              with
              | Some c -> t.chains.(c).protected_
              | None -> false
            in
            (Telemetry.cls_scratch tl).(n) <-
              Telemetry.cls_code
                (Telemetry.classify ~fired ~ready ~outputs_clear ~oracle_ready
                   ~link_blocked));
        if fired then begin
          fired_any := true;
          Shell.fire sh
        end
        else Shell.stall sh ~reason:(if ready then `Output else `Input))
      t.shells
  in
  (* Phase 3: move tokens.  All relay emissions are computed before any
     acceptance so the shift is simultaneous. *)
  Array.iter
    (fun chain ->
      let src_node, src_port = Network.channel_src t.net chain.channel in
      let dst_node, dst_port = Network.channel_dst t.net chain.channel in
      let produced = emissions.(src_node).(src_port) in
      if chain.protected_ then begin
        let link = match t.link with Some l -> l | None -> assert false in
        let produced_valid, produced_value =
          match produced with
          | Token.Valid v -> (true, v)
          | Token.Void -> (false, 0)
        in
        Link.channel_step link ~chan:chain.channel ~cycle:t.clock
          ~produced_valid ~produced_value ~can_accept:chain.link_can_accept
          ~accept:chain.link_accept
      end
      else begin
      let k = Array.length chain.relays in
      let to_consumer =
        if k = 0 then produced
        else begin
          let outs =
            Array.mapi
              (fun i rs -> Relay_station.emit rs ~stop_in:chain.stage_stops.(i))
              chain.relays
          in
          Relay_station.accept chain.relays.(0) produced;
          for i = 1 to k - 1 do
            Relay_station.accept chain.relays.(i) outs.(i - 1)
          done;
          outs.(k - 1)
        end
      in
      (match t.fault with
      | None ->
          if Token.is_valid to_consumer then
            chain.delivered <- chain.delivered + 1;
          Shell.accept t.shells.(dst_node) ~port:dst_port to_consumer
      | Some f ->
          let sh = t.shells.(dst_node) in
          let valid, value =
            match to_consumer with
            | Token.Valid v -> (true, v)
            | Token.Void -> (false, 0)
          in
          Fault.deliver f ~chan:chain.channel ~valid ~value
            ~can_accept:(fun () -> not (Shell.input_stop sh dst_port))
            ~accept:(fun v ->
              chain.delivered <- chain.delivered + 1;
              Shell.accept sh ~port:dst_port (Token.Valid v)))
      end)
    t.chains;
  (match t.telemetry with
  | None -> ()
  | Some tl ->
      Telemetry.commit_cycle tl
        ~delivered:(Array.map (fun chain -> chain.delivered) t.chains));
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
