(* Recoverable channel layer: sequence numbers + CRC + go-back-N ARQ +
   credit flow control.  See link.mli for the protocol overview.

   Implementation notes:

   - All state is struct-of-arrays indexed by channel id; unprotected
     channels get 0-length dummies so lookups never branch on option.
   - The per-cycle path ([channel_step] + [receive]) allocates nothing:
     frames move through preallocated delay-line rings, the
     transmit/arrival frame lives in mutable scratch fields on [t], and
     [receive] is a toplevel function rather than a closure.
   - Both engines drive the same [t] API in the same channel order, so
     every protocol decision is shared and the engines stay
     byte-identical under protection. *)

type t = {
  fault : Fault.t option;
  protected_ : bool array;
  window : int array;
  timeout : int array;
  fwd_lat : int array; (* = rs_count: same latency as the chain it replaces *)
  ack_lat : int array; (* = rs_count + 1: ack path is never combinational *)
  (* sender *)
  replay : int array array; (* window slots of unacked payloads *)
  s_base : int array; (* oldest unacknowledged sequence number *)
  s_next_tx : int array; (* next sequence number to (re)transmit *)
  s_next_new : int array; (* sequence number of the next admission *)
  s_credits : int array;
  s_timer : int array;
  s_nak_base : int array; (* last base a NAK was honoured for *)
  s_hi_tx : int array; (* 1 + highest sequence number ever transmitted *)
  (* forward wire: delay line of length fwd_lat (0 = combinational) *)
  w_seq : int array array;
  w_pay : int array array;
  w_crc : int array array;
  w_valid : bool array array;
  w_head : int array;
  (* ack wire: delay line of length ack_lat >= 1 *)
  a_ack : int array array; (* cumulative ack: highest in-order seq *)
  a_nak : bool array array;
  a_credit : int array array;
  a_valid : bool array array;
  a_head : int array;
  (* receiver *)
  rwin : int array array; (* in-order payloads awaiting the consumer *)
  r_head : int array;
  r_len : int array;
  r_expected : int array;
  r_nak_pending : bool array;
  r_credit_pending : int array;
  (* last raw frame seen on the wire, for Spurious replay *)
  l_seq : int array;
  l_pay : int array;
  l_crc : int array;
  l_has : bool array;
  (* recovery-latency measurement *)
  rec_pending : bool array;
  rec_start : int array;
  (* per-channel statistics *)
  st_sent : int array;
  st_retrans : int array;
  st_timeouts : int array;
  st_naks : int array;
  st_crc_fail : int array;
  st_dedup : int array;
  st_recoveries : int array;
  st_max_rec : int array;
  (* per-cycle frame scratch (no tuples on the hot path) *)
  mutable sc_valid : bool;
  mutable sc_seq : int;
  mutable sc_pay : int;
  mutable sc_crc : int;
}

(* --- CRC ------------------------------------------------------------ *)

(* Native-int avalanche of the sequence number (boxed Int64 arithmetic
   would reintroduce steady-state allocation in the Fast kernel).  The
   tag's statistical quality is incidental: detection certainty below
   comes from the xor, not from the hash. *)
let seq_tag seq =
  let z = seq + 0x9E3779B9 in
  let z = (z lxor (z lsr 30)) * 0x45D9F3B3335B369 in
  let z = (z lxor (z lsr 27)) * 0x3335B36945D9F3B in
  z lxor (z lsr 31)

(* [crc ~seq ~pay] = pay lxor tag(seq): for a fixed sequence number the
   map payload -> crc is a bijection, so ANY payload mutation (the fault
   layer's [lxor 1] in particular) is detected with certainty, not just
   with high probability. *)
let crc ~seq ~pay = pay lxor seq_tag seq

(* --- construction --------------------------------------------------- *)

let auto_window ~rs = max 8 (4 * (rs + 1))
let auto_timeout ~rs = max (8 + (4 * (rs + 1))) ((2 * rs) + 4)

let make ?fault net =
  let n = Network.channel_count net in
  let any = ref false in
  for c = 0 to n - 1 do
    if Network.protection net c <> None then any := true
  done;
  if not !any then None
  else begin
    let protected_ = Array.make n false in
    let window = Array.make n 0 in
    let timeout = Array.make n 0 in
    let fwd_lat = Array.make n 0 in
    let ack_lat = Array.make n 1 in
    let empty_i = [||] and empty_b = [||] in
    let replay = Array.make n empty_i in
    let w_seq = Array.make n empty_i in
    let w_pay = Array.make n empty_i in
    let w_crc = Array.make n empty_i in
    let w_valid = Array.make n empty_b in
    let a_ack = Array.make n empty_i in
    let a_nak = Array.make n empty_b in
    let a_credit = Array.make n empty_i in
    let a_valid = Array.make n empty_b in
    let rwin = Array.make n empty_i in
    let s_credits = Array.make n 0 in
    for c = 0 to n - 1 do
      match Network.protection net c with
      | None -> ()
      | Some { Network.window = w; timeout = tmo } ->
          let rs = Network.relay_stations net c in
          let w = if w > 0 then w else auto_window ~rs in
          let tmo =
            max (if tmo > 0 then tmo else auto_timeout ~rs) ((2 * rs) + 4)
          in
          protected_.(c) <- true;
          window.(c) <- w;
          timeout.(c) <- tmo;
          fwd_lat.(c) <- rs;
          ack_lat.(c) <- rs + 1;
          replay.(c) <- Array.make w 0;
          w_seq.(c) <- Array.make rs 0;
          w_pay.(c) <- Array.make rs 0;
          w_crc.(c) <- Array.make rs 0;
          w_valid.(c) <- Array.make rs false;
          a_ack.(c) <- Array.make (rs + 1) (-1);
          a_nak.(c) <- Array.make (rs + 1) false;
          a_credit.(c) <- Array.make (rs + 1) 0;
          a_valid.(c) <- Array.make (rs + 1) false;
          rwin.(c) <- Array.make w 0;
          s_credits.(c) <- w
    done;
    Some
      {
        fault;
        protected_;
        window;
        timeout;
        fwd_lat;
        ack_lat;
        replay;
        s_base = Array.make n 0;
        s_next_tx = Array.make n 0;
        s_next_new = Array.make n 0;
        s_credits;
        s_timer = Array.make n 0;
        s_nak_base = Array.make n (-1);
        s_hi_tx = Array.make n 0;
        w_seq;
        w_pay;
        w_crc;
        w_valid;
        w_head = Array.make n 0;
        a_ack;
        a_nak;
        a_credit;
        a_valid;
        a_head = Array.make n 0;
        rwin;
        r_head = Array.make n 0;
        r_len = Array.make n 0;
        r_expected = Array.make n 0;
        r_nak_pending = Array.make n false;
        r_credit_pending = Array.make n 0;
        l_seq = Array.make n 0;
        l_pay = Array.make n 0;
        l_crc = Array.make n 0;
        l_has = Array.make n false;
        rec_pending = Array.make n false;
        rec_start = Array.make n 0;
        st_sent = Array.make n 0;
        st_retrans = Array.make n 0;
        st_timeouts = Array.make n 0;
        st_naks = Array.make n 0;
        st_crc_fail = Array.make n 0;
        st_dedup = Array.make n 0;
        st_recoveries = Array.make n 0;
        st_max_rec = Array.make n 0;
        sc_valid = false;
        sc_seq = 0;
        sc_pay = 0;
        sc_crc = 0;
      }
  end

let is_protected t ~chan = t.protected_.(chan)

let producer_stop t ~chan =
  t.s_next_new.(chan) - t.s_base.(chan) >= t.window.(chan)
  || t.s_credits.(chan) <= 0

let quiescence_bonus t =
  let bonus = ref 0 in
  for c = 0 to Array.length t.protected_ - 1 do
    if t.protected_.(c) then begin
      let rtt = t.fwd_lat.(c) + t.ack_lat.(c) in
      let b = (4 * t.timeout.(c)) + (4 * rtt) + 32 in
      if b > !bonus then bonus := b
    end
  done;
  !bonus

(* --- receiver ------------------------------------------------------- *)

let start_recovery t c cycle =
  if not t.rec_pending.(c) then begin
    t.rec_pending.(c) <- true;
    t.rec_start.(c) <- cycle
  end

(* Process one frame arriving at the receiver end of channel [c]. *)
let receive t c cycle seq pay crc_v =
  (* remember the raw frame so a Spurious fault can replay it *)
  t.l_seq.(c) <- seq;
  t.l_pay.(c) <- pay;
  t.l_crc.(c) <- crc_v;
  t.l_has.(c) <- true;
  if crc_v <> crc ~seq ~pay then begin
    (* corrupted in flight: discard, demand a go-back *)
    t.st_crc_fail.(c) <- t.st_crc_fail.(c) + 1;
    t.r_nak_pending.(c) <- true;
    start_recovery t c cycle
  end
  else if seq < t.r_expected.(c) then
    (* stale duplicate (retransmission overlap, Dup or Spurious fault) *)
    t.st_dedup.(c) <- t.st_dedup.(c) + 1
  else if seq > t.r_expected.(c) then begin
    (* gap: a frame was lost ahead of this one; go-back-N discards the
       out-of-order frame and NAKs *)
    t.r_nak_pending.(c) <- true;
    start_recovery t c cycle
  end
  else begin
    (* in-order: queue for the consumer *)
    let w = t.window.(c) in
    if t.r_len.(c) >= w then
      failwith "Link: receive window overflow (credit protocol violated)";
    t.rwin.(c).((t.r_head.(c) + t.r_len.(c)) mod w) <- pay;
    t.r_len.(c) <- t.r_len.(c) + 1;
    t.r_expected.(c) <- seq + 1;
    if t.rec_pending.(c) then begin
      t.rec_pending.(c) <- false;
      t.st_recoveries.(c) <- t.st_recoveries.(c) + 1;
      let lat = cycle - t.rec_start.(c) in
      if lat > t.st_max_rec.(c) then t.st_max_rec.(c) <- lat
    end
  end

(* --- per-cycle step ------------------------------------------------- *)

let channel_step t ~chan:c ~cycle ~produced_valid ~produced_value ~can_accept
    ~accept =
  (* 0. admit the producer's emission into the replay buffer.  The
     engine only lets the producer fire when [producer_stop] was false,
     so a replay slot and a credit are guaranteed. *)
  if produced_valid then begin
    let w = t.window.(c) in
    if t.s_next_new.(c) - t.s_base.(c) >= w || t.s_credits.(c) <= 0 then
      failwith "Link: admission without window/credit (stop protocol violated)";
    t.replay.(c).(t.s_next_new.(c) mod w) <- produced_value;
    t.s_next_new.(c) <- t.s_next_new.(c) + 1;
    t.s_credits.(c) <- t.s_credits.(c) - 1
  end;
  let stalled =
    match t.fault with
    | Some f -> Fault.stalled f ~cycle ~chan:c
    | None -> false
  in
  if not stalled then begin
    (* 1. ack-wire exit: the record emitted ack_lat cycles ago. *)
    let ah = t.a_head.(c) in
    if t.a_valid.(c).(ah) then begin
      let ack = t.a_ack.(c).(ah) in
      t.s_credits.(c) <- t.s_credits.(c) + t.a_credit.(c).(ah);
      if ack >= t.s_base.(c) then begin
        t.s_base.(c) <- ack + 1;
        t.s_timer.(c) <- 0;
        if t.s_next_tx.(c) < t.s_base.(c) then t.s_next_tx.(c) <- t.s_base.(c)
      end;
      if
        t.a_nak.(c).(ah)
        && t.s_nak_base.(c) < t.s_base.(c)
        && t.s_base.(c) < t.s_next_new.(c)
      then begin
        (* honour one NAK per base value; repeats for the same base are
           redundant go-backs already in flight (timeout is the
           backstop if this go-back is itself lost) *)
        t.s_nak_base.(c) <- t.s_base.(c);
        t.s_next_tx.(c) <- t.s_base.(c);
        t.s_timer.(c) <- 0
      end
    end;
    (* 2. retransmission timeout. *)
    if t.s_base.(c) < t.s_next_new.(c) then begin
      t.s_timer.(c) <- t.s_timer.(c) + 1;
      if t.s_timer.(c) >= t.timeout.(c) then begin
        t.s_timer.(c) <- 0;
        t.s_next_tx.(c) <- t.s_base.(c);
        t.st_timeouts.(c) <- t.st_timeouts.(c) + 1;
        start_recovery t c cycle
      end
    end
    else t.s_timer.(c) <- 0;
    (* 3. transmit (at most one frame per cycle) into the scratch. *)
    t.sc_valid <- false;
    if t.s_next_tx.(c) < t.s_next_new.(c) then begin
      let s = t.s_next_tx.(c) in
      let p = t.replay.(c).(s mod t.window.(c)) in
      t.st_sent.(c) <- t.st_sent.(c) + 1;
      if s < t.s_hi_tx.(c) then t.st_retrans.(c) <- t.st_retrans.(c) + 1
      else t.s_hi_tx.(c) <- s + 1;
      t.s_next_tx.(c) <- s + 1;
      t.sc_valid <- true;
      t.sc_seq <- s;
      t.sc_pay <- p;
      t.sc_crc <- crc ~seq:s ~pay:p
    end;
    (* 4. forward-wire shift: exchange the scratch with the slot written
       fwd_lat cycles ago (fwd_lat = 0 passes straight through). *)
    let f = t.fwd_lat.(c) in
    if f > 0 then begin
      let h = t.w_head.(c) in
      let ev = t.w_valid.(c).(h)
      and es = t.w_seq.(c).(h)
      and ep = t.w_pay.(c).(h)
      and ec = t.w_crc.(c).(h) in
      t.w_valid.(c).(h) <- t.sc_valid;
      t.w_seq.(c).(h) <- t.sc_seq;
      t.w_pay.(c).(h) <- t.sc_pay;
      t.w_crc.(c).(h) <- t.sc_crc;
      t.w_head.(c) <- (h + 1) mod f;
      t.sc_valid <- ev;
      t.sc_seq <- es;
      t.sc_pay <- ep;
      t.sc_crc <- ec
    end;
    (* 5. fault application on the frame leaving the wire, then 6. the
       receiver processes whatever physically arrives. *)
    (match t.fault with
    | None ->
        if t.sc_valid then receive t c cycle t.sc_seq t.sc_pay t.sc_crc
    | Some fa ->
        if t.sc_valid then (
          match Fault.break_at_arrival fa ~chan:c with
          | Some Fault.Drop -> Fault.record_injection fa
          | Some Fault.Corrupt ->
              Fault.record_injection fa;
              receive t c cycle t.sc_seq (t.sc_pay lxor 1) t.sc_crc
          | Some Fault.Dup ->
              Fault.record_injection fa;
              receive t c cycle t.sc_seq t.sc_pay t.sc_crc;
              receive t c cycle t.sc_seq t.sc_pay t.sc_crc
          | Some Fault.Spurious | None ->
              (* Spurious keys on void wire slots, inert here *)
              receive t c cycle t.sc_seq t.sc_pay t.sc_crc)
        else if Fault.spurious_at_void fa ~chan:c && t.l_has.(c) then begin
          Fault.record_injection fa;
          receive t c cycle t.l_seq.(c) t.l_pay.(c) t.l_crc.(c)
        end);
    (* 7. drain at most one in-order payload to the consumer shell. *)
    if t.r_len.(c) > 0 && can_accept () then begin
      accept t.rwin.(c).(t.r_head.(c));
      t.r_head.(c) <- (t.r_head.(c) + 1) mod t.window.(c);
      t.r_len.(c) <- t.r_len.(c) - 1;
      t.r_credit_pending.(c) <- t.r_credit_pending.(c) + 1
    end;
    (* 8. emit this cycle's ack record into the slot freed in step 1. *)
    let ah = t.a_head.(c) in
    t.a_valid.(c).(ah) <- true;
    t.a_ack.(c).(ah) <- t.r_expected.(c) - 1;
    t.a_nak.(c).(ah) <- t.r_nak_pending.(c);
    t.a_credit.(c).(ah) <- t.r_credit_pending.(c);
    if t.r_nak_pending.(c) then t.st_naks.(c) <- t.st_naks.(c) + 1;
    t.r_nak_pending.(c) <- false;
    t.r_credit_pending.(c) <- 0;
    t.a_head.(c) <- (ah + 1) mod t.ack_lat.(c)
  end

(* --- measurement ---------------------------------------------------- *)

type summary = {
  protected_channels : int;
  frames_sent : int;
  retransmissions : int;
  timeouts : int;
  naks : int;
  crc_detected : int;
  dedup_drops : int;
  recoveries : int;
  max_recovery_latency : int;
}

let summary t =
  let s =
    ref
      {
        protected_channels = 0;
        frames_sent = 0;
        retransmissions = 0;
        timeouts = 0;
        naks = 0;
        crc_detected = 0;
        dedup_drops = 0;
        recoveries = 0;
        max_recovery_latency = 0;
      }
  in
  for c = 0 to Array.length t.protected_ - 1 do
    if t.protected_.(c) then
      s :=
        {
          protected_channels = !s.protected_channels + 1;
          frames_sent = !s.frames_sent + t.st_sent.(c);
          retransmissions = !s.retransmissions + t.st_retrans.(c);
          timeouts = !s.timeouts + t.st_timeouts.(c);
          naks = !s.naks + t.st_naks.(c);
          crc_detected = !s.crc_detected + t.st_crc_fail.(c);
          dedup_drops = !s.dedup_drops + t.st_dedup.(c);
          recoveries = !s.recoveries + t.st_recoveries.(c);
          max_recovery_latency = max !s.max_recovery_latency t.st_max_rec.(c);
        }
  done;
  !s
