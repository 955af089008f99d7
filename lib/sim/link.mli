(** Recoverable channel layer: ARQ retransmission and credit flow control
    over relay-station chains.

    The raw wire-pipelined channel of the paper loses at most nothing —
    relay stations and the stop protocol guarantee lossless delivery as
    long as the physical wires behave.  [Wp_sim.Fault]'s destructive
    clauses break exactly that assumption: a single dropped or corrupted
    token permanently desynchronises the SoC.  This module is the
    defender.  A channel armed with {!Network.set_protection} is wrapped
    at engine-build time:

    - every payload admitted from the producer shell is tagged with a
      sequence number and a CRC ([pay lxor mix64(seq)], injective in the
      payload for a fixed sequence number, so any payload corruption is
      detected with certainty);
    - the sender keeps the last [window] unacknowledged payloads in a
      replay buffer and go-back-N retransmits from the cumulative-ack
      base on a NAK or on a timeout;
    - the receiver checks CRC, drops stale duplicates, NAKs gaps and
      corruptions, and releases payloads to the consumer shell strictly
      in order — so the consumer observes exactly the produced stream,
      possibly later ({e latency-insensitivity is preserved by
      construction});
    - credit-based flow control replaces the raw stop wire: the sender
      spends one credit per admission and the receiver returns credits
      as the consumer drains, bounding all buffers by [window].

    The forward path costs [rs_count] cycles (the same latency as the
    relay chain it replaces) and the acknowledgement path
    [rs_count + 1]; both are modelled as delay lines inside this module,
    so the two engines share every bit of protocol state and stay
    byte-identical.  The per-cycle path allocates nothing. *)

type t

val make : ?fault:Fault.t -> Network.t -> t option
(** Compile the protection policy of [net] into a link runtime; [None]
    when no channel is protected.  Window/timeout values of [0] are
    resolved per channel from the relay-station count:
    window [max 8 (4*(rs+1))], timeout [8 + 4*(rs+1)] (clamped to at
    least one round trip).  When [fault] is given, destructive clauses
    on protected channels are applied at {e frame} granularity (see
    {!Fault.break_at_arrival}) and benign stall clauses freeze the
    channel for the cycle. *)

val is_protected : t -> chan:int -> bool

val producer_stop : t -> chan:int -> bool
(** Phase-1 hook: the producer shell must stall iff the replay window is
    full or the sender is out of credits.  Replaces the propagated stop
    wire on protected channels. *)

val channel_step :
  t ->
  chan:int ->
  cycle:int ->
  produced_valid:bool ->
  produced_value:int ->
  can_accept:(unit -> bool) ->
  accept:(int -> unit) ->
  unit
(** Phase-3 hook: advance one protected channel by one cycle.
    [produced_valid]/[produced_value] describe the producer shell's
    emission this cycle (the engine guarantees it only fires when
    {!producer_stop} was false).  [can_accept]/[accept] are the live
    consumer-side callbacks, identical in meaning to
    {!Fault.deliver}'s; at most one payload is released per cycle.
    Order within the cycle: admit, ack processing, timeout, transmit,
    wire shift, fault application, receive, drain, ack emission. *)

val quiescence_bonus : t -> int
(** Extra quiescence headroom the engine must add to its deadlock
    detector: a recovery episode legitimately silences every shell for
    up to a few timeouts plus round trips. *)

(** {1 Measurement} *)

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

val summary : t -> summary

val auto_window : rs:int -> int
(** The window resolved for [{window = 0; _}] on a channel with [rs]
    relay stations. *)

val auto_timeout : rs:int -> int
(** The timeout resolved for [{timeout = 0; _}] likewise. *)
