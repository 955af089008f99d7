(** Value Change Dump (VCD) writer shared by {!Waveform} and
    {!Telemetry}.

    A dump declares its variables, then lists, per time step, the
    values that changed.  Variables are grouped into {e signals}: a
    signal is sampled once per step, and when its sample differs from
    the previous one every variable of the signal is written again (a
    channel's data word and valid bit change together).  Identifiers
    are the short printable VCD codes (['!'], ['"'], ...) handed out in
    declaration order; names have blanks replaced by ['_']. *)

type 'a signal = {
  vars : (int * string) list;
      (** [(width, name)] of each variable; width 1 is a wire bit,
          wider ones are vectors *)
  sample : int -> 'a option;
      (** the signal's state at a step, [None] when it has no sample
          there (nothing is written) *)
  render : 'a -> string list;
      (** one VCD value per variable, e.g. ["1"] or ["b0101"] *)
}

val dump :
  date:string ->
  version:string ->
  scope:string ->
  timescale:string ->
  t0:int ->
  steps:int ->
  'a signal list ->
  string
(** The whole document: header, declarations, then steps [0 .. steps-1]
    stamped [#(t0 + step)] (only those with a change), closed by
    [#(t0 + steps)].  Every signal is written at its first sample. *)
