(** Sequential processes (IP blocks) and their communication profile.

    A process is a clocked state machine exchanging one machine word per
    port per firing.  The same process definition is used unmodified in the
    golden system and inside WP1/WP2 wrappers — exactly the paper's premise
    ("allowing the use of IP blocks without modification").  The [required]
    function is the {e oracle}: the minimal knowledge of the communication
    profile that the WP2 wrapper exploits; plain wrappers ignore it.

    Contract for implementors:

    - [fire] is called once per firing (= one clock cycle of the original
      synchronous system).  The array holds [Some v] for every port the
      oracle required at this firing — plain wrappers supply all ports —
      and [None] on the others, which the process must not read.  It is
      valid only during the call: every kernel hands each process the
      same array at every firing and rewrites it in between, so a
      process that keeps inputs must copy them out.
    - [fire] returns one word per output port; the wrapper turns them into
      valid tokens (or into tau when the wrapper stalls, in which case
      [fire] is not called at all).
    - [required] must be a pure function of the current state.
    - [reset_outputs] are the reset values of the output registers; they
      travel the channels as the tokens consumed at the peers' first
      firing. *)

type instance = {
  required : unit -> bool array;
      (** Which input ports the next firing will read (length [n_inputs]). *)
  fire : int option array -> int array;
      (** Consume the required inputs, advance the state, produce all
          outputs (length [n_outputs]). *)
  halted : unit -> bool;
      (** True once the process has reached a terminal state; the engine
          uses it to stop a simulation. *)
}

type t = {
  name : string;
  input_names : string array;
  output_names : string array;
  reset_outputs : int array;
  make : unit -> instance;  (** Fresh state at reset. *)
}

val n_inputs : t -> int
val n_outputs : t -> int

val input_index : t -> string -> int
(** @raise Not_found if no port has that name. *)

val output_index : t -> string -> int

val validate : t -> unit
(** Checks arity consistency of names/reset values and that a fresh
    instance's [required] has the right length.
    @raise Invalid_argument on violation. *)

val all_required : int -> unit -> bool array
(** Convenience oracle for processes that read every input every firing. *)

val pure_source : name:string -> output_name:string -> reset:int -> (int -> int) -> t
(** [pure_source ~name ~output_name ~reset f] emits [f k] at firing [k];
    no inputs.  Handy for tests and examples. *)

val sink : name:string -> input_name:string -> t
(** Consumes its single input forever. *)

val unary :
  name:string ->
  input_name:string ->
  output_name:string ->
  reset:int ->
  (int -> int) ->
  t
(** A combinational-style stage: each firing consumes one word [v] and
    emits [f v]. *)
