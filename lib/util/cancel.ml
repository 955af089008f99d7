type t = {
  flag : bool Atomic.t;
  deadline : float; (* absolute gettimeofday instant; infinity = none *)
}

exception Cancelled of string

let never = { flag = Atomic.make false; deadline = infinity }

let create ?deadline_ms () =
  let deadline =
    match deadline_ms with
    | None -> infinity
    | Some ms ->
      if ms <= 0 then invalid_arg "Cancel.create: deadline_ms must be > 0";
      Unix.gettimeofday () +. (float_of_int ms /. 1000.)
  in
  { flag = Atomic.make false; deadline }

(* [never] is shared by every default [?cancel] argument; cancelling it
   would cancel the world, so it is pinned un-cancellable. *)
let cancel t = if t != never then Atomic.set t.flag true
let is_never t = t == never

let cancelled t =
  Atomic.get t.flag
  || (t.deadline < infinity && Unix.gettimeofday () > t.deadline)


let check ?(what = "run") t =
  if cancelled t then raise (Cancelled (what ^ ": cancelled"))
