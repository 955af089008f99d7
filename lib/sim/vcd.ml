type 'a signal = {
  vars : (int * string) list;
  sample : int -> 'a option;
  render : 'a -> string list;
}

(* Short printable identifiers: '!', '"', '#', ... per VCD convention. *)
let id n =
  let base = 94 and first = 33 in
  let rec build n acc =
    let digit = Char.chr (first + (n mod base)) in
    let acc = String.make 1 digit ^ acc in
    if n < base then acc else build ((n / base) - 1) acc
  in
  build n ""

let sanitize = String.map (function ' ' | '\t' -> '_' | c -> c)

let dump ~date ~version ~scope ~timescale ~t0 ~steps signals =
  let signals = Array.of_list signals in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "$date %s $end\n$version %s $end\n$timescale %s $end\n" date version
    timescale;
  Printf.bprintf buf "$scope module %s $end\n" scope;
  let next = ref 0 in
  let ids =
    Array.map
      (fun s ->
        List.map
          (fun (width, name) ->
            let code = id !next in
            incr next;
            Printf.bprintf buf "$var wire %d %s %s $end\n" width code (sanitize name);
            (width, code))
          s.vars)
      signals
  in
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let previous = Array.make (Array.length signals) None in
  let changes = Buffer.create 64 in
  for step = 0 to steps - 1 do
    Buffer.clear changes;
    Array.iteri
      (fun i s ->
        match s.sample step with
        | None -> ()
        | Some v as now ->
          if previous.(i) <> now then begin
            previous.(i) <- now;
            List.iter2
              (fun (width, code) value ->
                if width = 1 then Printf.bprintf changes "%s%s\n" value code
                else Printf.bprintf changes "%s %s\n" value code)
              ids.(i) (s.render v)
          end)
      signals;
    if Buffer.length changes > 0 then begin
      Printf.bprintf buf "#%d\n" (t0 + step);
      Buffer.add_buffer buf changes
    end
  done;
  Printf.bprintf buf "#%d\n" (t0 + steps);
  Buffer.contents buf
