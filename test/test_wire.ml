(* Wire-protocol codec tests.

   Two layers: QCheck roundtrips over the full request/reply grammar
   (every constructor, every optional field), and a decoder fuzzer —
   random byte soup, truncated frames and bit-flipped frames must come
   back as [Ok] or [Error], never as a crash.  The decoder guards every
   read with a bounds check, so a hostile length field inside the
   payload can produce an [Error], never an allocation beyond the
   payload it was handed. *)

open Wp_core
module Gen = QCheck.Gen

(* --- generators ---------------------------------------------------- *)

let u31 = Gen.int_bound 1_000_000
let small_str = Gen.(string_size ~gen:printable (int_bound 32))

let gen_run_args =
  let open Gen in
  triple small_str small_str small_str >>= fun (rq_program, rq_machine, rq_config) ->
  quad (opt small_str) u31 (opt u31) (opt small_str)
  >>= fun (rq_engine, rq_capacity, rq_max_cycles, rq_fault) ->
  quad u31 (opt small_str) u31 u31
  >>= fun (rq_fault_seed, rq_protect, rq_link_window, rq_link_timeout) ->
  quad bool u31
    (opt (map (fun n -> n + 1) u31))
    (int_bound 5)
  >>= fun (rq_stall_report, rq_trace_depth, rq_deadline_ms, rq_priority) ->
  return
    {
      Wire.rq_program;
      rq_machine;
      rq_config;
      rq_engine;
      rq_capacity;
      rq_max_cycles;
      rq_fault;
      rq_fault_seed;
      rq_protect;
      rq_link_window;
      rq_link_timeout;
      rq_stall_report;
      rq_trace_depth;
      rq_deadline_ms;
      rq_priority;
    }

let gen_request =
  Gen.frequency
    [
      (1, Gen.return Wire.Ping);
      (1, Gen.return Wire.Stats);
      (4, Gen.map (fun a -> Wire.Run a) gen_run_args);
    ]

(* Exact-bits-roundtrippable floats without NaN (NaN <> NaN would fail
   the structural comparison even though the bits roundtrip). *)
let smallf = Gen.map (fun n -> float_of_int (n - 500_000) /. 7.) u31

let gen_summary =
  let open Gen in
  triple small_str small_str small_str >>= fun (rs_program, rs_machine, rs_config) ->
  triple u31 u31 u31 >>= fun (rs_golden_cycles, rs_wp1_cycles, rs_wp2_cycles) ->
  quad smallf smallf smallf bool
  >>= fun (rs_th_wp1, rs_th_wp2, rs_gain_percent, rs_from_cache) ->
  return
    {
      Wire.rs_program;
      rs_machine;
      rs_config;
      rs_golden_cycles;
      rs_wp1_cycles;
      rs_wp2_cycles;
      rs_th_wp1;
      rs_th_wp2;
      rs_gain_percent;
      rs_from_cache;
    }

let gen_reply =
  let open Gen in
  frequency
    [
      (3, map (fun s -> Wire.Result s) gen_summary);
      (1, map (fun retry_after_ms -> Wire.Busy { retry_after_ms }) u31);
      (1, map (fun m -> Wire.Error m) small_str);
      ( 1,
        triple u31 small_str small_str
        >>= fun (attempts, last_error, repro) ->
        return (Wire.Quarantined { attempts; last_error; repro }) );
      (1, return Wire.Pong);
      ( 1,
        triple u31 u31 u31 >>= fun (st_jobs, st_tasks_run, st_cache_hits) ->
        quad u31 u31 u31 u31
        >>= fun (st_cache_misses, st_quarantined, st_expired, st_shed) ->
        quad u31 u31 u31 u31
        >>= fun (st_breaker_trips, st_slow_disconnects, st_stale_reaped,
                 st_cache_corrupt) ->
        return
          (Wire.Stats_reply
             {
               st_jobs;
               st_tasks_run;
               st_cache_hits;
               st_cache_misses;
               st_quarantined;
               st_expired;
               st_shed;
               st_breaker_trips;
               st_slow_disconnects;
               st_stale_reaped;
               st_cache_corrupt;
             }) );
      (1, map (fun m -> Wire.Deadline_exceeded m) small_str);
    ]

let gen_tag = Gen.int_bound 0xFFFFF

(* --- roundtrips ---------------------------------------------------- *)

let request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request roundtrip"
    (QCheck.make Gen.(pair gen_tag gen_request))
    (fun (tag, req) ->
      match Wire.decode_request (Wire.encode_request ~tag req) with
      | Ok (tag', req') -> tag' = tag && req' = req
      | Error _ -> false)

let reply_roundtrip =
  QCheck.Test.make ~count:300 ~name:"reply roundtrip"
    (QCheck.make Gen.(pair gen_tag gen_reply))
    (fun (tag, reply) ->
      match Wire.decode_reply (Wire.encode_reply ~tag reply) with
      | Ok (tag', reply') -> tag' = tag && reply' = reply
      | Error _ -> false)

(* --- fuzz ---------------------------------------------------------- *)

let any_bytes = Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 200))

(* Random byte soup: the decoders must classify, never crash. *)
let fuzz_random =
  QCheck.Test.make ~count:2000 ~name:"random payloads never crash"
    (QCheck.make any_bytes)
    (fun s ->
      (match Wire.decode_request s with Ok _ | Error _ -> ());
      (match Wire.decode_reply s with Ok _ | Error _ -> ());
      true)

(* A proper prefix of a valid encoding always decodes to [Error]: the
   encoder writes exactly the bytes the decoder consumes, so cutting
   any of them starves a bounds-checked read. *)
let fuzz_truncated =
  QCheck.Test.make ~count:500 ~name:"truncated requests decode to Error"
    (QCheck.make Gen.(triple gen_tag gen_request (int_bound 10_000)))
    (fun (tag, req, cut) ->
      let s = Wire.encode_request ~tag req in
      let n = String.length s in
      let keep = cut mod n in
      match Wire.decode_request (String.sub s 0 keep) with
      | Error _ -> true
      | Ok _ -> false)

(* One flipped bit: anything may come back (a flip inside a string body
   still decodes), but never a crash. *)
let fuzz_bitflip =
  QCheck.Test.make ~count:1000 ~name:"bit-flipped payloads never crash"
    (QCheck.make Gen.(quad gen_tag gen_request (int_bound 100_000) (int_bound 7)))
    (fun (tag, req, pos, bit) ->
      let s = Bytes.of_string (Wire.encode_request ~tag req) in
      let i = pos mod Bytes.length s in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl bit)));
      (match Wire.decode_request (Bytes.to_string s) with
      | Ok _ | Error _ -> ());
      true)

let fuzz_bitflip_reply =
  QCheck.Test.make ~count:1000 ~name:"bit-flipped replies never crash"
    (QCheck.make Gen.(quad gen_tag gen_reply (int_bound 100_000) (int_bound 7)))
    (fun (tag, reply, pos, bit) ->
      let s = Bytes.of_string (Wire.encode_reply ~tag reply) in
      let i = pos mod Bytes.length s in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl bit)));
      (match Wire.decode_reply (Bytes.to_string s) with Ok _ | Error _ -> ());
      true)

(* --- typed rejections ------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* "static" names no engine kind: the spec parser, and with it a [Run]
   request, answers it with an [Error] that lists the kinds there are. *)
let test_static_engine_rejected () =
  let names_kinds what = function
    | Ok _ -> Alcotest.failf "%s accepted engine \"static\"" what
    | Error msg ->
      if not (contains msg "'fast'" && contains msg "'ref'") then
        Alcotest.failf "%s: %S does not name fast and ref" what msg
  in
  names_kinds "Run_spec.of_args" (Run_spec.of_args ~engine:"static" ());
  names_kinds "Wire.parse_run"
    (Wire.parse_run
       { (Wire.run_defaults ~program:"sort:4" ~machine:"pipelined" ~config:"none") with
         Wire.rq_engine = Some "static" })

(* An unknown WIREPIPE_ENGINE is an error wherever the default engine
   is read, naming the variable, fast and ref; nothing falls back to
   fast.  An explicit engine never reads it. *)
let test_bad_engine_variable () =
  let saved = Sys.getenv_opt "WIREPIPE_ENGINE" in
  let names what msg =
    if not (contains msg "WIREPIPE_ENGINE" && contains msg "'fast'" && contains msg "'ref'")
    then Alcotest.failf "%s: %S does not name the variable, fast and ref" what msg
  in
  Unix.putenv "WIREPIPE_ENGINE" "static";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "WIREPIPE_ENGINE" (Option.value saved ~default:""))
    (fun () ->
      (match Wp_sim.Sim.default_kind () with
      | k -> Alcotest.failf "Sim.default_kind fell back to %s" (Wp_sim.Sim.kind_to_string k)
      | exception Invalid_argument msg -> names "Sim.default_kind" msg);
      (match Run_spec.of_args () with
      | Ok _ -> Alcotest.fail "Run_spec.of_args accepted WIREPIPE_ENGINE=static"
      | Error msg -> names "Run_spec.of_args" msg);
      match Run_spec.of_args ~engine:"ref" () with
      | Ok s -> if s.Run_spec.engine <> Wp_sim.Sim.Reference then Alcotest.fail "not ref"
      | Error msg -> Alcotest.failf "explicit engine read the variable: %s" msg)

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest [ request_roundtrip; reply_roundtrip ]
      );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_random; fuzz_truncated; fuzz_bitflip; fuzz_bitflip_reply ] );
      ( "spec",
        [
          Alcotest.test_case "static engine is a typed error" `Quick
            test_static_engine_rejected;
          Alcotest.test_case "unknown WIREPIPE_ENGINE is an error" `Quick
            test_bad_engine_variable;
        ] );
    ]
