(* Tests for Wp_soc: ISA codecs, assembler, ISS, block behaviour, and the
   crucial cross-check that every timed simulation (golden, WP1, WP2, any
   relay-station budget, both machines) leaves memory exactly as the
   instruction-set simulator does. *)

open Wp_soc
module Shell = Wp_lis.Shell

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Isa                                                                *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck2.Gen.int_range 0 15

let gen_cond =
  QCheck2.Gen.oneofl [ Isa.Always; Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge; Isa.Le; Isa.Gt ]

let gen_imm = QCheck2.Gen.int_range Isa.imm_min Isa.imm_max

let gen_instr =
  QCheck2.Gen.(
    oneof
      [
        return Isa.Nop;
        return Isa.Halt;
        map2 (fun rd imm -> Isa.Ldi (rd, imm)) gen_reg gen_imm;
        map3 (fun rd ra rb -> Isa.Add (rd, ra, rb)) gen_reg gen_reg gen_reg;
        map3 (fun rd ra rb -> Isa.Sub (rd, ra, rb)) gen_reg gen_reg gen_reg;
        map3 (fun rd ra rb -> Isa.Mul (rd, ra, rb)) gen_reg gen_reg gen_reg;
        map3 (fun rd ra imm -> Isa.Addi (rd, ra, imm)) gen_reg gen_reg gen_imm;
        map2 (fun ra rb -> Isa.Cmp (ra, rb)) gen_reg gen_reg;
        map3 (fun rd ra imm -> Isa.Ld (rd, ra, imm)) gen_reg gen_reg gen_imm;
        map3 (fun ra imm rv -> Isa.St (ra, imm, rv)) gen_reg gen_imm gen_reg;
        map2 (fun c t -> Isa.Br (c, t)) gen_cond (int_range 0 Isa.imm_max);
      ])

let prop_isa_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"encode/decode roundtrip" gen_instr (fun i ->
      Isa.equal i (Isa.decode (Isa.encode i)))

let test_isa_encode_range () =
  checkb "register range checked" true
    (match Isa.encode (Isa.Add (16, 0, 0)) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "immediate range checked" true
    (match Isa.encode (Isa.Ldi (0, Isa.imm_max + 1)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_isa_predicates () =
  checkb "ld is load" true (Isa.is_load (Isa.Ld (1, 2, 0)));
  checkb "st is store" true (Isa.is_store (Isa.St (1, 0, 2)));
  checkb "br is branch" true (Isa.is_branch (Isa.Br (Isa.Eq, 0)));
  checkb "cmp sets flags" true (Isa.sets_flags (Isa.Cmp (1, 2)));
  Alcotest.(check (list int)) "st reads" [ 1; 2 ] (Isa.reads (Isa.St (1, 0, 2)));
  Alcotest.(check (option int)) "add writes" (Some 3) (Isa.writes (Isa.Add (3, 1, 2)));
  Alcotest.(check (option int)) "st writes nothing" None (Isa.writes (Isa.St (1, 0, 2)))

let test_isa_negative_imm () =
  let i = Isa.Addi (1, 2, -42) in
  checkb "negative immediate survives" true (Isa.equal i (Isa.decode (Isa.encode i)))

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let prop_codec_rf_ctrl_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* ra = gen_reg and* rb = gen_reg and* rv = gen_reg in
      let* wb1 = option gen_reg and* wb2 = option gen_reg in
      return { Codec.ra; rb; rv; wb1; wb2 })
  in
  QCheck2.Test.make ~count:500 ~name:"rf_ctrl roundtrip" QCheck2.Gen.(option gen)
    (fun c -> Codec.unpack_rf_ctrl (Codec.pack_rf_ctrl c) = c)

let prop_codec_alu_op_roundtrip =
  let gen_kind =
    QCheck2.Gen.(
      oneof
        [
          oneofl
            [ Codec.K_add; Codec.K_sub; Codec.K_mul; Codec.K_cmp; Codec.K_imm; Codec.K_addi; Codec.K_addr ];
          map (fun c -> Codec.K_br c) gen_cond;
        ])
  in
  let gen =
    QCheck2.Gen.(
      let* kind = gen_kind and* imm = gen_imm in
      return { Codec.kind; imm })
  in
  QCheck2.Test.make ~count:500 ~name:"alu_op roundtrip" QCheck2.Gen.(option gen)
    (fun op -> Codec.unpack_alu_op (Codec.pack_alu_op op) = op)

let test_codec_simple_roundtrips () =
  List.iter
    (fun v -> checkb "fetch" true (Codec.unpack_fetch (Codec.pack_fetch v) = v))
    [ None; Some 0; Some 12345 ];
  List.iter
    (fun v -> checkb "mem_cmd" true (Codec.unpack_mem_cmd (Codec.pack_mem_cmd v) = v))
    [ None; Some Codec.M_load; Some Codec.M_store ];
  List.iter
    (fun v -> checkb "flags" true (Codec.unpack_flags (Codec.pack_flags v) = v))
    [ None; Some true; Some false ]

let test_codec_bubble_is_invalid () =
  checkb "bubble unpacks to None" true (Codec.unpack_rf_ctrl Codec.bubble = None)

let test_codec_dispatch_shape () =
  let rf, op, cmd = Codec.dispatch_of_instr (Isa.Ld (3, 4, 7)) in
  (match rf with
  | Some c ->
    checki "ra" 4 c.Codec.ra;
    checkb "wb2 set" true (c.Codec.wb2 = Some 3);
    checkb "wb1 clear" true (c.Codec.wb1 = None)
  | None -> Alcotest.fail "ld must control the RF");
  (match op with
  | Some { Codec.kind = Codec.K_addr; imm } -> checki "offset" 7 imm
  | Some _ | None -> Alcotest.fail "ld must compute an address");
  checkb "ld is a load command" true (cmd = Some Codec.M_load);
  let rf, op, cmd = Codec.dispatch_of_instr Isa.Halt in
  checkb "halt dispatches nothing" true (rf = None && op = None && cmd = None)

(* ------------------------------------------------------------------ *)
(* Asm                                                                *)
(* ------------------------------------------------------------------ *)

let test_asm_basic () =
  let text =
    Asm.assemble_exn
      {|
        ; a little program
start:  ldi r1, 5
        addi r1, r1, -1
        cmp r1, r0
        br.ne start
        halt
      |}
  in
  checki "5 instructions" 5 (Array.length text);
  checkb "branch resolved" true (Isa.equal text.(3) (Isa.Br (Isa.Ne, 0)))

let test_asm_memory_operands () =
  let text = Asm.assemble_exn "ld r1, 4(r2)\nst -2(r3), r4\nld r5, (r6)\n" in
  checkb "ld" true (Isa.equal text.(0) (Isa.Ld (1, 2, 4)));
  checkb "st" true (Isa.equal text.(1) (Isa.St (3, -2, 4)));
  checkb "ld no offset" true (Isa.equal text.(2) (Isa.Ld (5, 6, 0)))

let expect_error source fragment =
  match Asm.assemble source with
  | Ok _ -> Alcotest.failf "expected an error mentioning %S" fragment
  | Error e ->
    let msg = Format.asprintf "%a" Asm.pp_error e in
    let contains =
      let n = String.length fragment and h = String.length msg in
      let rec scan i = i + n <= h && (String.sub msg i n = fragment || scan (i + 1)) in
      scan 0
    in
    if not contains then Alcotest.failf "error %S does not mention %S" msg fragment

let test_asm_errors () =
  expect_error "frobnicate r1" "unknown mnemonic";
  expect_error "add r1, r2" "expects 3 operand";
  expect_error "ldi r99, 0" "register";
  expect_error "br.zz somewhere" "condition";
  expect_error "br.al nowhere" "unknown label";
  expect_error "x: nop\nx: nop" "duplicate label";
  expect_error "ldi r1, 99999999" "immediate"

let test_asm_label_only_line () =
  let text = Asm.assemble_exn "top:\n  nop\n  br.al top\n" in
  checkb "label binds to next statement" true (Isa.equal text.(1) (Isa.Br (Isa.Always, 0)))

let test_asm_disassemble () =
  let text = Asm.assemble_exn "ldi r1, 3\nhalt\n" in
  let s = Asm.disassemble text in
  checkb "mentions ldi" true
    (let n = String.length "ldi r1, 3" and h = String.length s in
     let rec scan i = i + n <= h && (String.sub s i n = "ldi r1, 3" || scan (i + 1)) in
     scan 0)

(* ------------------------------------------------------------------ *)
(* Iss                                                                *)
(* ------------------------------------------------------------------ *)

let test_iss_arith () =
  let text = Asm.assemble_exn "ldi r1, 6\nldi r2, 7\nmul r3, r1, r2\nst 0(r0), r3\nhalt\n" in
  let r = Iss.run ~mem_size:16 ~mem_init:[] text in
  checki "6*7" 42 r.Iss.memory.(0);
  checki "dynamic count" 5 r.Iss.instructions

let test_iss_branches () =
  (* Sum 1..5 with a countdown loop. *)
  let text =
    Asm.assemble_exn
      {|
        ldi r1, 5
        ldi r2, 0
loop:   add r2, r2, r1
        addi r1, r1, -1
        cmp r1, r0
        br.gt loop
        st 0(r0), r2
        halt
      |}
  in
  let r = Iss.run ~mem_size:16 ~mem_init:[] text in
  checki "sum 1..5" 15 r.Iss.memory.(0)

let test_iss_memory_fault () =
  let text = Asm.assemble_exn "ldi r1, 100\nld r2, 0(r1)\nhalt\n" in
  checkb "out of range faults" true
    (match Iss.run ~mem_size:16 ~mem_init:[] text with
    | exception Iss.Fault _ -> true
    | _ -> false)

let test_iss_step_limit () =
  let text = Asm.assemble_exn "loop: br.al loop\n" in
  checkb "infinite loop detected" true
    (match Iss.run ~max_steps:1000 ~mem_size:16 ~mem_init:[] text with
    | exception Iss.Fault _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Programs against the ISS                                           *)
(* ------------------------------------------------------------------ *)

let test_programs_sort_reference () =
  let values = [| 5; 3; 9; 1; 7; 1; 0; 4 |] in
  let program = Programs.extraction_sort ~values in
  let expected = Array.copy values in
  Array.sort compare expected;
  Alcotest.(check (array int)) "iss sorts" expected (Program.expected_result program)

let prop_sort_reference_random =
  QCheck2.Test.make ~count:50 ~name:"extraction sort sorts random arrays (ISS)"
    QCheck2.Gen.(array_size (int_range 1 24) (int_range 0 999))
    (fun values ->
      let program = Programs.extraction_sort ~values in
      let expected = Array.copy values in
      Array.sort compare expected;
      Program.expected_result program = expected)

let test_programs_matmul_reference () =
  let n = 3 in
  let a = [| 1; 2; 3; 4; 5; 6; 7; 8; 9 |] in
  let b = [| 9; 8; 7; 6; 5; 4; 3; 2; 1 |] in
  let program = Programs.matrix_multiply ~n ~a ~b in
  let expected = Array.make (n * n) 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        expected.((i * n) + j) <-
          expected.((i * n) + j) + (a.((i * n) + k) * b.((k * n) + j))
      done
    done
  done;
  Alcotest.(check (array int)) "iss multiplies" expected (Program.expected_result program)

let test_programs_extras_reference () =
  let fib = Programs.fibonacci ~n:12 in
  Alcotest.(check (array int)) "fib(12)" [| 144 |] (Program.expected_result fib);
  let x = [| 1; 2; 3 |] and y = [| 4; 5; 6 |] in
  Alcotest.(check (array int)) "dot" [| 32 |]
    (Program.expected_result (Programs.dot_product ~x ~y));
  let values = [| 7; 8; 9 |] in
  Alcotest.(check (array int)) "memcpy" values
    (Program.expected_result (Programs.memcpy ~values))

(* ------------------------------------------------------------------ *)
(* Datapath                                                           *)
(* ------------------------------------------------------------------ *)

let test_datapath_topology () =
  let dp =
    Datapath.build ~machine:Datapath.Pipelined ~rs:Cpu.no_relay_stations
      (Programs.fibonacci ~n:4)
  in
  checki "5 blocks" 5 (Wp_sim.Network.node_count dp.Datapath.network);
  checki "12 channels" 12 (Wp_sim.Network.channel_count dp.Datapath.network);
  checki "CU-IC has 2 channels" 2 (List.length (dp.Datapath.channels_of Datapath.CU_IC));
  checki "RF-ALU has 2 channels" 2 (List.length (dp.Datapath.channels_of Datapath.RF_ALU));
  checki "CU-RF has 1 channel" 1 (List.length (dp.Datapath.channels_of Datapath.CU_RF));
  let total =
    List.fold_left
      (fun acc c -> acc + List.length (dp.Datapath.channels_of c))
      0 Datapath.all_connections
  in
  checki "connections cover all channels" 12 total

let test_datapath_rs_applied () =
  let rs c = if c = Datapath.ALU_RF then 3 else 0 in
  let dp = Datapath.build ~machine:Datapath.Pipelined ~rs (Programs.fibonacci ~n:4) in
  List.iter
    (fun ch ->
      checki "rs on ALU-RF" 3 (Wp_sim.Network.relay_stations dp.Datapath.network ch))
    (dp.Datapath.channels_of Datapath.ALU_RF)

let test_datapath_connection_names () =
  List.iter
    (fun c ->
      checkb "name roundtrip" true (Datapath.connection_of_name (Datapath.connection_name c) = Some c))
    Datapath.all_connections;
  checkb "unknown name" true (Datapath.connection_of_name "XX-YY" = None)

let test_figure1_dot () =
  let dot = Datapath.figure1_dot () in
  List.iter
    (fun needle ->
      checkb (needle ^ " in dot") true
        (let n = String.length needle and h = String.length dot in
         let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
         scan 0))
    [ "CU"; "IC"; "DC"; "RF"; "ALU"; "digraph" ]

(* ------------------------------------------------------------------ *)
(* Cpu: timed runs against the ISS                                    *)
(* ------------------------------------------------------------------ *)

let machines = [ Datapath.Pipelined; Datapath.Pipelined_btfn; Datapath.Multicycle ]
let modes = [ Shell.Plain; Shell.Oracle ]

let run_ok ?(rs = Cpu.no_relay_stations) ~machine ~mode program =
  let r = Cpu.run ~machine ~mode ~rs program in
  if r.Cpu.outcome <> Cpu.Completed then
    Alcotest.failf "%s/%s did not complete" (Datapath.machine_name machine)
      program.Program.name;
  if not r.Cpu.result_ok then
    Alcotest.failf "%s/%s wrong result" (Datapath.machine_name machine) program.Program.name;
  r

let test_cpu_all_programs_golden () =
  List.iter
    (fun program ->
      List.iter
        (fun machine ->
          List.iter (fun mode -> ignore (run_ok ~machine ~mode program)) modes)
        machines)
    (Programs.all ())

let test_cpu_golden_throughput_is_best () =
  let program = Programs.fibonacci ~n:15 in
  List.iter
    (fun machine ->
      let golden = run_ok ~machine ~mode:Shell.Plain program in
      let rs c = if c = Datapath.CU_AL then 1 else 0 in
      let wp = run_ok ~rs ~machine ~mode:Shell.Plain program in
      checkb "wp is slower" true (wp.Cpu.cycles > golden.Cpu.cycles))
    machines

let test_cpu_wp2_never_slower () =
  let program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:7 ~n:10) in
  List.iter
    (fun conn ->
      let rs c = if c = conn then 1 else 0 in
      let r1 = run_ok ~rs ~machine:Datapath.Pipelined ~mode:Shell.Plain program in
      let r2 = run_ok ~rs ~machine:Datapath.Pipelined ~mode:Shell.Oracle program in
      if r2.Cpu.cycles > r1.Cpu.cycles then
        Alcotest.failf "oracle slower on %s: %d > %d" (Datapath.connection_name conn)
          r2.Cpu.cycles r1.Cpu.cycles)
    Datapath.all_connections

let test_cpu_wp1_matches_worst_loop_bound () =
  (* With a single RS on CU-AL the worst loop is CU->ALU->CU: Th = 2/3. *)
  let program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:3 ~n:12) in
  let golden = run_ok ~machine:Datapath.Pipelined ~mode:Shell.Plain program in
  let rs c = if c = Datapath.CU_AL then 1 else 0 in
  let wp = run_ok ~rs ~machine:Datapath.Pipelined ~mode:Shell.Plain program in
  let th = Cpu.throughput ~golden wp in
  checkb (Printf.sprintf "throughput %.3f close to 2/3" th) true (abs_float (th -. 0.667) < 0.01)

let test_cpu_cu_ic_bundle_halves_throughput () =
  let program = Programs.fibonacci ~n:15 in
  let golden = run_ok ~machine:Datapath.Pipelined ~mode:Shell.Plain program in
  let rs c = if c = Datapath.CU_IC then 1 else 0 in
  List.iter
    (fun mode ->
      let wp = run_ok ~rs ~machine:Datapath.Pipelined ~mode program in
      let th = Cpu.throughput ~golden wp in
      checkb (Printf.sprintf "CU-IC throughput %.3f close to 1/2" th) true
        (abs_float (th -. 0.5) < 0.01))
    modes

let test_cpu_btfn_speeds_up_loops () =
  (* Static backward-taken prediction must beat the plain pipelined CU on
     loop-heavy code, with identical architectural results. *)
  List.iter
    (fun program ->
      let plain = run_ok ~machine:Datapath.Pipelined ~mode:Shell.Plain program in
      let btfn = run_ok ~machine:Datapath.Pipelined_btfn ~mode:Shell.Plain program in
      if btfn.Cpu.cycles >= plain.Cpu.cycles then
        Alcotest.failf "%s: btfn %d >= plain %d" program.Program.name btfn.Cpu.cycles
          plain.Cpu.cycles)
    [
      (* A do-while countdown: the loop closes with a backward
         conditional branch, the case BTFN targets. *)
      Program.of_source ~name:"countdown"
        {|
        ldi r1, 40
        ldi r2, 0
loop:   addi r1, r1, -1
        cmp r1, r2
        br.gt loop
        halt
      |};
      (* Nested do-while loops. *)
      Program.of_source ~name:"nested_countdown"
        {|
        ldi r1, 8
        ldi r3, 0
outer:  ldi r2, 8
inner:  addi r2, r2, -1
        cmp r2, r3
        br.gt inner
        addi r1, r1, -1
        cmp r1, r3
        br.gt outer
        halt
      |};
    ]

let test_cpu_multicycle_cu_ic_oracle_gain () =
  (* The multicycle machine's fetch loop is busy one firing in five: the
     oracle must recover most of the RS penalty (the paper's ~60% claim). *)
  let program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:9 ~n:10) in
  let golden = run_ok ~machine:Datapath.Multicycle ~mode:Shell.Plain program in
  let rs c = if c = Datapath.CU_IC then 1 else 0 in
  let r1 = run_ok ~rs ~machine:Datapath.Multicycle ~mode:Shell.Plain program in
  let r2 = run_ok ~rs ~machine:Datapath.Multicycle ~mode:Shell.Oracle program in
  let th1 = Cpu.throughput ~golden r1 and th2 = Cpu.throughput ~golden r2 in
  checkb (Printf.sprintf "wp1 %.3f near 0.5" th1) true (abs_float (th1 -. 0.5) < 0.02);
  checkb
    (Printf.sprintf "multicycle oracle gain: %.3f vs %.3f" th2 th1)
    true
    (th2 > th1 *. 1.35)

let test_programs_bubble_sort () =
  let values = Programs.sort_values ~seed:21 ~n:12 in
  let program = Programs.bubble_sort ~values in
  let expected = Array.copy values in
  Array.sort compare expected;
  Alcotest.(check (array int)) "iss bubble-sorts" expected (Program.expected_result program);
  ignore (run_ok ~machine:Datapath.Pipelined ~mode:Shell.Plain program)

(* ------------------------------------------------------------------ *)
(* Random programs: differential testing                              *)
(* ------------------------------------------------------------------ *)

let test_random_program_wellformed () =
  for seed = 0 to 20 do
    let program = Random_program.generate ~seed () in
    (* Must assemble (it already is instructions), halt on the ISS, and
       stay in its scratch region. *)
    let r = Program.reference_run program in
    checkb "halts" true (r.Iss.instructions > 0);
    (* The disassembled source must reassemble to the same text. *)
    let reassembled = Asm.assemble_exn (Asm.disassemble program.Program.text) in
    checkb "disassembly roundtrips" true (reassembled = program.Program.text)
  done

let test_random_program_deterministic () =
  let a = Random_program.generate ~seed:5 () and b = Random_program.generate ~seed:5 () in
  checkb "same seed same program" true (a.Program.text = b.Program.text);
  let c = Random_program.generate ~seed:6 () in
  checkb "different seed differs" true (c.Program.text <> a.Program.text)

(* Differential property: random program, random machine/mode/config —
   the timed machines and the ISS agree on the scratch region. *)
let prop_random_programs_differential =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 0 400 in
      let* machine = oneofl machines in
      let* mode = oneofl modes in
      let* rs_seed = int_range 0 1000 in
      return (seed, machine, mode, rs_seed))
  in
  QCheck2.Test.make ~count:30 ~name:"random programs: ISS = pipelined = multicycle" gen
    (fun (seed, machine, mode, rs_seed) ->
      let program = Random_program.generate ~seed () in
      let prng = Wp_util.Prng.create ~seed:rs_seed in
      let budgets =
        List.map (fun conn -> (conn, Wp_util.Prng.int prng 3)) Datapath.all_connections
      in
      let rs conn = List.assoc conn budgets in
      let r = Cpu.run ~machine ~mode ~rs program in
      r.Cpu.outcome = Cpu.Completed && r.Cpu.result_ok)

(* ------------------------------------------------------------------ *)
(* Randomized differential battery, run through the parallel runner   *)
(* ------------------------------------------------------------------ *)

module Runner = Wp_core.Runner
module Config = Wp_core.Config
module Equiv_check = Wp_core.Equiv_check
module Lid_check = Wp_core.Lid_check
module Sim = Wp_sim.Sim
module Process = Wp_lis.Process

let mode_name = function Shell.Plain -> "plain" | Shell.Oracle -> "oracle"

(* Engine differential: the compiled kernel and the static-schedule
   replay must both be byte-identical to the reference interpreter —
   same outcome and cycle count, same per-channel delivered totals,
   same per-shell statistics and same recorded token streams on every
   output port.  Oracle mode has no static firing word, so there the
   static engine must refuse with [Unschedulable] rather than ever
   produce an answer. *)
let engine_differential ~(note : string -> unit) ~seed ~machine ~mode ~rs program =
  let note fmt = Printf.ksprintf note fmt in
  let exec kind =
    let dp = Datapath.build ~machine ~rs program in
    let sim = Sim.create ~engine:kind ~record_traces:true ~mode dp.Datapath.network in
    let outcome = Sim.run ~max_cycles:2_000_000 sim in
    (dp.Datapath.network, sim, outcome)
  in
  let ctx = Printf.sprintf "%s/%s" (Datapath.machine_name machine) (mode_name mode) in
  match exec Sim.Reference with
  | exception e -> note "seed %d: reference engine raised %s" seed (Printexc.to_string e)
  | net, ref_sim, ref_out ->
    let compare_to kind =
      match exec kind with
      | exception e ->
        note "seed %d: %s %s engine raised %s" seed ctx (Sim.kind_to_string kind)
          (Printexc.to_string e)
      | _, sim, out ->
        let k = Sim.kind_to_string kind in
        if ref_out <> out then
          note "seed %d: %s %s engine disagrees on outcome" seed ctx k;
        if Sim.cycles ref_sim <> Sim.cycles sim then
          note "seed %d: %s %s engine disagrees on cycle count (%d vs %d)" seed ctx k
            (Sim.cycles ref_sim) (Sim.cycles sim);
        List.iter
          (fun c ->
            if Sim.delivered ref_sim c <> Sim.delivered sim c then
              note "seed %d: %s %s engine disagrees on delivered(%s)" seed ctx k
                (Wp_sim.Network.channel_label net c))
          (Wp_sim.Network.channels net);
        List.iter
          (fun n ->
            let proc = Wp_sim.Network.node_process net n in
            if Sim.node_stats ref_sim n <> Sim.node_stats sim n then
              note "seed %d: %s %s engine disagrees on stats(%s)" seed ctx k
                proc.Process.name;
            Array.iteri
              (fun p _ ->
                if Sim.output_trace ref_sim n p <> Sim.output_trace sim n p then
                  note "seed %d: %s %s engine disagrees on trace %s.%s" seed ctx k
                    proc.Process.name proc.Process.output_names.(p))
              proc.Process.output_names)
          (Wp_sim.Network.nodes net)
    in
    compare_to Sim.Fast;
    (match mode with
    | Shell.Plain -> compare_to Sim.Static
    | Shell.Oracle -> (
      (* Never a wrong answer: oracle configurations must be rejected. *)
      match exec Sim.Static with
      | _ -> note "seed %d: %s static engine accepted an oracle configuration" seed ctx
      | exception Wp_sim.Static.Unschedulable _ -> ()
      | exception e ->
        note "seed %d: %s static engine raised %s instead of Unschedulable" seed ctx
          (Printexc.to_string e)))

(* Seed policy (documented in EXPERIMENTS.md): program seeds are
   0 .. battery_seeds-1, and the RS configuration for program seed [s]
   is drawn from [Wp_util.Prng] seeded with [1000 + s], giving every
   connection an independent count in 0..2.  Fully deterministic: a
   failure report names the seed, so any case replays exactly. *)
let battery_seeds = 50

let battery_config seed =
  let prng = Wp_util.Prng.create ~seed:(1000 + seed) in
  Config.of_alist
    (List.map (fun conn -> (conn, Wp_util.Prng.int prng 3)) Datapath.all_connections)

(* The engines expected to answer a given shell mode: every engine on
   plain (statically schedulable) specs, only the dynamic ones under
   the oracle — there the static engine must refuse, which
   [engine_differential] asserts. *)
let engines_for = function
  | Shell.Plain -> [ Sim.Reference; Sim.Fast; Sim.Static ]
  | Shell.Oracle -> [ Sim.Reference; Sim.Fast ]

(* One battery case: a random program under a random RS budget must
   (a) leave the scratch region exactly as the ISS does, on both timed
   machines, in both shell modes, under every engine that admits the
   spec, and (b) pass the full trace-level equivalence check (every
   port prefix-compatible with the golden system) in both modes.
   Returns human-readable failure strings. *)
let battery_case seed =
  let program = Random_program.generate ~seed () in
  let config = battery_config seed in
  let rs = Config.to_fun config in
  let failures = ref [] in
  let note fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun machine ->
      List.iter
        (fun mode ->
          List.iter
            (fun engine ->
              match Cpu.run ~engine ~machine ~mode ~rs program with
              | r ->
                if r.Cpu.outcome <> Cpu.Completed then
                  note "seed %d: %s/%s/%s did not complete under %s" seed
                    (Datapath.machine_name machine) (mode_name mode)
                    (Sim.kind_to_string engine) (Config.describe config)
                else if not r.Cpu.result_ok then
                  note "seed %d: %s/%s/%s diverges from the ISS under %s" seed
                    (Datapath.machine_name machine) (mode_name mode)
                    (Sim.kind_to_string engine) (Config.describe config)
              | exception e ->
                note "seed %d: %s/%s raised %s" seed
                  (Datapath.machine_name machine) (Sim.kind_to_string engine)
                  (Printexc.to_string e))
            (engines_for mode);
          engine_differential
            ~note:(fun s -> failures := s :: !failures)
            ~seed ~machine ~mode ~rs program)
        modes)
    [ Datapath.Pipelined; Datapath.Multicycle ];
  List.iter
    (fun mode ->
      List.iter
        (fun engine ->
          let v =
            Equiv_check.check_spec
              ~spec:(Wp_core.Run_spec.v ~engine ())
              ~machine:Datapath.Pipelined ~mode ~config program
          in
          if not v.Equiv_check.equivalent then begin
            (* Shrink the failing triple and write a replayable
               counterexample file so the failure is actionable without
               re-running the battery. *)
            let repro_info =
              try
                let repro =
                  Lid_check.repro_of_program ~seed ~machine:Datapath.Pipelined ~mode
                    ~engine ~config ~fault:Wp_sim.Fault.none program
                in
                let repro =
                  try Lid_check.shrink_repro repro with _ -> repro
                in
                let path = Lid_check.write_repro repro in
                Printf.sprintf "repro %s; replay: %s" path
                  (Lid_check.replay_command repro)
              with e -> "repro emission failed: " ^ Printexc.to_string e
            in
            note "seed %d: %s/%s equivalence check failed at %s under %s (%s)" seed
              (mode_name mode) (Sim.kind_to_string engine)
              (Option.value ~default:"?" v.Equiv_check.first_mismatch)
              (Config.describe config) repro_info
          end)
        (engines_for mode))
    modes;
  List.rev !failures

let test_differential_battery () =
  let seeds = List.init battery_seeds Fun.id in
  let runner = Runner.create () in
  let failures =
    Fun.protect
      ~finally:(fun () -> Runner.shutdown runner)
      (fun () -> List.concat (Runner.map runner battery_case seeds))
  in
  (match failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d battery failure(s):\n%s" (List.length fs)
      (String.concat "\n" fs));
  checki "all seeds exercised" battery_seeds (List.length seeds)

(* ------------------------------------------------------------------ *)
(* Denotational reference on the full processor                       *)
(* ------------------------------------------------------------------ *)

let test_denotational_cpu () =
  (* The engine-free synchronous semantics of the whole 5-block netlist
     must halt on the same cycle as the golden engine and bound every
     wire-pipelined run's streams. *)
  let program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:17 ~n:8) in
  let dp = Datapath.build ~machine:Datapath.Pipelined ~rs:Cpu.no_relay_stations program in
  let reference = Wp_sim.Denotational.run dp.Datapath.network in
  checkb "reference halts" true reference.Wp_sim.Denotational.halted;
  let golden = Cpu.run_golden ~machine:Datapath.Pipelined program in
  checki "same cycle count as the golden engine" golden.Cpu.cycles
    reference.Wp_sim.Denotational.rounds;
  (* A wire-pipelined oracle run stays within the reference streams. *)
  let rs c = if c = Datapath.ALU_CU then 2 else if c = Datapath.DC_RF then 1 else 0 in
  let dp_wp = Datapath.build ~machine:Datapath.Pipelined ~rs program in
  let engine =
    Wp_sim.Engine.create ~record_traces:true ~mode:Shell.Oracle dp_wp.Datapath.network
  in
  ignore (Wp_sim.Engine.run ~max_cycles:100_000 engine);
  let traces =
    List.map
      (fun t -> (t.Wp_sim.Waveform.wave_label, t.Wp_sim.Waveform.tokens))
      (Wp_sim.Waveform.capture engine)
  in
  checkb "wp2 run bounded by the reference" true
    (Wp_sim.Denotational.engine_matches reference engine traces)

(* ------------------------------------------------------------------ *)
(* FIFO capacity                                                      *)
(* ------------------------------------------------------------------ *)

let test_capacity_sweep_correct_and_monotone () =
  (* Larger shell FIFOs can only help throughput; correctness must hold
     for every capacity (including the generous unbounded mode). *)
  let program = Programs.extraction_sort ~values:(Programs.sort_values ~seed:13 ~n:10) in
  let rs c = if c = Datapath.CU_DC then 1 else 0 in
  let cycles_at capacity =
    let r = Cpu.run ~capacity ~machine:Datapath.Pipelined ~mode:Shell.Plain ~rs program in
    checkb (Printf.sprintf "correct at capacity %d" capacity) true
      (r.Cpu.outcome = Cpu.Completed && r.Cpu.result_ok);
    r.Cpu.cycles
  in
  let c2 = cycles_at 2 in
  let c3 = cycles_at 3 in
  let c4 = cycles_at 4 in
  let unbounded = cycles_at 0 in
  checkb "capacity 3 no slower" true (c3 <= c2);
  checkb "capacity 4 no slower" true (c4 <= c3);
  checkb "unbounded fastest" true (unbounded <= c4)

(* ------------------------------------------------------------------ *)
(* Static schedule vs measured WP1 throughput                         *)
(* ------------------------------------------------------------------ *)

module Static = Wp_sim.Static
module Table1 = Wp_core.Table1
module Cycle_ratio = Wp_graph.Cycle_ratio

(* Every Table 1 network (both datapaths, the ideal / single-RS /
   All 1 / All-1-and-2 configurations).  The steady-state firing word
   the recorded table holds — Fast's stop/valid handshake stepped on
   placeholder processes — must sustain exactly the rate of the
   balanced-word schedule on the capacity-extended marked graph: the
   same rational, in lowest terms, for every block of the datapath. *)
let table1_configs =
  [ ("All 0 (ideal)", Config.zero) ]
  @ List.map
      (fun conn -> ("Only " ^ Datapath.connection_name conn, Config.only conn 1))
      Table1.single_rs_order
  @ [ ("All 1 (no CU-IC)", Config.uniform ~except:[ Datapath.CU_IC ] 1) ]
  @ List.map
      (fun conn ->
        ( "All 1 and 2 " ^ Datapath.connection_name conn,
          Config.set (Config.uniform ~except:[ Datapath.CU_IC ] 1) conn 2 ))
      Table1.single_rs_order

(* Paper rationals worth pinning by hand (pipelined machine): the ideal
   system runs at speed, CU-AL's 3-cycle loop gives 2/3, the CU-IC
   fetch bundle halves throughput. *)
let pinned_rates =
  [ ("All 0 (ideal)", (1, 1)); ("Only CU-AL", (2, 3)); ("Only CU-IC", (1, 2)) ]

let test_static_rate_matches_schedule () =
  let program = Programs.fibonacci ~n:4 in
  let show r = Printf.sprintf "%d/%d" r.Cycle_ratio.num r.Cycle_ratio.den in
  List.iter
    (fun machine ->
      List.iter
        (fun (label, config) ->
          let dp = Datapath.build ~machine ~rs:(Config.to_fun config) program in
          let net = dp.Datapath.network in
          let st = Static.create ~mode:Shell.Plain net in
          let sched = Static.schedule net in
          let rate = sched.Wp_graph.Schedule.rate in
          (if machine = Datapath.Pipelined then
             match List.assoc_opt label pinned_rates with
             | Some (num, den) ->
               if Cycle_ratio.ratio_compare rate (Cycle_ratio.make_ratio num den) <> 0
               then
                 Alcotest.failf "%s: schedule rate %s, paper says %d/%d" label
                   (show rate) num den
             | None -> ());
          List.iter
            (fun n ->
              let measured = Static.rate st n in
              if Cycle_ratio.ratio_compare measured rate <> 0 then
                Alcotest.failf "%s/%s: block %s fires at %s, schedule says %s"
                  (Datapath.machine_name machine) label
                  (Wp_sim.Network.node_process net n).Process.name (show measured)
                  (show rate))
            (Wp_sim.Network.nodes net))
        table1_configs)
    [ Datapath.Pipelined; Datapath.Multicycle ]

(* The flagship property: any RS budget, any machine, any mode — the
   architectural result always matches the ISS (the paper's equivalence
   claim, checked end-to-end through the full processor). *)
let prop_cpu_equivalent_under_random_rs =
  let gen =
    QCheck2.Gen.(
      let* budgets = array_size (return 10) (int_range 0 2) in
      let* machine = oneofl machines in
      let* mode = oneofl modes in
      let* seed = int_range 0 1000 in
      return (budgets, machine, mode, seed))
  in
  QCheck2.Test.make ~count:40 ~name:"random RS budgets preserve the architectural result" gen
    (fun (budgets, machine, mode, seed) ->
      let program = Programs.extraction_sort ~values:(Programs.sort_values ~seed ~n:8) in
      let rs conn =
        let rec index i = function
          | [] -> assert false
          | c :: rest -> if c = conn then i else index (i + 1) rest
        in
        budgets.(index 0 Datapath.all_connections)
      in
      let r = Cpu.run ~machine ~mode ~rs program in
      r.Cpu.outcome = Cpu.Completed && r.Cpu.result_ok)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_isa_roundtrip;
        prop_codec_rf_ctrl_roundtrip;
        prop_codec_alu_op_roundtrip;
        prop_sort_reference_random;
        prop_cpu_equivalent_under_random_rs;
        prop_random_programs_differential;
      ]
  in
  Alcotest.run "wp_soc"
    [
      ( "isa",
        [
          Alcotest.test_case "encode range" `Quick test_isa_encode_range;
          Alcotest.test_case "predicates" `Quick test_isa_predicates;
          Alcotest.test_case "negative immediate" `Quick test_isa_negative_imm;
        ] );
      ( "codec",
        [
          Alcotest.test_case "simple roundtrips" `Quick test_codec_simple_roundtrips;
          Alcotest.test_case "bubble invalid" `Quick test_codec_bubble_is_invalid;
          Alcotest.test_case "dispatch shape" `Quick test_codec_dispatch_shape;
        ] );
      ( "asm",
        [
          Alcotest.test_case "basic" `Quick test_asm_basic;
          Alcotest.test_case "memory operands" `Quick test_asm_memory_operands;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "label-only line" `Quick test_asm_label_only_line;
          Alcotest.test_case "disassemble" `Quick test_asm_disassemble;
        ] );
      ( "iss",
        [
          Alcotest.test_case "arithmetic" `Quick test_iss_arith;
          Alcotest.test_case "branches" `Quick test_iss_branches;
          Alcotest.test_case "memory fault" `Quick test_iss_memory_fault;
          Alcotest.test_case "step limit" `Quick test_iss_step_limit;
        ] );
      ( "programs",
        [
          Alcotest.test_case "sort reference" `Quick test_programs_sort_reference;
          Alcotest.test_case "matmul reference" `Quick test_programs_matmul_reference;
          Alcotest.test_case "extras reference" `Quick test_programs_extras_reference;
          Alcotest.test_case "bubble sort" `Quick test_programs_bubble_sort;
        ] );
      ( "random_programs",
        [
          Alcotest.test_case "well-formed" `Quick test_random_program_wellformed;
          Alcotest.test_case "deterministic" `Quick test_random_program_deterministic;
        ] );
      ( "battery",
        [
          Alcotest.test_case
            (Printf.sprintf "differential battery (%d seeds)" battery_seeds)
            `Quick test_differential_battery;
        ] );
      ( "denotational",
        [ Alcotest.test_case "full processor" `Quick test_denotational_cpu ] );
      ( "capacity",
        [ Alcotest.test_case "sweep correct and monotone" `Quick test_capacity_sweep_correct_and_monotone ] );
      ( "static_schedule",
        [
          Alcotest.test_case "word rate = schedule rate on Table 1 networks" `Quick
            test_static_rate_matches_schedule;
        ] );
      ( "datapath",
        [
          Alcotest.test_case "topology" `Quick test_datapath_topology;
          Alcotest.test_case "rs applied" `Quick test_datapath_rs_applied;
          Alcotest.test_case "connection names" `Quick test_datapath_connection_names;
          Alcotest.test_case "figure 1 dot" `Quick test_figure1_dot;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "all programs, all machines, all modes" `Quick
            test_cpu_all_programs_golden;
          Alcotest.test_case "golden is fastest" `Quick test_cpu_golden_throughput_is_best;
          Alcotest.test_case "wp2 never slower" `Quick test_cpu_wp2_never_slower;
          Alcotest.test_case "worst loop bound" `Quick test_cpu_wp1_matches_worst_loop_bound;
          Alcotest.test_case "CU-IC bundle" `Quick test_cpu_cu_ic_bundle_halves_throughput;
          Alcotest.test_case "multicycle CU-IC oracle gain" `Quick
            test_cpu_multicycle_cu_ic_oracle_gain;
          Alcotest.test_case "btfn prediction speeds up loops" `Quick
            test_cpu_btfn_speeds_up_loops;
        ] );
      ("properties", props);
    ]
