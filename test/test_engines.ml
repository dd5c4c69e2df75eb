(* Differential tests pinning the pre-decoded threaded engine to the
   reference step interpreter: identical outcomes and counters on random
   programs and on the whole benchmark suite, identical trap messages,
   the same out-of-fuel boundary to the instruction (swept exhaustively
   over the threaded engine's fused pairs), a clean image on every reuse
   of the per-domain memory buffer, and deterministic domain-parallel
   profiling for any job count. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Threaded = Impact_interp.Threaded
module Counters = Impact_interp.Counters
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile
module Rng = Impact_support.Rng
module B = Impact_bench_progs.Benchmark

(* ------------------------------------------------------------------ *)
(* Outcome comparison                                                  *)
(* ------------------------------------------------------------------ *)

let check_outcomes_equal ctxt (a : Machine.outcome) (b : Machine.outcome) =
  let fail fmt =
    Printf.ksprintf (fun msg -> Alcotest.failf "%s: %s" ctxt msg) fmt
  in
  if a.Machine.output <> b.Machine.output then
    fail "outputs differ: %S vs %S" a.Machine.output b.Machine.output;
  if a.Machine.output_digest <> b.Machine.output_digest then
    fail "output digests differ";
  if a.Machine.exit_code <> b.Machine.exit_code then
    fail "exit codes differ: %d vs %d" a.Machine.exit_code b.Machine.exit_code;
  if a.Machine.max_stack <> b.Machine.max_stack then
    fail "max_stack differs: %d vs %d" a.Machine.max_stack b.Machine.max_stack;
  let ca = a.Machine.counters and cb = b.Machine.counters in
  let field name f = if f ca <> f cb then fail "counter %s: %d vs %d" name (f ca) (f cb) in
  field "ils" (fun c -> c.Counters.ils);
  field "cts" (fun c -> c.Counters.cts);
  field "calls" (fun c -> c.Counters.calls);
  field "returns" (fun c -> c.Counters.returns);
  field "ext_calls" (fun c -> c.Counters.ext_calls);
  if ca.Counters.func_counts <> cb.Counters.func_counts then
    fail "per-function counts differ";
  if ca.Counters.site_counts <> cb.Counters.site_counts then
    fail "per-site counts differ"

let both_engines ?fuel prog ~input =
  let t = Machine.run ?fuel ~engine:Machine.Threaded prog ~input in
  let r = Machine.run ?fuel ~engine:Machine.Reference prog ~input in
  (t, r)

(* ------------------------------------------------------------------ *)
(* Random-program differential property                                *)
(* ------------------------------------------------------------------ *)

let gen_source =
  QCheck.make
    ~print:(fun s -> s)
    (QCheck.Gen.map
       (fun seed -> Testutil.gen_program (Rng.create seed))
       QCheck.Gen.small_nat)

let engines_agree src =
  let prog = Testutil.compile src in
  if not (Threaded.supported prog) then
    QCheck.Test.fail_reportf "generated program rejected by Threaded.supported";
  let t, r = both_engines prog ~input:"" in
  check_outcomes_equal "random program" t r;
  true

(* ------------------------------------------------------------------ *)
(* Suite differential                                                  *)
(* ------------------------------------------------------------------ *)

let profiles_equal (a : Profile.t) (b : Profile.t) = a = b

let suite_prog (b : B.t) =
  let prog = Impact_il.Lower.lower_source b.B.source in
  ignore (Impact_opt.Driver.pre_inline prog);
  prog

let test_suite_differential () =
  List.iter
    (fun (b : B.t) ->
      let prog = suite_prog b in
      Alcotest.(check bool)
        (b.B.name ^ " supported by threaded engine") true
        (Threaded.supported prog);
      let inputs = b.B.inputs () in
      let t = Profiler.profile ~engine:Machine.Threaded prog ~inputs in
      let r = Profiler.profile ~engine:Machine.Reference prog ~inputs in
      List.iter2
        (fun to_ ro -> check_outcomes_equal b.B.name to_ ro)
        t.Profiler.runs r.Profiler.runs;
      if not (profiles_equal t.Profiler.profile r.Profiler.profile) then
        Alcotest.failf "%s: profiles differ between engines" b.B.name)
    Impact_bench_progs.Suite.all

(* ------------------------------------------------------------------ *)
(* Domain-parallel determinism                                         *)
(* ------------------------------------------------------------------ *)

let test_jobs_deterministic () =
  let b = Impact_bench_progs.Suite.find "cmp" in
  let prog = suite_prog b in
  let inputs = b.B.inputs () in
  let base = Profiler.profile ~jobs:1 prog ~inputs in
  List.iter
    (fun jobs ->
      let p = Profiler.profile ~jobs prog ~inputs in
      if not (profiles_equal base.Profiler.profile p.Profiler.profile) then
        Alcotest.failf "profile with %d jobs differs from 1 job" jobs;
      List.iter2
        (fun a bo -> check_outcomes_equal (Printf.sprintf "jobs=%d" jobs) a bo)
        base.Profiler.runs p.Profiler.runs)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Fuel-boundary parity                                                *)
(* ------------------------------------------------------------------ *)

(* Both engines spend one fuel unit per executed IL and raise
   {!Machine.Out_of_fuel} on the instruction that exhausts it, so for a
   program that executes [ils] instructions: fuel = ils + 1 completes
   (with identical counters) and fuel = ils raises in both engines. *)
let test_fuel_boundary () =
  let src =
    "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
     int main() { return fib(10); }"
  in
  let prog = Testutil.compile src in
  let full = Machine.run prog ~input:"" in
  let ils = full.Machine.counters.Counters.ils in
  let t, r = both_engines ~fuel:(ils + 1) prog ~input:"" in
  check_outcomes_equal "fuel = ils + 1" t r;
  Alcotest.(check int) "exact-fuel run completes" full.Machine.exit_code
    t.Machine.exit_code;
  List.iter
    (fun fuel ->
      let run engine () = ignore (Machine.run ~fuel ~engine prog ~input:"") in
      Alcotest.check_raises
        (Printf.sprintf "threaded out of fuel at %d" fuel)
        Machine.Out_of_fuel (run Machine.Threaded);
      Alcotest.check_raises
        (Printf.sprintf "reference out of fuel at %d" fuel)
        Machine.Out_of_fuel (run Machine.Reference))
    [ ils; ils / 2; 1 ]

(* ------------------------------------------------------------------ *)
(* Trap parity                                                         *)
(* ------------------------------------------------------------------ *)

let trap_of engine prog ~input =
  match Machine.run ~engine prog ~input with
  | _ -> None
  | exception Machine.Trap msg -> Some msg

let check_same_trap name prog =
  let t = trap_of Machine.Threaded prog ~input:"" in
  let r = trap_of Machine.Reference prog ~input:"" in
  (match t with
  | None -> Alcotest.failf "%s: threaded engine did not trap" name
  | Some _ -> ());
  Alcotest.(check (option string)) (name ^ ": same trap message") r t

let func ?(nparams = 0) ?(nregs = 1) ?(nlabels = 0) fid name body =
  {
    Il.fid;
    name;
    nparams;
    nregs;
    nlabels;
    frame_size = 0;
    body;
    alive = true;
  }

let one_func_program ?nlabels ?(next_site = 0) body ~nregs =
  {
    Il.funcs = [| func ~nregs ?nlabels 0 "main" body |];
    globals = [||];
    strings = [||];
    externs = [];
    main = 0;
    next_site;
    address_taken = [];
  }

let test_trap_parity () =
  (* Division by zero, via source so both operands live in registers. *)
  check_same_trap "div by zero"
    (Testutil.compile
       "int main() { int a; int b; a = 7; b = 0; return a / b; }");
  (* Unbounded recursion exhausts the simulated control stack. *)
  check_same_trap "stack overflow"
    (Testutil.compile
       "int f(int n) { int big[64]; big[0] = n; return f(n + 1); }\n\
        int main() { return f(0); }");
  (* A body with no Ret falls off the end (unreachable from C input,
     so built directly in IL). *)
  check_same_trap "fell off the end"
    (one_func_program [| Il.Mov (0, Il.Imm 42) |] ~nregs:1);
  (* An indirect call through a non-function address. *)
  check_same_trap "bad indirect pointer"
    (one_func_program
       [|
         Il.Mov (0, Il.Imm 12345);
         Il.Call_ind (0, Il.Reg 0, [], Some 0);
         Il.Ret (Some (Il.Reg 0));
       |]
       ~nregs:1)

(* Out-of-range memory traps must agree too, including addresses near
   max_int whose bounds check must not overflow. *)
let test_memory_trap_parity () =
  List.iter
    (fun addr ->
      let prog =
        one_func_program
          [|
            Il.Mov (0, Il.Imm addr);
            Il.Load (Il.Word, 0, Il.Reg 0);
            Il.Ret (Some (Il.Reg 0));
          |]
          ~nregs:1
      in
      check_same_trap (Printf.sprintf "load at %d" addr) prog)
    [ 0; -8; 1_000_000_000; max_int / 2 ]

(* ------------------------------------------------------------------ *)
(* Exhaustive fuel sweep over the fused pairs                          *)
(* ------------------------------------------------------------------ *)

(* The threaded engine runs compare + bnz, mov + jump and bnz + jump as
   one closure each.  A fused closure must still run out of fuel on the
   exact IL the reference engine does, so these programs are swept over
   every fuel from 1 to one past their IL count. *)

(* Every fused pair: all six compares against registers and immediates
   holding 3, 7 and 9 with r0 = 7 (so each branch goes both ways), each
   followed by bnz + jump, then mov imm + jump on the taken side and
   mov reg + jump on the other.  A second copy of each block reaches its
   bnz + jump through a plain mov, so that pair runs fused too rather
   than only behind a fused compare.  r12 folds in every branch
   outcome, in order, and is printed and returned. *)
let fused_pairs_program () =
  let body = ref [] and nlabels = ref 0 in
  let emit i = body := i :: !body in
  let label () =
    let l = !nlabels in
    incr nlabels;
    l
  in
  List.iter emit
    Il.
      [
        Mov (0, Imm 7); Mov (1, Imm 3); Mov (2, Imm 7); Mov (3, Imm 9);
        Mov (12, Imm 0); Mov (13, Imm 0);
      ];
  let block op y ~through_mov =
    let taken = label () and other = label () and join = label () in
    emit (Il.Bin (op, 10, Il.Reg 0, y));
    if through_mov then emit (Il.Mov (14, Il.Reg 10));
    emit (Il.Bnz (Il.Reg (if through_mov then 14 else 10), taken));
    emit (Il.Jump other);
    emit (Il.Label taken);
    emit (Il.Mov (11, Il.Imm 1));
    emit (Il.Jump join);
    emit (Il.Label other);
    emit (Il.Mov (11, Il.Reg 13));
    emit (Il.Jump join);
    emit (Il.Label join);
    emit (Il.Bin (Il.Shl, 12, Il.Reg 12, Il.Imm 1));
    emit (Il.Bin (Il.Or, 12, Il.Reg 12, Il.Reg 11))
  in
  List.iter
    (fun op ->
      List.iter
        (fun y ->
          block op y ~through_mov:false;
          block op y ~through_mov:true)
        Il.[ Reg 1; Reg 2; Reg 3; Imm 3; Imm 7; Imm 9 ])
    Il.[ Lt; Le; Gt; Ge; Eq; Ne ];
  (* A fused compare whose bnz tests another register, and a bnz on an
     immediate that always falls through to its jump. *)
  let skip = label () and after = label () in
  List.iter emit
    Il.
      [
        Bin (Lt, 10, Reg 0, Imm 100); Bnz (Reg 13, skip); Bnz (Imm 0, skip);
        Jump after; Label skip; Mov (12, Imm 0); Label after;
        Call_ext (0, "print_int", [ Reg 12 ], None); Ret (Some (Reg 12));
      ];
  one_func_program ~nregs:15 ~next_site:1 ~nlabels:!nlabels
    (Array.of_list (List.rev !body))

(* Each of these falls off the end of main right after a fused pair, so
   a fused closure that spent its fuel without the guard would trap
   where the reference engine runs out of fuel. *)
let fused_tail_programs =
  List.map
    (fun (name, nlabels, body) -> (name, one_func_program ~nregs:3 ~nlabels body))
    Il.
      [
        ( "compare + bnz falls through", 2,
          [|
            Jump 1; Label 0; Ret (Some (Imm 0)); Label 1; Mov (0, Imm 5);
            Bin (Lt, 1, Reg 0, Imm 3); Bnz (Reg 1, 0);
          |] );
        ( "compare + bnz taken", 1,
          [| Mov (0, Imm 1); Bin (Ne, 1, Reg 0, Reg 2); Bnz (Reg 1, 0); Ret None; Label 0 |]
        );
        ("mov imm + jump", 1, [| Mov (0, Imm 1); Jump 0; Label 0 |]);
        ("mov reg + jump", 1, [| Mov (0, Imm 1); Mov (1, Reg 0); Jump 0; Label 0 |]);
        ( "bnz + jump falls through", 1,
          [| Mov (0, Imm 0); Bnz (Reg 0, 0); Jump 0; Label 0 |] );
        ("bnz + jump taken", 1, [| Mov (0, Imm 2); Bnz (Reg 0, 0); Jump 0; Label 0 |]);
      ]

type ending = Finished of Machine.outcome | Raised of string

let run_ending engine ~fuel prog =
  match Machine.run ~fuel ~engine prog ~input:"" with
  | o -> Finished o
  | exception Machine.Out_of_fuel -> Raised "out of fuel"
  | exception Machine.Trap msg -> Raised ("trap: " ^ msg)

let check_same_ending ctxt t r =
  match (t, r) with
  | Finished a, Finished b -> check_outcomes_equal ctxt a b
  | Raised a, Raised b -> Alcotest.(check string) ctxt b a
  | Finished _, Raised b -> Alcotest.failf "%s: threaded finished, reference %s" ctxt b
  | Raised a, Finished _ -> Alcotest.failf "%s: threaded %s, reference finished" ctxt a

let test_fused_fuel_sweep () =
  let prog = fused_pairs_program () in
  Alcotest.(check bool) "supported by threaded engine" true (Threaded.supported prog);
  let ils =
    (Machine.run ~engine:Machine.Reference prog ~input:"").Machine.counters.Counters.ils
  in
  for fuel = 1 to ils + 1 do
    let ctxt = Printf.sprintf "fuel %d of %d" fuel ils in
    let t = run_ending Machine.Threaded ~fuel prog
    and r = run_ending Machine.Reference ~fuel prog in
    check_same_ending ctxt t r;
    match t with
    | Raised "out of fuel" when fuel <= ils -> ()
    | Finished _ when fuel = ils + 1 -> ()
    | _ -> Alcotest.failf "%s: out of fuel exactly when fuel <= ils" ctxt
  done;
  List.iter
    (fun (name, prog) ->
      Alcotest.(check bool) (name ^ " supported") true (Threaded.supported prog);
      for fuel = 1 to Array.length prog.Il.funcs.(0).Il.body + 1 do
        check_same_ending
          (Printf.sprintf "%s, fuel %d" name fuel)
          (run_ending Machine.Threaded ~fuel prog)
          (run_ending Machine.Reference ~fuel prog)
      done)
    fused_tail_programs

(* ------------------------------------------------------------------ *)
(* Image reuse                                                         *)
(* ------------------------------------------------------------------ *)

(* Both engines draw the memory image from a per-domain buffer and, on
   reuse, re-zero only the extents the previous run wrote.  A writer
   dirties the image in every way a run can — a wild store past the heap
   pointer, a store far below the lowest stack pointer, a byte store at
   the top of the stack and a [read] into the stack — and readers with a
   larger and a smaller layout then load those addresses without ever
   storing to them, which must read zero. *)

let layout ~heap_size ~stack_size =
  (* No globals or strings: the heap starts at the globals base. *)
  let heap_start = Impact_interp.Rt.globals_base in
  let stack_base = heap_start + heap_size in
  (heap_start, stack_base, stack_base + stack_size)

let writer_sizes = (64 * 1024, 64 * 1024)

(* (address, width) of each write the writer makes. *)
let written_spots () =
  let heap_size, stack_size = writer_sizes in
  let heap_start, stack_base, stack_top = layout ~heap_size ~stack_size in
  [
    (heap_start + 1000, Il.Word); (stack_base + 256, Il.Word);
    (stack_top - 1, Il.Byte); (stack_base, Il.Word);
  ]

let writer () =
  match written_spots () with
  | [ (heap, _); (deep, _); (top, _); (read_at, _) ] ->
    one_func_program ~nregs:1 ~next_site:1
      Il.
        [|
          Store (Word, Imm heap, Imm 0x1111_2222);
          Store (Word, Imm deep, Imm (-1));
          Store (Byte, Imm top, Imm 0xab);
          Call_ext (0, "read", [ Imm read_at; Imm 8 ], Some 0);
          Ret (Some (Reg 0));
        |]
  | _ -> assert false

(* A reader with the given layout that prints the value at each written
   spot inside its image; the second component is how many it reads. *)
let reader (heap_size, stack_size) =
  let _, _, top = layout ~heap_size ~stack_size in
  let spots =
    List.filter
      (fun (a, w) -> a + (match w with Il.Word -> 8 | Il.Byte -> 1) <= top)
      (written_spots ())
  in
  let body =
    List.concat
      (List.mapi
         (fun i (a, w) ->
           Il.[ Load (w, 0, Imm a); Call_ext (i, "print_int", [ Reg 0 ], None) ])
         spots)
  in
  ( one_func_program ~nregs:1 ~next_site:(List.length spots)
      (Array.of_list (body @ [ Il.Ret (Some (Il.Imm 0)) ])),
    List.length spots )

let test_image_reuse () =
  let prime = Testutil.compile "int main() { return 0; }" in
  let heap_size, stack_size = writer_sizes in
  let larger = (2 * heap_size, stack_size)
  and smaller = (3 * heap_size / 2, 8 * 1024) in
  Alcotest.(check int) "the smaller reader cannot reach the writer's stack top"
    3 (snd (reader smaller));
  let run engine (heap_size, stack_size) prog input =
    Machine.run ~engine ~heap_size ~stack_size prog ~input
  in
  let engines = [ Machine.Threaded; Machine.Reference ] in
  List.iter
    (fun we ->
      List.iter
        (fun re ->
          let ctxt what =
            Printf.sprintf "%s (%s writer, %s reader)" what
              (Machine.engine_to_string we) (Machine.engine_to_string re)
          in
          let write () =
            Alcotest.(check int) (ctxt "bytes read") 8
              (run we writer_sizes (writer ()) "ABCDEFGH").Machine.exit_code
          in
          let read what sizes =
            let prog, nspots = reader sizes in
            Alcotest.(check string) (ctxt what) (String.make nspots '0')
              (run re sizes prog "").Machine.output
          in
          (* A default-size run first, so that every later image fits
             the domain's buffer and is a reuse. *)
          ignore (Machine.run ~engine:we prime ~input:"");
          write ();
          read "larger layout reads zeros" larger;
          write ();
          read "smaller layout reads zeros" smaller;
          read "larger layout after a smaller one reads zeros" larger)
        engines)
    engines

(* ------------------------------------------------------------------ *)
(* Fallback for unsupported programs                                   *)
(* ------------------------------------------------------------------ *)

(* An immediate that does not survive the tagged-operand shift forces
   the threaded engine's [supported] gate off; Machine.run must fall
   back to the reference engine transparently. *)
let test_unsupported_fallback () =
  let prog =
    one_func_program [| Il.Ret (Some (Il.Imm max_int)) |] ~nregs:1
  in
  Alcotest.(check bool) "rejected by supported" false (Threaded.supported prog);
  let t, r = both_engines prog ~input:"" in
  check_outcomes_equal "unsupported fallback" t r

(* ------------------------------------------------------------------ *)
(* keep_outputs                                                        *)
(* ------------------------------------------------------------------ *)

let test_keep_outputs () =
  let b = Impact_bench_progs.Suite.find "wc" in
  let prog = suite_prog b in
  let inputs = b.B.inputs () in
  let kept = Profiler.profile ~keep_outputs:true prog ~inputs in
  let dropped = Profiler.profile ~keep_outputs:false prog ~inputs in
  if not (profiles_equal kept.Profiler.profile dropped.Profiler.profile) then
    Alcotest.fail "keep_outputs:false changed the profile";
  List.iter2
    (fun (k : Machine.outcome) (d : Machine.outcome) ->
      Alcotest.(check string) "digest survives" k.Machine.output_digest
        d.Machine.output_digest;
      Alcotest.(check string) "output text dropped" "" d.Machine.output;
      Alcotest.(check string) "digest is of the kept output"
        (Digest.to_hex (Digest.string k.Machine.output))
        (Digest.to_hex d.Machine.output_digest))
    kept.Profiler.runs dropped.Profiler.runs

(* ------------------------------------------------------------------ *)
(* Resource budgets: both engines must hit the same wall at the same
   place — the output watermark traps with the identical message, and
   the wall-clock deadline raises the same exception.                  *)
(* ------------------------------------------------------------------ *)

let test_output_budget_parity () =
  let prog =
    Testutil.compile
      {|
extern int putchar(int c);
int main() { int i; for (i = 0; i < 100; i++) putchar(65); return 0; }
|}
  in
  let budget = Impact_interp.Rt.budget ~max_output:10 () in
  let trap engine =
    match Machine.run ~budget ~engine prog ~input:"" with
    | _ -> Alcotest.fail "expected the output budget to trap"
    | exception Machine.Trap msg -> msg
  in
  Alcotest.(check string) "identical output-budget trap"
    (trap Machine.Reference) (trap Machine.Threaded);
  (* Under the watermark the budget is invisible: outcomes stay equal to
     an unbudgeted run on both engines. *)
  let roomy = Impact_interp.Rt.budget ~max_output:1000 () in
  let t = Machine.run ~budget:roomy ~engine:Machine.Threaded prog ~input:"" in
  let r = Machine.run ~budget:roomy ~engine:Machine.Reference prog ~input:"" in
  check_outcomes_equal "under the output budget" t r;
  check_outcomes_equal "budget invisible when not hit" t
    (Machine.run ~engine:Machine.Reference prog ~input:"")

let test_deadline_parity () =
  let prog =
    Testutil.compile
      {|
int one() { return 1; }
int main() { int i, s = 0; for (i = 0; i < 200000; i++) s += one(); return s & 0; }
|}
  in
  let budget = Impact_interp.Rt.budget ~timeout_s:1e-9 () in
  List.iter
    (fun engine ->
      match Machine.run ~budget ~engine prog ~input:"" with
      | _ -> Alcotest.fail "expected Deadline_exceeded"
      | exception Machine.Deadline_exceeded -> ())
    [ Machine.Threaded; Machine.Reference ];
  (* A generous deadline never fires. *)
  let roomy = Impact_interp.Rt.budget ~timeout_s:3600. () in
  let t = Machine.run ~budget:roomy ~engine:Machine.Threaded prog ~input:"" in
  let r = Machine.run ~budget:roomy ~engine:Machine.Reference prog ~input:"" in
  check_outcomes_equal "under the deadline" t r

(* ------------------------------------------------------------------ *)

let props =
  [
    QCheck.Test.make ~count:80 ~name:"threaded and reference engines agree"
      gen_source engines_agree;
  ]

let tests =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "suite differential (profiles and outcomes)" `Slow
        test_suite_differential;
      Alcotest.test_case "profiling is deterministic across job counts" `Quick
        test_jobs_deterministic;
      Alcotest.test_case "out-of-fuel boundary parity" `Quick test_fuel_boundary;
      Alcotest.test_case "fused pairs: exhaustive fuel sweep" `Quick
        test_fused_fuel_sweep;
      Alcotest.test_case "image reuse re-zeroes what the last run wrote" `Quick
        test_image_reuse;
      Alcotest.test_case "trap parity" `Quick test_trap_parity;
      Alcotest.test_case "memory trap parity" `Quick test_memory_trap_parity;
      Alcotest.test_case "unsupported programs fall back to reference" `Quick
        test_unsupported_fallback;
      Alcotest.test_case "keep_outputs drops text, keeps digest" `Quick
        test_keep_outputs;
      Alcotest.test_case "output-budget trap parity" `Quick
        test_output_budget_parity;
      Alcotest.test_case "deadline parity" `Quick test_deadline_parity;
    ]
