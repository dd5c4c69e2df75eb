(* IL utilities, validator and lowering invariants. *)

module Il = Impact_il.Il
module Il_check = Impact_il.Il_check

let compile = Testutil.compile

let sample =
  {|
extern int getchar();
int helper(int a, int b) { return a * b + 1; }
int through(int x) { return helper(x, x); }
int main() {
  int (*fp)(int) = through;
  return helper(1, 2) + through(3) + fp(4) + getchar();
}
|}

let test_code_size_excludes_labels () =
  let prog = compile "int main() { int i, s = 0; for (i = 0; i < 3; i++) s++; return s; }" in
  let f = prog.Il.funcs.(prog.Il.main) in
  let labels =
    Array.fold_left (fun n i -> if Il.instr_is_label i then n + 1 else n) 0 f.Il.body
  in
  Alcotest.(check bool) "the loop has labels" true (labels > 0);
  Alcotest.(check int) "code_size + labels = body length"
    (Array.length f.Il.body) (Il.code_size f + labels)

let test_sites_unique_and_ordered () =
  let prog = compile sample in
  let all =
    Array.to_list prog.Il.funcs
    |> List.concat_map (fun f -> Il.sites_of f)
    |> List.map (fun s -> s.Il.s_id)
  in
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "site ids are unique" (List.length all) (List.length sorted);
  Alcotest.(check bool) "next_site exceeds all ids" true
    (List.for_all (fun id -> id < prog.Il.next_site) all)

let test_site_kinds () =
  let prog = compile sample in
  let kind_counts = Hashtbl.create 4 in
  Array.iter
    (fun f ->
      List.iter
        (fun (s : Il.site) ->
          let key =
            match s.Il.s_kind with
            | Il.To_user _ -> "user"
            | Il.To_extern _ -> "ext"
            | Il.Through_pointer -> "ptr"
          in
          Hashtbl.replace kind_counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt kind_counts key)))
        (Il.sites_of f))
    prog.Il.funcs;
  let get k = Option.value ~default:0 (Hashtbl.find_opt kind_counts k) in
  Alcotest.(check int) "direct calls" 3 (get "user");
  Alcotest.(check int) "external calls" 1 (get "ext");
  Alcotest.(check int) "pointer calls" 1 (get "ptr")

let test_find_func_and_address_taken () =
  let prog = compile sample in
  (match Il.find_func prog "helper" with
  | Some f -> Alcotest.(check int) "helper has 2 params" 2 f.Il.nparams
  | None -> Alcotest.fail "helper not found");
  Alcotest.(check (option string)) "missing function" None
    (Option.map (fun f -> f.Il.name) (Il.find_func prog "nope"));
  let taken = List.map (fun fid -> prog.Il.funcs.(fid).Il.name) prog.Il.address_taken in
  Alcotest.(check (list string)) "address-taken" [ "through" ] taken

let test_copy_program_isolates () =
  let prog = compile sample in
  let copy = Il.copy_program prog in
  let f = copy.Il.funcs.(copy.Il.main) in
  f.Il.body <- [||];
  f.Il.nregs <- 0;
  Alcotest.(check bool) "original body untouched" true
    (Array.length prog.Il.funcs.(prog.Il.main).Il.body > 0)

let test_stack_usage_grows_with_frame () =
  let small = compile "int main() { int x = 1; return x; }" in
  let big = compile "int main() { int a[100]; a[0] = 1; return a[0]; }" in
  let su p = Il.stack_usage p.Il.funcs.(p.Il.main) in
  Alcotest.(check bool) "arrays enlarge the frame" true (su big > su small + 700)

let test_validator_accepts_lowered () =
  List.iter
    (fun src ->
      match Il_check.check (compile src) with
      | Ok () -> ()
      | Error errs -> Alcotest.fail (String.concat "; " errs))
    [
      sample;
      "int main() { return 0; }";
      "int main() { switch (1) { case 1: return 1; } return 0; }";
    ]

let test_validator_rejects_corruption () =
  let expect_bad mutate =
    let prog = compile sample in
    mutate prog;
    match Il_check.check prog with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "validator accepted a corrupted program"
  in
  (* Register out of range. *)
  expect_bad (fun prog ->
      let f = prog.Il.funcs.(prog.Il.main) in
      f.Il.body <- Array.append f.Il.body [| Il.Mov (9999, Il.Imm 0) |]);
  (* Branch to an undefined label. *)
  expect_bad (fun prog ->
      let f = prog.Il.funcs.(prog.Il.main) in
      f.Il.nlabels <- f.Il.nlabels + 1;
      f.Il.body <- Array.append f.Il.body [| Il.Jump (f.Il.nlabels - 1) |]);
  (* Duplicate site id. *)
  expect_bad (fun prog ->
      let f = prog.Il.funcs.(prog.Il.main) in
      match Il.sites_of f with
      | s :: _ -> f.Il.body <- Array.append f.Il.body [| f.Il.body.(s.Il.s_index) |]
      | [] -> Alcotest.fail "sample should have sites");
  (* Wrong arity. *)
  expect_bad (fun prog ->
      let f = prog.Il.funcs.(prog.Il.main) in
      let helper = Option.get (Il.find_func prog "helper") in
      f.Il.body <-
        Array.append f.Il.body
          [| Il.Call (prog.Il.next_site - 1 + 1000, helper.Il.fid, [ Il.Imm 1 ], None) |])

let test_register_variables () =
  (* A scalar whose address is never taken must not touch memory. *)
  let prog = compile "int main() { int x = 4; x = x + 1; return x; }" in
  let f = prog.Il.funcs.(prog.Il.main) in
  let touches_memory =
    Array.exists
      (function Il.Load _ | Il.Store _ | Il.Lea_frame _ -> true | _ -> false)
      f.Il.body
  in
  Alcotest.(check bool) "register-allocated scalar" false touches_memory;
  Alcotest.(check int) "no frame needed" 0 f.Il.frame_size

let test_addr_taken_goes_to_frame () =
  let prog =
    compile "int main() { int x = 4; int *p = &x; *p = 9; return x; }"
  in
  let f = prog.Il.funcs.(prog.Il.main) in
  Alcotest.(check bool) "frame slot allocated" true (f.Il.frame_size >= 8)

(* ------------------------------------------------------------------ *)
(* The dump against its reference printer                              *)
(* ------------------------------------------------------------------ *)

(* [Il_pp.dump] is the program checksum behind every stage-cache key, so
   it must stay byte-identical to the Format-based printer it replaced
   ([Il_pp_oracle]). *)

module Il_pp = Impact_il.Il_pp
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Pipeline = Impact_harness.Pipeline
module Profiler = Impact_profile.Profiler
module Rng = Impact_support.Rng

let check_dump what prog =
  Alcotest.(check string) what (Il_pp_oracle.dump prog) (Il_pp.dump prog)

let devirt_config = { Config.default with Config.devirt = true }

let test_dump_suite () =
  List.iter
    (fun (r : Pipeline.result) ->
      let name = r.Pipeline.bench.Impact_bench_progs.Benchmark.name in
      check_dump (name ^ " before inlining") r.Pipeline.prog;
      check_dump (name ^ " after inlining") r.Pipeline.inliner.Inliner.program)
    (Pipeline.run_suite ~config:devirt_config ~post_cleanup:true ~jobs:1 ())

(* Every constructor, negative immediates and [min_int], strings that
   need escaping, switch tables, [ret] with and without a value, and a
   dead function, which the dump skips. *)
let every_instr_program () =
  let imm n = Il.Imm n in
  let binops =
    Il.[ Add; Sub; Mul; Div; Mod; Shl; Shr; And; Or; Xor; Lt; Le; Gt; Ge; Eq; Ne ]
  in
  let body =
    [ Il.Label 0; Il.Mov (1, imm (-42)); Il.Mov (2, imm min_int); Il.Mov (3, imm max_int);
      Il.Mov (4, Il.Reg 1) ]
    @ List.map (fun op -> Il.Un (op, 5, imm (-7))) Il.[ Neg; Not; Lnot ]
    @ List.mapi (fun i op -> Il.Bin (op, 6, Il.Reg i, imm (-i - 1))) binops
    @ [
        Il.Load (Il.Byte, 1, imm (-4));
        Il.Load (Il.Word, 2, Il.Reg 3);
        Il.Store (Il.Byte, Il.Reg 1, imm (-1));
        Il.Store (Il.Word, imm 64, Il.Reg 2);
        Il.Lea_frame (1, -16);
        Il.Lea_frame (2, 8);
        Il.Lea_global (3, 1);
        Il.Lea_string (4, 1);
        Il.Lea_func (5, 1);
        Il.Call (1, 1, [ Il.Reg 1; imm (-3) ], Some 2);
        Il.Call (2, 1, [], None);
        Il.Call_ext (3, "print_int", [ imm min_int ], None);
        Il.Call_ext (4, "getchar", [], Some 7);
        Il.Call_ind (5, Il.Reg 4, [ imm 1; imm 2; Il.Reg 3 ], Some 5);
        Il.Call_ind (6, imm (-100), [], None);
        Il.Label 1;
        Il.Jump 0;
        Il.Bnz (imm (-1), 0);
        Il.Bnz (Il.Reg 1, 1);
        Il.Switch (Il.Reg 1, [| (-5, 0); (0, 1); (min_int, 1); (max_int, 0) |], 1);
        Il.Switch (imm (-2), [||], 0);
        Il.Ret (Some (imm (-1)));
        Il.Ret (Some (Il.Reg 0));
        Il.Ret None;
      ]
  in
  let func fid name alive body =
    {
      Il.fid;
      name;
      nparams = 1;
      nregs = 8;
      nlabels = 2;
      frame_size = 24;
      body = Array.of_list body;
      alive;
    }
  in
  {
    Il.funcs =
      [|
        func 0 "main" true body;
        func 1 "callee" true [ Il.Ret (Some (imm (-9))) ];
        func 2 "dead_fn" false [ Il.Mov (1, imm (-1)); Il.Ret None ];
      |];
    globals =
      [|
        { Il.g_id = 0; g_name = "counter"; g_size = 8; g_init = [] };
        { Il.g_id = 1; g_name = "table"; g_size = 400; g_init = [ (0, Il.Gword (-1)) ] };
      |];
    strings = [| "plain"; "tab\there \"quoted\" back\\slash\nnewline \001\255"; "" |];
    externs = [ "print_int"; "getchar" ];
    main = 0;
    next_site = 7;
    address_taken = [ 1 ];
  }

let test_dump_every_instr () =
  let prog = every_instr_program () in
  check_dump "hand-built program" prog;
  Array.iter
    (fun i ->
      Alcotest.(check string) "string_of_instr"
        (Il_pp_oracle.string_of_instr prog i) (Il_pp.string_of_instr prog i))
    prog.Il.funcs.(0).Il.body;
  Alcotest.(check string) "pp_program prints the dump" (Il_pp.dump prog)
    (Format.asprintf "%a" Il_pp.pp_program prog);
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let text = Il_pp.dump prog in
  Alcotest.(check bool) "dead function skipped" false (contains text "dead_fn");
  Alcotest.(check bool) "negative immediate keeps its sign" true
    (contains text "r1 := -42\n")

(* A cgen corpus, each program before and after aggressive inlining with
   devirtualization and the post-inline cleanup. *)
let dump_matches_oracle =
  QCheck.Test.make ~count:40 ~name:"dump matches the reference printer on a cgen corpus"
    (QCheck.make
       ~print:string_of_int
       (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let prog = compile (Test_cgen.generate (Rng.create seed)) in
      ignore (Impact_opt.Driver.pre_inline prog);
      let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
      let config = { Test_cgen.aggressive with Config.devirt = true } in
      let post = (Inliner.run ~config prog profile).Inliner.program in
      ignore (Impact_opt.Driver.post_inline_cleanup post);
      List.for_all
        (fun p -> Il_pp_oracle.dump p = Il_pp.dump p || QCheck.Test.fail_report "dump differs")
        [ prog; post ])

let tests =
  [
    Alcotest.test_case "code_size excludes labels" `Quick test_code_size_excludes_labels;
    Alcotest.test_case "site ids unique" `Quick test_sites_unique_and_ordered;
    Alcotest.test_case "site kinds" `Quick test_site_kinds;
    Alcotest.test_case "find_func / address_taken" `Quick test_find_func_and_address_taken;
    Alcotest.test_case "copy_program isolates" `Quick test_copy_program_isolates;
    Alcotest.test_case "stack usage" `Quick test_stack_usage_grows_with_frame;
    Alcotest.test_case "validator accepts lowered IL" `Quick test_validator_accepts_lowered;
    Alcotest.test_case "validator rejects corruption" `Quick test_validator_rejects_corruption;
    Alcotest.test_case "scalars live in registers" `Quick test_register_variables;
    Alcotest.test_case "address-taken locals get frame slots" `Quick
      test_addr_taken_goes_to_frame;
    Alcotest.test_case "dump matches the reference printer on the suite" `Quick
      test_dump_suite;
    Alcotest.test_case "dump covers every instruction form" `Quick test_dump_every_instr;
    QCheck_alcotest.to_alcotest dump_matches_oracle;
  ]
