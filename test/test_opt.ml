(* Optimisation-pass tests: unit checks on rewrites plus semantic
   preservation on concrete programs. *)

module Il = Impact_il.Il
module Const_fold = Impact_opt.Const_fold
module Copy_prop = Impact_opt.Copy_prop
module Dce = Impact_opt.Dce
module Jump_opt = Impact_opt.Jump_opt
module Driver = Impact_opt.Driver
module Benchmark = Impact_bench_progs.Benchmark

let preserved name pass ?(input = "") src =
  let plain = Testutil.compile src in
  let optimized = Testutil.compile src in
  let _ = pass optimized in
  Impact_il.Il_check.check_exn optimized;
  let out_a = Testutil.run_prog ~input plain in
  let out_b = Testutil.run_prog ~input optimized in
  Alcotest.(check (pair string int)) name out_a out_b

let corpus =
  [
    "int main() { int x = 2 + 3 * 4; return x - 14; }";
    "int main() { int a = 5; int b = a; int c = b + b; return c - 10; }";
    {|
extern int print_int(int n);
int main() {
  int i, s = 0;
  for (i = 0; i < 20; i++) { if (i % 3 == 0) s += i; else s -= 1; }
  print_int(s);
  return 0;
}
|};
    {|
extern int getchar();
extern int putchar(int c);
int main() { int c; while ((c = getchar()) != -1) putchar(c + 1); return 0; }
|};
    {|
extern int print_int(int n);
int f(int x) { return x * 2; }
int main() { print_int(f(3) + f(4)); return 0; }
|};
  ]

let all_passes =
  [
    ("const_fold", Const_fold.fold);
    ("copy_prop", Copy_prop.propagate);
    ("dce", Dce.eliminate);
    ("jump_opt", Jump_opt.optimize);
    ("pre_inline", Driver.pre_inline);
    ("post_cleanup", Driver.post_inline_cleanup);
  ]

let test_passes_preserve_semantics () =
  List.iter
    (fun (name, pass) ->
      List.iteri
        (fun i src ->
          preserved (Printf.sprintf "%s on corpus[%d]" name i) pass ~input:"abc" src)
        corpus)
    all_passes

let test_const_fold_folds () =
  let prog = Testutil.compile "int main() { return 2 + 3 * 4; }" in
  let n = Const_fold.fold prog in
  Alcotest.(check bool) "some folds happened" true (n > 0);
  let f = prog.Il.funcs.(prog.Il.main) in
  let has_bin = Array.exists (function Il.Bin _ -> true | _ -> false) f.Il.body in
  Alcotest.(check bool) "constant arithmetic disappeared" false has_bin

let test_const_fold_keeps_div_by_zero () =
  let prog = Testutil.compile "int main() { int z = 0; return 5 / z; }" in
  ignore (Driver.pre_inline prog);
  match Impact_interp.Machine.run prog ~input:"" with
  | exception Impact_interp.Machine.Trap _ -> ()
  | _ -> Alcotest.fail "folding must not erase a division-by-zero trap"

let test_copy_prop_rewrites () =
  let prog =
    Testutil.compile "int main() { int a = 1; int b = a; int c = b; return c; }"
  in
  let n = Copy_prop.propagate prog in
  Alcotest.(check bool) "copies propagated" true (n > 0)

(* The indexed pass against the quadratic oracle on the paper's twelve
   programs after inlining (devirt on, so guards and renamed callee
   registers both appear): same rewrite counts, same IL, alone and
   inside the cleanup fixpoint. *)
let test_copy_prop_matches_oracle_on_suite () =
  List.iter
    (fun (b : Benchmark.t) ->
      let prog = Testutil.compile b.Benchmark.source in
      ignore (Driver.pre_inline prog);
      let input = List.hd (b.Benchmark.inputs ()) in
      let { Impact_profile.Profiler.profile; _ } =
        Impact_profile.Profiler.profile prog ~inputs:[ input ]
      in
      let config =
        { Impact_core.Config.default with Impact_core.Config.devirt = true }
      in
      let report = Impact_core.Inliner.run ~config prog profile in
      match Copy_prop_oracle.agrees report.Impact_core.Inliner.program with
      | Ok () -> ()
      | Error e -> Alcotest.fail (b.Benchmark.name ^ ": " ^ e))
    Impact_bench_progs.Suite.all

(* Stale reverse-index entries.  Each of [nblocks] labelled blocks works
   in its own window of registers s1 = b, d = b+1, s2 = b+2, e = b+3,
   t = b+4:
   - d is made a copy of s1, killed, and re-made a copy of s2; killing
     s1 must leave d's copy of s2 alone (the entry for d under s1 is
     stale);
   - e is made a copy of s1, killed, and re-made a copy of s1, so s1
     lists e twice; t copies e (hence s1); killing s1 must then end both
     e's and t's copies, and still not d's;
   - a copy recorded in the previous block must not survive the label. *)
let test_copy_prop_stale_holders () =
  let nblocks = 50 in
  let window = 5 in
  let body = ref [] in
  let emit i = body := i :: !body in
  let w = Il.Word in
  for k = 0 to nblocks - 1 do
    let b = window * k in
    let s1 = b and d = b + 1 and s2 = b + 2 and e = b + 3 and t = b + 4 in
    emit (Il.Label k);
    if k > 0 then emit (Il.Store (w, Il.Reg (b - window + 1), Il.Imm 3));
    emit (Il.Mov (d, Il.Reg s1));
    emit (Il.Mov (d, Il.Imm k));
    emit (Il.Mov (d, Il.Reg s2));
    emit (Il.Mov (s1, Il.Imm 0));
    emit (Il.Store (w, Il.Reg d, Il.Imm 0));
    emit (Il.Mov (e, Il.Reg s1));
    emit (Il.Mov (e, Il.Imm 1));
    emit (Il.Mov (e, Il.Reg s1));
    emit (Il.Store (w, Il.Reg e, Il.Imm 1));
    emit (Il.Mov (t, Il.Reg e));
    emit (Il.Mov (s1, Il.Imm 2));
    emit (Il.Store (w, Il.Reg e, Il.Reg t));
    emit (Il.Store (w, Il.Reg d, Il.Imm 2));
    emit (Il.Jump (k + 1))
  done;
  emit (Il.Label nblocks);
  emit (Il.Ret None);
  let func () =
    {
      Il.fid = 0;
      name = "main";
      nparams = 0;
      nregs = window * nblocks;
      nlabels = nblocks + 1;
      frame_size = 0;
      body = Array.of_list (List.rev !body);
      alive = true;
    }
  in
  let f = func () in
  let n = Copy_prop.propagate_func f in
  let g = func () in
  let n_oracle = Copy_prop_oracle.propagate_func g in
  Alcotest.(check int) "four rewrites per block" (4 * nblocks) n;
  Alcotest.(check int) "oracle agrees on the count" n_oracle n;
  Alcotest.(check bool) "oracle agrees on the body" true (f.Il.body = g.Il.body);
  let stores =
    Array.to_list f.Il.body
    |> List.filter_map (function
         | Il.Store (_, a, v) -> Some (a, v)
         | _ -> None)
  in
  let expected =
    List.concat
      (List.init nblocks (fun k ->
           let b = window * k in
           let reg r = Il.Reg r in
           (if k > 0 then [ (reg (b - window + 1), Il.Imm 3) ] else [])
           @ [
               (reg (b + 2), Il.Imm 0);
               (reg b, Il.Imm 1);
               (reg (b + 3), reg (b + 4));
               (reg (b + 2), Il.Imm 2);
             ]))
  in
  Alcotest.(check bool) "every use reads the right register" true
    (stores = expected)

let test_dce_removes_dead_code () =
  (* The chain dead -> dead2 is acyclic, so iterated DCE removes both;
     a self-referential chain (dead = dead * 2) would survive the
     read-anywhere approximation by design. *)
  let prog =
    Testutil.compile
      "int main() { int dead = 12345; int dead2 = dead * 2; int live = 1; return live; }"
  in
  let removed = Dce.eliminate prog in
  Alcotest.(check bool) "dead assignments removed" true (removed >= 2);
  let out, code = Testutil.run_prog prog in
  Alcotest.(check (pair string int)) "behaviour kept" ("", 1) (out, code)

let test_dce_keeps_stores_and_calls () =
  let prog =
    Testutil.compile
      {|
extern int putchar(int c);
int g;
int main() { g = 7; putchar('x'); return 0; }
|}
  in
  let _ = Dce.eliminate prog in
  let out, _ = Testutil.run_prog prog in
  Alcotest.(check string) "side effects preserved" "x" out

let test_jump_opt_shrinks_inlined_code () =
  (* Inline expansion introduces jump-in/jump-out pairs; jump_opt must be
     able to clean them up (the paper's §4.4 remark). *)
  let src =
    {|
extern int print_int(int n);
int inc(int x) { return x + 1; }
int main() { int i, s = 0; for (i = 0; i < 50; i++) s = inc(s); print_int(s); return 0; }
|}
  in
  let prog = Testutil.compile src in
  let { Impact_profile.Profiler.profile; _ } =
    Impact_profile.Profiler.profile prog ~inputs:[ "" ]
  in
  let config =
    { Impact_core.Config.default with program_size_limit_ratio = 3.0 }
  in
  let report = Impact_core.Inliner.run ~config prog profile in
  let inlined = report.Impact_core.Inliner.program in
  let before = Il.program_code_size inlined in
  let changes = Driver.post_inline_cleanup inlined in
  Impact_il.Il_check.check_exn inlined;
  Alcotest.(check bool) "cleanup did something" true (changes > 0);
  Alcotest.(check bool) "code shrank" true (Il.program_code_size inlined < before);
  let out, _ = Testutil.run_prog inlined in
  Alcotest.(check string) "behaviour kept" "50" out

let test_jump_opt_constant_branches () =
  let prog =
    Testutil.compile "int main() { if (1) return 5; else return 6; }"
  in
  ignore (Driver.pre_inline prog);
  Impact_il.Il_check.check_exn prog;
  let _, code = Testutil.run_prog prog in
  Alcotest.(check int) "constant branch folded correctly" 5 code

let tests =
  [
    Alcotest.test_case "all passes preserve semantics" `Quick
      test_passes_preserve_semantics;
    Alcotest.test_case "const_fold folds arithmetic" `Quick test_const_fold_folds;
    Alcotest.test_case "const_fold keeps traps" `Quick test_const_fold_keeps_div_by_zero;
    Alcotest.test_case "copy_prop rewrites" `Quick test_copy_prop_rewrites;
    Alcotest.test_case "copy_prop matches its oracle on the suite" `Quick
      test_copy_prop_matches_oracle_on_suite;
    Alcotest.test_case "copy_prop ignores stale holders" `Quick
      test_copy_prop_stale_holders;
    Alcotest.test_case "dce removes dead code" `Quick test_dce_removes_dead_code;
    Alcotest.test_case "dce keeps side effects" `Quick test_dce_keeps_stores_and_calls;
    Alcotest.test_case "jump_opt cleans inlined jumps" `Quick
      test_jump_opt_shrinks_inlined_code;
    Alcotest.test_case "jump_opt folds constant branches" `Quick
      test_jump_opt_constant_branches;
  ]
