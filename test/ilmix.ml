(* Dynamic IL mix of the benchmark suite, before and after inlining.

     dune exec test/ilmix.exe [-- BENCH...]

   Runs each benchmark (default: all twelve) through the default
   pipeline and executes the pre-inline and the inlined program on the
   benchmark's inputs with a small step interpreter of its own, which
   counts every executed IL by kind and every fall-through pair the
   threaded engine fuses (compare + bnz, mov + jump, bnz + jump: the
   second IL runs right after the first, at the next body position of
   the same activation).  It prints both as markdown tables.

   The step interpreter shares every bit of semantics with the engines
   through {!Impact_interp.Rt}; as a check on itself, each run's IL and
   control-transfer totals must equal the threaded engine's counters, or
   the program exits with status 1. *)

module Il = Impact_il.Il
module Rt = Impact_interp.Rt
module Machine = Impact_interp.Machine
module Counters = Impact_interp.Counters
module B = Impact_bench_progs.Benchmark

let kinds =
  [| "mov"; "compare"; "arith"; "load"; "store"; "lea"; "jump"; "bnz";
     "switch"; "call"; "call_ext"; "call_ind"; "ret" |]

let pairs = [| "compare + bnz"; "mov + jump"; "bnz + jump" |]

let kind_of = function
  | Il.Mov _ -> 0
  | Il.Bin ((Il.Lt | Il.Le | Il.Gt | Il.Ge | Il.Eq | Il.Ne), _, _, _) -> 1
  | Il.Bin _ | Il.Un _ -> 2
  | Il.Load _ -> 3
  | Il.Store _ -> 4
  | Il.Lea_frame _ | Il.Lea_global _ | Il.Lea_string _ | Il.Lea_func _ -> 5
  | Il.Jump _ -> 6
  | Il.Bnz _ -> 7
  | Il.Switch _ -> 8
  | Il.Call _ -> 9
  | Il.Call_ext _ -> 10
  | Il.Call_ind _ -> 11
  | Il.Ret _ -> 12
  | Il.Label _ -> invalid_arg "kind_of: label"

(* The fused pair [a] then [b] forms, if any (see Threaded.fuse). *)
let pair_of a b =
  match (a, b) with
  | Il.Bin ((Il.Lt | Il.Le | Il.Gt | Il.Ge | Il.Eq | Il.Ne), _, _, _), Il.Bnz _ ->
    Some 0
  | Il.Mov _, Il.Jump _ -> Some 1
  | Il.Bnz _, Il.Jump _ -> Some 2
  | _ -> None

type mix = { by_kind : int array; by_pair : int array; mutable cts : int }

let mix () =
  { by_kind = Array.make (Array.length kinds) 0;
    by_pair = Array.make (Array.length pairs) 0; cts = 0 }

let total m = Array.fold_left ( + ) 0 m.by_kind

type act = {
  func : Il.func;
  regs : int array;
  fp : int;
  labels : int array;
  mutable pc : int;
  ret_reg : Il.reg option;
}

exception Halt

(* Runs [prog] on [input], adding what it executes to [m]. *)
let run m (prog : Il.program) ~input =
  let st =
    Rt.create_state ~fuel:max_int ~heap_size:(4 lsl 20) ~stack_size:(1 lsl 20)
      prog ~input
  in
  let nfuncs = Array.length prog.Il.funcs in
  let enter ~sp (f : Il.func) args ret_reg =
    let fp = sp - Il.stack_usage f in
    if fp < st.Rt.stack_base then Rt.trap "control stack overflow in %s" f.Il.name;
    let regs = Array.make (max f.Il.nregs 1) 0 in
    List.iteri (fun i v -> regs.(i) <- v) args;
    { func = f; regs; fp; labels = Rt.label_table st f; pc = 0; ret_reg }
  in
  let act = ref (enter ~sp:st.Rt.stack_top prog.Il.funcs.(prog.Il.main) [] None) in
  let stack = ref [] in
  (* The previous IL's activation, its body index, and whether it ran as
     the second IL of a fused pair (so it cannot start another). *)
  let last = ref (!act, -1, false) in
  let step () =
    let a = !act in
    let body = a.func.Il.body in
    let i = a.pc in
    if i >= Array.length body then Rt.trap "fell off the end of %s" a.func.Il.name;
    let instr = body.(i) in
    a.pc <- i + 1;
    if not (Il.instr_is_label instr) then begin
      m.by_kind.(kind_of instr) <- m.by_kind.(kind_of instr) + 1;
      let la, li, consumed = !last in
      let rec falls j = j = i || (j < i && Il.instr_is_label body.(j) && falls (j + 1)) in
      let fused =
        if la == a && li >= 0 && (not consumed) && falls (li + 1) then
          pair_of body.(li) instr
        else None
      in
      Option.iter (fun p -> m.by_pair.(p) <- m.by_pair.(p) + 1) fused;
      last := (a, i, fused <> None);
      let value = function Il.Reg r -> a.regs.(r) | Il.Imm n -> n in
      let call (f : Il.func) args ret =
        stack := a :: !stack;
        act := enter ~sp:a.fp f (List.map value args) ret
      in
      match instr with
      | Il.Label _ -> ()
      | Il.Mov (r, o) -> a.regs.(r) <- value o
      | Il.Un (op, r, x) -> a.regs.(r) <- Rt.eval_unop op (value x)
      | Il.Bin (op, r, x, y) -> a.regs.(r) <- Rt.eval_binop op (value x) (value y)
      | Il.Load (Il.Word, r, p) -> a.regs.(r) <- Rt.load_word st (value p)
      | Il.Load (Il.Byte, r, p) -> a.regs.(r) <- Rt.load_byte st (value p)
      | Il.Store (Il.Word, p, v) -> Rt.store_word st (value p) (value v)
      | Il.Store (Il.Byte, p, v) -> Rt.store_byte st (value p) (value v)
      | Il.Lea_frame (r, off) -> a.regs.(r) <- a.fp + off
      | Il.Lea_global (r, g) -> a.regs.(r) <- st.Rt.global_addr.(g)
      | Il.Lea_string (r, s) -> a.regs.(r) <- st.Rt.string_addr.(s)
      | Il.Lea_func (r, fid) -> a.regs.(r) <- Rt.func_addr fid
      | Il.Jump l ->
        m.cts <- m.cts + 1;
        a.pc <- a.labels.(l)
      | Il.Bnz (o, l) ->
        m.cts <- m.cts + 1;
        if value o <> 0 then a.pc <- a.labels.(l)
      | Il.Switch (o, table, default) ->
        m.cts <- m.cts + 1;
        let cases, targets = Rt.switch_table st ~fid:a.func.Il.fid ~index:i table in
        let k = Rt.switch_find cases (value o) in
        a.pc <- a.labels.(if k >= 0 then targets.(k) else default)
      | Il.Call (_, callee, args, ret) -> call prog.Il.funcs.(callee) args ret
      | Il.Call_ext (_, name, args, ret) -> (
        let v = Rt.call_external st name (List.map value args) in
        match ret with Some r -> a.regs.(r) <- v | None -> ())
      | Il.Call_ind (_, target, args, ret) -> (
        match Rt.fid_of_addr (value target) nfuncs with
        | Some fid -> call prog.Il.funcs.(fid) args ret
        | None -> Rt.trap "indirect call through bad pointer")
      | Il.Ret op -> (
        match !stack with
        | [] -> raise Halt
        | caller :: rest ->
          stack := rest;
          (match (a.ret_reg, op) with
          | Some r, Some v -> caller.regs.(r) <- value v
          | _ -> ());
          act := caller)
    end
  in
  try
    while true do
      step ()
    done
  with Halt | Rt.Program_exit _ -> ()

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  let benches =
    if names = [] then Impact_bench_progs.Suite.all
    else List.map Impact_bench_progs.Suite.find names
  in
  let pre = mix () and post = mix () in
  let ok = ref true in
  let measure m prog (b : B.t) input =
    let before = total m and cts = m.cts in
    run m prog ~input;
    let c = (Machine.run prog ~input).Machine.counters in
    if total m - before <> c.Counters.ils || m.cts - cts <> c.Counters.cts then begin
      Printf.eprintf "ilmix: %s: counted %d ILs, %d transfers; the engine %d, %d\n"
        b.B.name (total m - before) (m.cts - cts) c.Counters.ils c.Counters.cts;
      ok := false
    end
  in
  List.iter
    (fun (b : B.t) ->
      let r = Impact_harness.Pipeline.run b in
      let inlined = r.Impact_harness.Pipeline.inliner.Impact_core.Inliner.program in
      List.iter
        (fun input ->
          measure pre r.Impact_harness.Pipeline.prog b input;
          measure post inlined b input)
        (b.B.inputs ()))
    benches;
  let pct m n = 100. *. float_of_int n /. float_of_int (max 1 (total m)) in
  print_endline "| IL kind | pre-inline | % | post-inline | % |";
  print_endline "|---|---:|---:|---:|---:|";
  Array.iteri
    (fun k name ->
      Printf.printf "| %s | %d | %.1f | %d | %.1f |\n" name pre.by_kind.(k)
        (pct pre pre.by_kind.(k)) post.by_kind.(k) (pct post post.by_kind.(k)))
    kinds;
  Printf.printf "| total | %d | 100.0 | %d | 100.0 |\n\n" (total pre) (total post);
  print_endline "| fused pair (fall-through) | pre-inline | % of ILs | post-inline | % of ILs |";
  print_endline "|---|---:|---:|---:|---:|";
  Array.iteri
    (fun p name ->
      Printf.printf "| %s | %d | %.1f | %d | %.1f |\n" name pre.by_pair.(p)
        (pct pre pre.by_pair.(p)) post.by_pair.(p) (pct post post.by_pair.(p)))
    pairs;
  let sum a = Array.fold_left ( + ) 0 a in
  Printf.printf "| all three | %d | %.1f | %d | %.1f |\n" (sum pre.by_pair)
    (pct pre (sum pre.by_pair)) (sum post.by_pair) (pct post (sum post.by_pair));
  if not !ok then exit 1
