(* Reference copy propagation: the direct O(instructions x registers)
   formulation that [Impact_opt.Copy_prop] replaces with an indexed one.
   Every kill scans the whole copy table, and every label clears it.
   Tests compare the library pass against it operand for operand. *)

module Il = Impact_il.Il

let propagate_func (f : Il.func) =
  (* copies.(dst) = Some src when "dst is a copy of src" holds here. *)
  let copies : Il.reg option array = Array.make (max f.Il.nregs 1) None in
  let rewrites = ref 0 in
  let reset () = Array.fill copies 0 (Array.length copies) None in
  (* Invalidate everything involving register [r]. *)
  let kill r =
    copies.(r) <- None;
    Array.iteri (fun i src -> if src = Some r then copies.(i) <- None) copies
  in
  let subst op =
    match op with
    | Il.Reg r -> (
      match copies.(r) with
      | Some src ->
        incr rewrites;
        Il.Reg src
      | None -> op)
    | Il.Imm _ -> op
  in
  let body =
    Array.map
      (fun instr ->
        match instr with
        | Il.Label _ ->
          reset ();
          instr
        | Il.Mov (r, op) -> (
          let op = subst op in
          kill r;
          (match op with
          | Il.Reg src when src <> r -> copies.(r) <- Some src
          | Il.Reg _ | Il.Imm _ -> ());
          Il.Mov (r, op))
        | Il.Un (o, r, a) ->
          let a = subst a in
          kill r;
          Il.Un (o, r, a)
        | Il.Bin (o, r, a, b) ->
          let a = subst a in
          let b = subst b in
          kill r;
          Il.Bin (o, r, a, b)
        | Il.Load (w, r, addr) ->
          let addr = subst addr in
          kill r;
          Il.Load (w, r, addr)
        | Il.Store (w, addr, v) -> Il.Store (w, subst addr, subst v)
        | Il.Lea_frame (r, off) ->
          kill r;
          Il.Lea_frame (r, off)
        | Il.Lea_global (r, g) ->
          kill r;
          Il.Lea_global (r, g)
        | Il.Lea_string (r, s) ->
          kill r;
          Il.Lea_string (r, s)
        | Il.Lea_func (r, fid) ->
          kill r;
          Il.Lea_func (r, fid)
        | Il.Call (site, callee, args, ret) ->
          let args = List.map subst args in
          Option.iter kill ret;
          Il.Call (site, callee, args, ret)
        | Il.Call_ext (site, name, args, ret) ->
          let args = List.map subst args in
          Option.iter kill ret;
          Il.Call_ext (site, name, args, ret)
        | Il.Call_ind (site, target, args, ret) ->
          let target = subst target in
          let args = List.map subst args in
          Option.iter kill ret;
          Il.Call_ind (site, target, args, ret)
        | Il.Ret v -> Il.Ret (Option.map subst v)
        | Il.Jump _ -> instr
        | Il.Bnz (op, l) -> Il.Bnz (subst op, l)
        | Il.Switch (op, table, default) -> Il.Switch (subst op, table, default))
      f.Il.body
  in
  f.Il.body <- body;
  !rewrites

let propagate (prog : Il.program) =
  Array.fold_left
    (fun acc (f : Il.func) -> if f.Il.alive then acc + propagate_func f else acc)
    0 prog.Il.funcs

(* [Impact_opt.Driver.post_inline_cleanup] with this oracle in place of
   the library's copy propagation: same passes, order and round bound. *)
let post_inline_cleanup prog =
  let passes =
    [
      propagate;
      Impact_opt.Const_fold.fold;
      Impact_opt.Dce.eliminate;
      Impact_opt.Jump_opt.optimize;
    ]
  in
  let rec go round total =
    if round >= 6 then total
    else
      let n = List.fold_left (fun acc pass -> acc + pass prog) 0 passes in
      if n = 0 then total else go (round + 1) (total + n)
  in
  go 0 0

(* [agrees prog] runs the library pass and the oracle on two copies of
   [prog], then the library cleanup and the oracle-driven fixpoint on
   two more, and reports the first disagreement in rewrite count or
   printed IL. *)
let agrees (prog : Il.program) =
  let check what pass oracle () =
    let a = Il.copy_program prog and b = Il.copy_program prog in
    let na = pass a and nb = oracle b in
    if na <> nb then Error (Printf.sprintf "%s: %d vs %d rewrites" what na nb)
    else if Impact_il.Il_pp.dump a <> Impact_il.Il_pp.dump b then
      Error (what ^ ": IL differs")
    else Ok ()
  in
  Result.bind
    (check "copy_prop" Impact_opt.Copy_prop.propagate propagate ())
    (check "post_inline_cleanup" Impact_opt.Driver.post_inline_cleanup
       post_inline_cleanup)
