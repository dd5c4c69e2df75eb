module Il = Impact_il.Il

let no_copy = -1

let propagate_func (f : Il.func) =
  let n = max f.Il.nregs 1 in
  (* copies.(dst) = src when "dst is a copy of src" holds here, else
     [no_copy].  holders.(src) lists every dst recorded as a copy of src
     since src was last killed; an entry goes stale when its dst is
     killed or re-copied, so kill re-checks copies.(dst) before
     clearing it.  touched lists every register whose copies or holders
     slot was set since the last label, so a label resets only those. *)
  let copies = Array.make n no_copy in
  let holders = Array.make n [] in
  let touched = ref [] in
  let rewrites = ref 0 in
  let reset () =
    List.iter
      (fun r ->
        copies.(r) <- no_copy;
        holders.(r) <- [])
      !touched;
    touched := []
  in
  (* Invalidate everything involving register [r]. *)
  let kill r =
    copies.(r) <- no_copy;
    List.iter (fun d -> if copies.(d) = r then copies.(d) <- no_copy) holders.(r);
    holders.(r) <- []
  in
  let record dst src =
    copies.(dst) <- src;
    holders.(src) <- dst :: holders.(src);
    touched := dst :: src :: !touched
  in
  let subst op =
    match op with
    | Il.Reg r ->
      let src = copies.(r) in
      if src = no_copy then op
      else (
        incr rewrites;
        Il.Reg src)
    | Il.Imm _ -> op
  in
  let subst_args args =
    let args' = List.map subst args in
    if List.for_all2 ( == ) args args' then args else args'
  in
  (* An instruction whose operands all survive is kept as it is, so a
     pass over code with nothing to rewrite allocates no instructions. *)
  let body =
    Array.map
      (fun instr ->
        match instr with
        | Il.Label _ ->
          reset ();
          instr
        | Il.Mov (r, op) -> (
          let op' = subst op in
          kill r;
          (match op' with
          | Il.Reg src when src <> r -> record r src
          | Il.Reg _ | Il.Imm _ -> ());
          if op' == op then instr else Il.Mov (r, op'))
        | Il.Un (o, r, a) ->
          let a' = subst a in
          kill r;
          if a' == a then instr else Il.Un (o, r, a')
        | Il.Bin (o, r, a, b) ->
          let a' = subst a in
          let b' = subst b in
          kill r;
          if a' == a && b' == b then instr else Il.Bin (o, r, a', b')
        | Il.Load (w, r, addr) ->
          let addr' = subst addr in
          kill r;
          if addr' == addr then instr else Il.Load (w, r, addr')
        | Il.Store (w, addr, v) ->
          let addr' = subst addr in
          let v' = subst v in
          if addr' == addr && v' == v then instr else Il.Store (w, addr', v')
        | Il.Lea_frame (r, _) | Il.Lea_global (r, _) | Il.Lea_string (r, _)
        | Il.Lea_func (r, _) ->
          kill r;
          instr
        | Il.Call (site, callee, args, ret) ->
          let args' = subst_args args in
          Option.iter kill ret;
          if args' == args then instr else Il.Call (site, callee, args', ret)
        | Il.Call_ext (site, name, args, ret) ->
          let args' = subst_args args in
          Option.iter kill ret;
          if args' == args then instr else Il.Call_ext (site, name, args', ret)
        | Il.Call_ind (site, target, args, ret) ->
          let target' = subst target in
          let args' = subst_args args in
          Option.iter kill ret;
          if target' == target && args' == args then instr
          else Il.Call_ind (site, target', args', ret)
        | Il.Ret (Some v) ->
          let v' = subst v in
          if v' == v then instr else Il.Ret (Some v')
        | Il.Ret None | Il.Jump _ -> instr
        | Il.Bnz (op, l) ->
          let op' = subst op in
          if op' == op then instr else Il.Bnz (op', l)
        | Il.Switch (op, table, default) ->
          let op' = subst op in
          if op' == op then instr else Il.Switch (op', table, default))
      f.Il.body
  in
  f.Il.body <- body;
  !rewrites

let propagate (prog : Il.program) =
  Array.fold_left
    (fun acc (f : Il.func) -> if f.Il.alive then acc + propagate_func f else acc)
    0 prog.Il.funcs
