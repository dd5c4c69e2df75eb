module Il = Impact_il.Il

let used_regs (f : Il.func) =
  let used = Array.make (max f.Il.nregs 1) false in
  let mark = function
    | Il.Reg r -> used.(r) <- true
    | Il.Imm _ -> ()
  in
  Array.iter
    (fun instr ->
      match instr with
      | Il.Label _ -> ()
      | Il.Mov (_, op) | Il.Un (_, _, op) | Il.Load (_, _, op) -> mark op
      | Il.Bin (_, _, a, b) ->
        mark a;
        mark b
      | Il.Store (_, addr, v) ->
        mark addr;
        mark v
      | Il.Lea_frame _ | Il.Lea_global _ | Il.Lea_string _ | Il.Lea_func _ -> ()
      | Il.Call (_, _, args, _) | Il.Call_ext (_, _, args, _) -> List.iter mark args
      | Il.Call_ind (_, target, args, _) ->
        mark target;
        List.iter mark args
      | Il.Ret (Some op) -> mark op
      | Il.Ret None | Il.Jump _ -> ()
      | Il.Bnz (op, _) -> mark op
      | Il.Switch (op, _, _) -> mark op)
    f.Il.body;
  used

let eliminate_func (f : Il.func) =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let used = used_regs f in
    (* A write is kept only if some instruction reads its register.
       That holds for parameters too: callers fill them before entry,
       and a later write to one is dead unless something reads it.  No
       register is live by convention alone, because values leave a
       function only through the operand of its [ret] instruction,
       which [used_regs] counts as a read. *)
    let keep instr =
      match instr with
      | Il.Mov (r, _) | Il.Un (_, r, _) | Il.Bin (_, r, _, _) | Il.Load (_, r, _)
      | Il.Lea_frame (r, _) | Il.Lea_global (r, _) | Il.Lea_string (r, _)
      | Il.Lea_func (r, _) ->
        used.(r)
      | Il.Label _ | Il.Store _ | Il.Call _ | Il.Call_ext _ | Il.Call_ind _
      | Il.Ret _ | Il.Jump _ | Il.Bnz _ | Il.Switch _ ->
        true
    in
    let before = Array.length f.Il.body in
    let body = Array.of_list (List.filter keep (Array.to_list f.Il.body)) in
    if Array.length body <> before then begin
      removed := !removed + (before - Array.length body);
      f.Il.body <- body;
      changed := true
    end
  done;
  !removed

let eliminate (prog : Il.program) =
  Array.fold_left
    (fun acc (f : Il.func) -> if f.Il.alive then acc + eliminate_func f else acc)
    0 prog.Il.funcs
