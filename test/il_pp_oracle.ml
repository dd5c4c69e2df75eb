(* Reference IL printer: the Format/Printf formulation that
   [Impact_il.Il_pp] replaces with a single-buffer emitter.  One
   [Printf.sprintf] per instruction, one [Format] flush per line.  Tests
   compare [Il_pp.dump] against [dump] byte for byte, since the dump is
   the program checksum behind every stage-cache key. *)

module Il = Impact_il.Il

let string_of_operand = function
  | Il.Reg r -> Printf.sprintf "r%d" r
  | Il.Imm n -> string_of_int n

let string_of_binop = function
  | Il.Add -> "add"
  | Il.Sub -> "sub"
  | Il.Mul -> "mul"
  | Il.Div -> "div"
  | Il.Mod -> "mod"
  | Il.Shl -> "shl"
  | Il.Shr -> "shr"
  | Il.And -> "and"
  | Il.Or -> "or"
  | Il.Xor -> "xor"
  | Il.Lt -> "lt"
  | Il.Le -> "le"
  | Il.Gt -> "gt"
  | Il.Ge -> "ge"
  | Il.Eq -> "eq"
  | Il.Ne -> "ne"

let string_of_unop = function
  | Il.Neg -> "neg"
  | Il.Not -> "not"
  | Il.Lnot -> "lnot"

let string_of_width = function
  | Il.Byte -> "b"
  | Il.Word -> "w"

let func_name (prog : Il.program) fid = prog.Il.funcs.(fid).Il.name

let call_str prefix site target args ret =
  let args = String.concat ", " (List.map string_of_operand args) in
  let dst = match ret with Some r -> Printf.sprintf "r%d := " r | None -> "" in
  Printf.sprintf "%s%s %s(%s)  ; site %d" dst prefix target args site

let string_of_instr prog = function
  | Il.Label l -> Printf.sprintf "L%d:" l
  | Il.Mov (r, op) -> Printf.sprintf "  r%d := %s" r (string_of_operand op)
  | Il.Un (op, r, a) ->
    Printf.sprintf "  r%d := %s %s" r (string_of_unop op) (string_of_operand a)
  | Il.Bin (op, r, a, b) ->
    Printf.sprintf "  r%d := %s %s, %s" r (string_of_binop op) (string_of_operand a)
      (string_of_operand b)
  | Il.Load (w, r, addr) ->
    Printf.sprintf "  r%d := load.%s [%s]" r (string_of_width w) (string_of_operand addr)
  | Il.Store (w, addr, v) ->
    Printf.sprintf "  store.%s [%s] := %s" (string_of_width w) (string_of_operand addr)
      (string_of_operand v)
  | Il.Lea_frame (r, off) -> Printf.sprintf "  r%d := frame+%d" r off
  | Il.Lea_global (r, g) ->
    Printf.sprintf "  r%d := &%s" r prog.Il.globals.(g).Il.g_name
  | Il.Lea_string (r, s) -> Printf.sprintf "  r%d := &str%d" r s
  | Il.Lea_func (r, fid) -> Printf.sprintf "  r%d := &%s" r (func_name prog fid)
  | Il.Call (site, callee, args, ret) ->
    "  " ^ call_str "call " site (func_name prog callee) args ret
  | Il.Call_ext (site, name, args, ret) -> "  " ^ call_str "ext " site name args ret
  | Il.Call_ind (site, target, args, ret) ->
    "  " ^ call_str "icall " site ("[" ^ string_of_operand target ^ "]") args ret
  | Il.Ret None -> "  ret"
  | Il.Ret (Some op) -> Printf.sprintf "  ret %s" (string_of_operand op)
  | Il.Jump l -> Printf.sprintf "  jump L%d" l
  | Il.Bnz (op, l) -> Printf.sprintf "  bnz %s, L%d" (string_of_operand op) l
  | Il.Switch (op, table, default) ->
    let cases =
      Array.to_list table
      |> List.map (fun (v, l) -> Printf.sprintf "%d->L%d" v l)
      |> String.concat " "
    in
    Printf.sprintf "  switch %s [%s] default L%d" (string_of_operand op) cases default

let pp_func fmt prog (f : Il.func) =
  Format.fprintf fmt "func %s (fid %d, params %d, regs %d, frame %d):@."
    f.Il.name f.Il.fid f.Il.nparams f.Il.nregs f.Il.frame_size;
  Array.iter (fun i -> Format.fprintf fmt "%s@." (string_of_instr prog i)) f.Il.body

let pp_program fmt (prog : Il.program) =
  Array.iter
    (fun (g : Il.global) ->
      Format.fprintf fmt "global %s: %d bytes@." g.Il.g_name g.Il.g_size)
    prog.Il.globals;
  Array.iteri
    (fun i s -> Format.fprintf fmt "str%d: %S@." i s)
    prog.Il.strings;
  Array.iter
    (fun f -> if f.Il.alive then pp_func fmt prog f)
    prog.Il.funcs

let dump prog = Format.asprintf "%a" (fun fmt -> pp_program fmt) prog
