(* One emitter appends the text of an instruction, a function or a whole
   program to a [Buffer].  [dump] is the program checksum behind every
   stage-cache key ({!Impact_profile.Profile_io.program_checksum}), so a
   warm compile pays for it on every request: integers are written digit
   by digit ([string_of_int] goes through C [caml_format_int]) and no
   [Format] or [Printf] call is made per instruction.  The rare forms —
   globals, escaped strings, switch tables, [min_int] — keep [Printf].
   The text must not drift: a changed byte changes every cache key. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let add_operand buf = function
  | Il.Reg r ->
    Buffer.add_char buf 'r';
    add_int buf r
  | Il.Imm n -> add_int buf n

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

(* One line per instruction, in the shape of a format string: [s] adds a
   string, [c] a character, [i] an integer, [o] an operand and [dst r]
   the "  rR := " prefix. *)
let add_instr buf prog instr =
  let s = Buffer.add_string buf and c = Buffer.add_char buf in
  let i = add_int buf and o = add_operand buf in
  let dst r = s "  r"; i r; s " := " in
  (* "  [rD := ]<kw>  <target>(a, b)  ; site N" *)
  let call kw site target args ret =
    (match ret with Some r -> dst r | None -> s "  ");
    s kw; s "  "; target (); c '(';
    List.iteri (fun n a -> if n > 0 then s ", "; o a) args;
    s ")  ; site "; i site
  in
  match instr with
  | Il.Label l -> c 'L'; i l; c ':'
  | Il.Mov (r, a) -> dst r; o a
  | Il.Un (op, r, a) -> dst r; s (string_of_unop op); c ' '; o a
  | Il.Bin (op, r, a, b) -> dst r; s (string_of_binop op); c ' '; o a; s ", "; o b
  | Il.Load (w, r, a) -> dst r; s "load."; s (string_of_width w); s " ["; o a; c ']'
  | Il.Store (w, a, v) -> s "  store."; s (string_of_width w); s " ["; o a; s "] := "; o v
  | Il.Lea_frame (r, off) -> dst r; s "frame+"; i off
  | Il.Lea_global (r, g) -> dst r; c '&'; s prog.Il.globals.(g).Il.g_name
  | Il.Lea_string (r, n) -> dst r; s "&str"; i n
  | Il.Lea_func (r, fid) -> dst r; c '&'; s (func_name prog fid)
  | Il.Call (site, callee, args, ret) ->
    call "call" site (fun () -> s (func_name prog callee)) args ret
  | Il.Call_ext (site, name, args, ret) -> call "ext" site (fun () -> s name) args ret
  | Il.Call_ind (site, target, args, ret) ->
    call "icall" site (fun () -> c '['; o target; c ']') args ret
  | Il.Ret None -> s "  ret"
  | Il.Ret (Some a) -> s "  ret "; o a
  | Il.Jump l -> s "  jump L"; i l
  | Il.Bnz (a, l) -> s "  bnz "; o a; s ", L"; i l
  | Il.Switch (a, table, default) ->
    s "  switch "; o a; s " [";
    Array.iteri
      (fun n (v, l) -> if n > 0 then c ' '; Printf.bprintf buf "%d->L%d" v l)
      table;
    Printf.bprintf buf "] default L%d" default

let add_func buf prog (f : Il.func) =
  let s = Buffer.add_string buf and i = add_int buf in
  s "func "; s f.Il.name; s " (fid "; i f.Il.fid; s ", params "; i f.Il.nparams;
  s ", regs "; i f.Il.nregs; s ", frame "; i f.Il.frame_size; s "):\n";
  Array.iter (fun ins -> add_instr buf prog ins; Buffer.add_char buf '\n') f.Il.body

let add_program buf (prog : Il.program) =
  Array.iter
    (fun (g : Il.global) -> Printf.bprintf buf "global %s: %d bytes\n" g.Il.g_name g.Il.g_size)
    prog.Il.globals;
  Array.iteri (fun i s -> Printf.bprintf buf "str%d: %S\n" i s) prog.Il.strings;
  Array.iter (fun f -> if f.Il.alive then add_func buf prog f) prog.Il.funcs

let render size emit =
  let buf = Buffer.create size in
  emit buf;
  Buffer.contents buf

let string_of_operand op = render 8 (fun buf -> add_operand buf op)

let string_of_instr prog i = render 32 (fun buf -> add_instr buf prog i)

let pp_func fmt prog f =
  Format.pp_print_string fmt (render 1024 (fun buf -> add_func buf prog f));
  Format.pp_print_flush fmt ()

let pp_program fmt prog =
  Format.pp_print_string fmt (render 4096 (fun buf -> add_program buf prog));
  Format.pp_print_flush fmt ()

(* Sized from the instruction count (~24 bytes a line) so a large
   program's text is not copied through repeated doublings. *)
let dump (prog : Il.program) =
  let ils = Array.fold_left (fun n f -> n + Array.length f.Il.body) 0 prog.Il.funcs in
  render ((ils * 24) + 256) (fun buf -> add_program buf prog)
