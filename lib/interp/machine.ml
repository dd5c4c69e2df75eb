(* Public interpreter entry point: engine selection over the shared
   {!Rt} runtime.

   Two engines produce observationally identical runs:

   - {!Threaded} (default): each live function body is pre-decoded once
     per run into an array of closures — see threaded.ml;
   - the reference step interpreter below: a direct small-step loop over
     the IL, kept as the oracle the differential tests pin the decoded
     engine against, and the only engine that can drive the i-cache
     model (it walks real body indices, which is what the code-address
     tables are keyed by). *)

module Il = Impact_il.Il

exception Trap = Rt.Trap

exception Out_of_fuel = Rt.Out_of_fuel

exception Deadline_exceeded = Rt.Deadline_exceeded

exception Program_exit = Rt.Program_exit

type outcome = Rt.outcome = {
  exit_code : int;
  output : string;
  output_digest : string;
  counters : Counters.t;
  max_stack : int;
}

type engine = Threaded | Reference

let engine_of_string = function
  | "threaded" -> Some Threaded
  | "reference" -> Some Reference
  | _ -> None

let engine_to_string = function
  | Threaded -> "threaded"
  | Reference -> "reference"

let external_names = Rt.external_names

(* ------------------------------------------------------------------ *)
(* Reference engine                                                    *)
(* ------------------------------------------------------------------ *)

type activation = {
  func : Il.func;
  regs : int array;
  fp : int;
  labels : int array;
  code : int array;  (* instruction addresses, for the i-cache *)
  mutable pc : int;
  ret_reg : Il.reg option;  (* where the caller wants the result *)
}

let run_reference ?budget ?(fuel = 1_000_000_000) ?(heap_size = 4 * 1024 * 1024)
    ?(stack_size = 1024 * 1024) ?icache ?plan ?(obs = Impact_obs.Obs.null)
    (prog : Il.program) ~input =
  (* [reuse_mem]: the entry point creates exactly one state per call and
     drops it before returning, so the per-domain scratch image is safe
     here — see {!Rt.create_state}. *)
  let st =
    Rt.create_state ?budget ~reuse_mem:true ~fuel ~heap_size ~stack_size prog
      ~input
  in
  let nfuncs = Array.length prog.Il.funcs in
  (* Instrumentation-plan-aware call counting.  Without a plan this is
     exactly the historical full counting; with one, elided sites skip
     the scalar and/or per-site bumps. *)
  let count_site ~ext site =
    let cnt = st.Rt.counters in
    match plan with
    | None ->
      cnt.Counters.calls <- cnt.Counters.calls + 1;
      if ext then cnt.Counters.ext_calls <- cnt.Counters.ext_calls + 1;
      cnt.Counters.site_counts.(site) <- cnt.Counters.site_counts.(site) + 1
    | Some pl ->
      if pl.Iplan.site_scalar.(site) then begin
        cnt.Counters.calls <- cnt.Counters.calls + 1;
        if ext then cnt.Counters.ext_calls <- cnt.Counters.ext_calls + 1
      end;
      if pl.Iplan.site_counted.(site) then
        cnt.Counters.site_counts.(site) <- cnt.Counters.site_counts.(site) + 1
  in
  (* An indirect call that reaches a function whose incoming arc the
     plan elided (only possible through a fabricated integer address)
     breaks flow inference; flag it so the driver re-profiles fully. *)
  let check_ind_target fid =
    match plan with
    | None -> ()
    | Some pl ->
      if not pl.Iplan.ind_ok.(fid) then Atomic.set pl.Iplan.poisoned true
  in
  let enter_activation ~sp (f : Il.func) args ret_reg =
    (* Deadline first: before the stack check and before any counter
       moves, matching {!Threaded.activate} exactly. *)
    Rt.check_deadline st;
    (* One activation consumes the full paper-style stack usage: frame
       slots plus the virtual-register save area plus call overhead.
       Frame slots live at the bottom, [fp, fp + frame_size). *)
    let fp = sp - Il.stack_usage f in
    if fp < st.Rt.stack_base then Rt.trap "control stack overflow in %s" f.Il.name;
    if fp < st.Rt.min_sp then st.Rt.min_sp <- fp;
    let regs = Array.make (max f.Il.nregs 1) 0 in
    List.iteri (fun i v -> regs.(i) <- v) args;
    st.Rt.counters.Counters.func_counts.(f.Il.fid) <-
      st.Rt.counters.Counters.func_counts.(f.Il.fid) + 1;
    {
      func = f;
      regs;
      fp;
      labels = Rt.label_table st f;
      code = Rt.code_table st f;
      pc = 0;
      ret_reg;
    }
  in
  let stack : activation list ref = ref [] in
  let exit_code = ref 0 in
  (try
     let main_f = prog.Il.funcs.(prog.Il.main) in
     let act = ref (enter_activation ~sp:st.Rt.stack_top main_f [] None) in
     let value = function
       | Il.Reg r -> !act.regs.(r)
       | Il.Imm n -> n
     in
     let finished = ref false in
     while not !finished do
       let a = !act in
       if a.pc >= Array.length a.func.Il.body then
         Rt.trap "fell off the end of %s" a.func.Il.name;
       let instr = a.func.Il.body.(a.pc) in
       a.pc <- a.pc + 1;
       (match instr with
       | Il.Label _ -> ()
       | _ ->
         (* Injection point for the chaos suite; a single atomic-flag
            read when nothing is armed.  Only the reference engine pays
            it — [run] routes here whenever faults are enabled. *)
         Impact_support.Fault.hit Impact_support.Fault.Interp_step;
         st.Rt.counters.Counters.ils <- st.Rt.counters.Counters.ils + 1;
         (match icache with
         | Some cache -> Impact_icache.Icache.access cache a.code.(a.pc - 1)
         | None -> ());
         st.Rt.fuel <- st.Rt.fuel - 1;
         if st.Rt.fuel <= 0 then raise Out_of_fuel);
       match instr with
       | Il.Label _ -> ()
       | Il.Mov (r, op) -> a.regs.(r) <- value op
       | Il.Un (op, r, x) -> a.regs.(r) <- Rt.eval_unop op (value x)
       | Il.Bin (op, r, x, y) ->
         a.regs.(r) <- Rt.eval_binop op (value x) (value y)
       | Il.Load (Il.Word, r, addr) -> a.regs.(r) <- Rt.load_word st (value addr)
       | Il.Load (Il.Byte, r, addr) -> a.regs.(r) <- Rt.load_byte st (value addr)
       | Il.Store (Il.Word, addr, v) -> Rt.store_word st (value addr) (value v)
       | Il.Store (Il.Byte, addr, v) -> Rt.store_byte st (value addr) (value v)
       | Il.Lea_frame (r, off) -> a.regs.(r) <- a.fp + off
       | Il.Lea_global (r, g) -> a.regs.(r) <- st.Rt.global_addr.(g)
       | Il.Lea_string (r, s) -> a.regs.(r) <- st.Rt.string_addr.(s)
       | Il.Lea_func (r, fid) -> a.regs.(r) <- Rt.func_addr fid
       | Il.Jump l ->
         st.Rt.counters.Counters.cts <- st.Rt.counters.Counters.cts + 1;
         a.pc <- a.labels.(l)
       | Il.Bnz (op, l) ->
         st.Rt.counters.Counters.cts <- st.Rt.counters.Counters.cts + 1;
         if value op <> 0 then a.pc <- a.labels.(l)
       | Il.Switch (op, table, default) ->
         st.Rt.counters.Counters.cts <- st.Rt.counters.Counters.cts + 1;
         let v = value op in
         let cases, targets =
           Rt.switch_table st ~fid:a.func.Il.fid ~index:(a.pc - 1) table
         in
         let i = Rt.switch_find cases v in
         let target = if i >= 0 then targets.(i) else default in
         a.pc <- a.labels.(target)
       | Il.Call (site, callee, args, ret) ->
         count_site ~ext:false site;
         let f = prog.Il.funcs.(callee) in
         let argv = List.map value args in
         stack := a :: !stack;
         act := enter_activation ~sp:a.fp f argv ret
       | Il.Call_ext (site, name, args, ret) ->
         count_site ~ext:true site;
         let result = Rt.call_external st name (List.map value args) in
         (* An external behaves like a call/return pair. *)
         st.Rt.counters.Counters.returns <- st.Rt.counters.Counters.returns + 1;
         (match ret with
         | Some r -> a.regs.(r) <- result
         | None -> ())
       | Il.Call_ind (site, target, args, ret) ->
         count_site ~ext:false site;
         let tv = value target in
         (match Rt.fid_of_addr tv nfuncs with
         | Some fid when prog.Il.funcs.(fid).Il.alive ->
           check_ind_target fid;
           Counters.record_ind st.Rt.counters ~nfuncs ~site ~fid;
           let f = prog.Il.funcs.(fid) in
           let argv = List.map value args in
           stack := a :: !stack;
           act := enter_activation ~sp:a.fp f argv ret
         | Some fid ->
           Rt.trap "indirect call to dead function %s" prog.Il.funcs.(fid).Il.name
         | None -> Rt.trap "indirect call through bad pointer %d" tv)
       | Il.Ret op ->
         st.Rt.counters.Counters.returns <- st.Rt.counters.Counters.returns + 1;
         (match !stack with
         | [] ->
           exit_code := (match op with Some v -> value v | None -> 0);
           finished := true
         | caller :: rest ->
           stack := rest;
           (* A void return leaves the caller's result register
              untouched — the register file is written only when the
              callee actually returns a value, so the inlined and
              un-inlined forms of a call agree instruction for
              instruction. *)
           (match (a.ret_reg, op) with
           | Some r, Some v -> caller.regs.(r) <- value v
           | Some _, None | None, _ -> ());
           act := caller)
     done
   with Program_exit code -> exit_code := code);
  Rt.finish st ~obs ~exit_code:!exit_code

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run ?budget ?fuel ?heap_size ?stack_size ?icache ?obs ?(engine = Threaded)
    ?cache ?plan (prog : Il.program) ~input =
  match (engine, icache) with
  | Threaded, None
    when Threaded.supported prog && not (Impact_support.Fault.enabled ()) ->
    Threaded.run ?budget ?fuel ?heap_size ?stack_size ?obs ?cache ?plan prog
      ~input
  | _ ->
    (* The i-cache model needs real instruction addresses, so it always
       drives the reference engine; so do the rare programs the decoder
       rejects (immediates beyond 62 bits, out-of-range static refs).
       Armed fault injection also routes here: the reference engine
       carries the per-instruction [Interp_step] point, so the threaded
       hot path stays hook-free and pays nothing when chaos is off.
       Both routes honor the instrumentation [plan], so a chaos run
       under minimum-coverage profiling still degrades correctly. *)
    run_reference ?budget ?fuel ?heap_size ?stack_size ?icache ?plan ?obs prog
      ~input
