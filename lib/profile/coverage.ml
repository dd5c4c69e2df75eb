(* Minimum-coverage instrumentation planning.

   The classic Knuth observation, specialised to this system's call/arc
   flow graph: nodes are functions plus a virtual entry arc into main,
   arcs are call sites, and Kirchhoff conservation holds at every node's
   inflow — a function's activation count (which the engines always
   measure, at activation entry) equals the sum of its incoming arc
   counts plus [nruns] for main.  Each function's inflow equation
   mentions each of its incoming arcs exactly once, so leaving at most
   one incoming arc per function uncounted yields a diagonal system:
   every elided count is recovered independently, with no propagation,
   whatever the recursion structure.  The elided arcs form an in-forest
   (a branching) of the call graph — the spanning structure — and the
   instrumented co-forest is what the engines count.

   Arc choice is seeded by a static loop-nesting estimate (a backward-
   branch interval sweep over each caller's body), so the hottest arc
   into each function is the one that goes uninstrumented.

   External calls are one shared node: the run-level [ext_calls] scalar
   conserves the total over every external site, so at most one external
   site globally may be elided (its per-site store only — the scalars
   stay exact) and recovered as the scalar minus the measured rest.

   Indirect calls keep every function's inflow attributable: a site
   through a pointer cannot be credited to a callee afterwards, so
   functions that can be indirect targets — any function whose address
   is materialised ([Lea_func] in alive code, [Gfunc] initialisers, the
   front end's address-taken list) — are ineligible for in-arc elision
   whenever the program contains an indirect site.  A target outside
   that set is only reachable by fabricating a function address from an
   integer; the engines flag such a hit on the plan ([Iplan.poisoned])
   and the profiling driver re-runs fully instrumented, so exactness
   survives even hostile programs. *)

module Il = Impact_il.Il
module Iplan = Impact_interp.Iplan

type mode =
  | Full
  | Min

let mode_name = function Full -> "full" | Min -> "min"

let mode_of_string = function
  | "full" -> Some Full
  | "min" -> Some Min
  | _ -> None

let all_modes = [ Full; Min ]

type direct_elision = {
  e_site : int;
  e_callee : int;
  e_callee_is_main : bool;
  e_siblings : int list;
      (* the callee's other (measured) direct in-sites, in alive code *)
}

type ext_elision = {
  x_site : int;
  x_others : int list;  (* every other external site in alive code *)
}

type t = {
  mode : mode;
  iplan : Iplan.t option;  (* None: count everything (the full plan) *)
  directs : direct_elision list;
  ext : ext_elision option;
  total_sites : int;  (* call sites in alive code *)
  counted_sites : int;  (* sites whose per-site store the plan keeps *)
}

(* Observability hook for the pool tests: plans must be built once per
   profiled program and shared read-only across domains, never once per
   run.  Atomic because profiling drivers may run on worker domains. *)
let plans_built = Atomic.make 0

let plans_built_count () = Atomic.get plans_built

(* Static loop-nesting depth per body index: every backward branch
   (Jump/Bnz/Switch to a label defined at or before the branch) opens an
   interval [target, branch]; an instruction's depth is the number of
   intervals covering it, accumulated with a difference array. *)
let loop_depths (f : Il.func) =
  let body = f.Il.body in
  let n = Array.length body in
  (* Labels are dense ints under [nlabels], so a position array beats a
     hash table, and a single forward pass suffices: a branch target
     already recorded lies at or before the branch, which is exactly
     the backward test.  Plan construction is on the profiling driver's
     per-program path — its cost is a pure min-mode handicap in the
     wall-clock comparison against full instrumentation. *)
  let nl = f.Il.nlabels in
  let label_at = Array.make (max nl 1) (-1) in
  let delta = Array.make (n + 1) 0 in
  Array.iteri
    (fun i instr ->
      let back l =
        if l >= 0 && l < nl then begin
          let j = label_at.(l) in
          if j >= 0 then begin
            delta.(j) <- delta.(j) + 1;
            delta.(i + 1) <- delta.(i + 1) - 1
          end
        end
      in
      match instr with
      | Il.Label l -> if l >= 0 && l < nl then label_at.(l) <- i
      | Il.Jump l -> back l
      | Il.Bnz (_, l) -> back l
      | Il.Switch (_, table, default) ->
        back default;
        Array.iter (fun (_, l) -> back l) table
      | _ -> ())
    body;
  let depth = Array.make n 0 in
  let d = ref 0 in
  for i = 0 to n - 1 do
    d := !d + delta.(i);
    depth.(i) <- !d
  done;
  depth

(* Static arc weight: 10^depth, capped so deep artificial nests cannot
   overflow.  Only the argmax matters, so the estimate being crude is
   fine — it just decides which arc goes uninstrumented. *)
let weight_of_depth d =
  let d = min d 8 in
  let rec pow acc i = if i = 0 then acc else pow (acc * 10) (i - 1) in
  pow 1 d

(* Functions whose addresses exist as runtime values: [Lea_func] in
   alive bodies, [Gfunc] global initialisers, and the front end's
   address-taken list.  Any of these may be an indirect-call target. *)
let materialized (prog : Il.program) =
  let m = Array.make (max (Array.length prog.Il.funcs) 1) false in
  let mark fid = if fid >= 0 && fid < Array.length m then m.(fid) <- true in
  Array.iter
    (fun (f : Il.func) ->
      if f.Il.alive then
        Array.iter
          (function Il.Lea_func (_, fid) -> mark fid | _ -> ())
          f.Il.body)
    prog.Il.funcs;
  Array.iter
    (fun (g : Il.global) ->
      List.iter (function _, Il.Gfunc fid -> mark fid | _ -> ()) g.Il.g_init)
    prog.Il.globals;
  List.iter mark prog.Il.address_taken;
  m

let full_plan mode ~total_sites =
  {
    mode;
    iplan = None;
    directs = [];
    ext = None;
    total_sites;
    counted_sites = total_sites;
  }

let count_alive_sites (prog : Il.program) =
  let n = ref 0 in
  Array.iter
    (fun (f : Il.func) ->
      if f.Il.alive then Il.iter_sites (fun _ -> incr n) f)
    prog.Il.funcs;
  !n

let build (prog : Il.program) mode =
  Atomic.incr plans_built;
  let nfuncs = Array.length prog.Il.funcs in
  let nsites = prog.Il.next_site in
  match mode with
  | Full -> full_plan Full ~total_sites:(count_alive_sites prog)
  | Min ->
    (* Collect the weighted arcs of alive code: direct in-sites grouped
       per callee, and the external sites as one pool.  The site total
       rides along on the same sweep. *)
    let direct_in : (int * int) list array = Array.make (max nfuncs 1) [] in
    let ext_sites = ref [] in
    let has_ind = ref false in
    let total = ref 0 in
    Array.iter
      (fun (f : Il.func) ->
        if f.Il.alive then begin
          let depth = loop_depths f in
          Il.iter_sites
            (fun s ->
              incr total;
              let w = weight_of_depth depth.(s.Il.s_index) in
              match s.Il.s_kind with
              | Il.To_user callee ->
                if callee >= 0 && callee < nfuncs then
                  direct_in.(callee) <-
                    (s.Il.s_id, w) :: direct_in.(callee)
              | Il.To_extern _ -> ext_sites := (s.Il.s_id, w) :: !ext_sites
              | Il.Through_pointer -> has_ind := true)
            f
        end)
      prog.Il.funcs;
    let total_sites = !total in
    (* The materialised-address set only gates eligibility when an
       indirect site exists; without one, skip that whole body pass. *)
    let mat = if !has_ind then materialized prog else [||] in
    (* The max-weight in-arc of each eligible callee is elided; ties
       break to the lowest site id for determinism. *)
    let argmax sites =
      List.fold_left
        (fun best (s, w) ->
          match best with
          | None -> Some (s, w)
          | Some (bs, bw) ->
            if w > bw || (w = bw && s < bs) then Some (s, w) else best)
        None sites
    in
    let directs = ref [] in
    Array.iteri
      (fun callee in_sites ->
        let f = prog.Il.funcs.(callee) in
        let eligible = f.Il.alive && ((not !has_ind) || not mat.(callee)) in
        if eligible && in_sites <> [] then
          match argmax in_sites with
          | Some (site, _) ->
            let siblings =
              List.filter_map
                (fun (s, _) -> if s <> site then Some s else None)
                in_sites
            in
            directs :=
              {
                e_site = site;
                e_callee = callee;
                e_callee_is_main = callee = prog.Il.main;
                e_siblings = siblings;
              }
              :: !directs
          | None -> ())
      direct_in;
    let ext =
      match argmax !ext_sites with
      | Some (site, _) ->
        Some
          {
            x_site = site;
            x_others =
              List.filter_map
                (fun (s, _) -> if s <> site then Some s else None)
                !ext_sites;
          }
      | None -> None
    in
    let directs = !directs in
    if directs = [] && ext = None then
      (* Nothing elidable — behave exactly like the full plan, so the
         engines keep their plan-less fast path. *)
      full_plan Min ~total_sites
    else begin
      let iplan = Iplan.create ~nsites ~nfuncs in
      List.iter
        (fun e ->
          iplan.Iplan.site_counted.(e.e_site) <- false;
          iplan.Iplan.site_scalar.(e.e_site) <- false;
          (* An indirect hit on a callee with an elided in-arc would
             make its inflow unattributable. *)
          iplan.Iplan.ind_ok.(e.e_callee) <- false)
        directs;
      (match ext with
      | Some x ->
        (* External elision keeps the scalars: the ext_calls total is
           the conservation law the inference solves against. *)
        iplan.Iplan.site_counted.(x.x_site) <- false
      | None -> ());
      let elided = List.length directs + match ext with Some _ -> 1 | None -> 0 in
      {
        mode = Min;
        iplan = Some iplan;
        directs;
        ext;
        total_sites;
        counted_sites = total_sites - elided;
      }
    end

let instrumented_fraction t =
  if t.total_sites = 0 then 1.
  else float_of_int t.counted_sites /. float_of_int t.total_sites

let poisoned t = match t.iplan with Some ip -> Iplan.poisoned ip | None -> false
