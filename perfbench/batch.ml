(* The [suite] and [compile] workloads: passes over a fixed set of
   cases, each case one whole pipeline run.

   Pass 0 visits every case once, untimed: it checks each case's
   outputs and fixes the case's counts (Table 4 and the per-layer
   counts).  Then timed passes, each over the cases in a seeded order,
   run until the run time is up; the pass in progress completes, so the
   mix of cases is the same whole passes on every run.  A later visit
   whose counts differ from pass 0's is a failed determinism check. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Profile = Impact_profile.Profile
module Pipeline = Impact_harness.Pipeline
module Cache = Impact_harness.Cache
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Pool = Impact_support.Pool
module Rng = Impact_support.Rng

type case = {
  name : string;
  source : string;
  inputs : string list;
  expected : (string * int option) option list;
      (** per input: the oracle's output and, where known, exit code *)
}

type opts = {
  config : Config.t;
  post_cleanup : bool;
  jobs : int option;
  tail_cap : float;  (** design percentile of [op_ms_tail] *)
}

(* The inlined program reproduces every oracle output. *)
let oracle_ok case (prog : Il.program) =
  List.for_all2
    (fun input expected ->
      match expected with
      | None -> true
      | Some (out, code) ->
        let o = Machine.run prog ~input in
        String.equal o.Machine.output out
        && Option.fold ~none:true ~some:(( = ) o.Machine.exit_code) code)
    case.inputs case.expected

let order ~seed ~pass n =
  let a = Array.init n Fun.id in
  if pass > 0 then Rng.shuffle (Rng.create ((seed * 7919) + pass)) a;
  a

(* Pass 0, then timed passes until [seconds] are up.  [visit ~pass i]
   handles one visit of case [i]. *)
let drive ~seed ~seconds n visit =
  Array.iter (visit ~pass:0) (order ~seed ~pass:0 n);
  let t0 = Measure.now () in
  let passes =
    Measure.rounds ~t0 ~seconds (fun p ->
        Array.iter (visit ~pass:(p + 1)) (order ~seed ~pass:(p + 1) n))
  in
  (passes, Measure.now () -. t0)

(* What must repeat exactly on every visit of a case. *)
let fingerprint (r : Pipeline.result) =
  ( Pipeline.call_decrease r,
    Pipeline.code_increase r,
    r.Pipeline.post_profile.Profile.avg_ils,
    Il.program_code_size r.Pipeline.inliner.Inliner.program )

let clean (r : Pipeline.result) = r.Pipeline.outputs_match && r.Pipeline.degradations = []

let pipeline opts c =
  Pipeline.run_source ?jobs:opts.jobs ~config:opts.config
    ~post_cleanup:opts.post_cleanup ~name:c.name ~source:c.source
    ~inputs:c.inputs ()

let run_untraced ~setup ~opts ~seed ~seconds =
  let calib = Measure.Calib.create () in
  let setup_s, cases = Outcome.repeat_setup calib 5 setup in
  let n = Array.length cases in
  let first = Array.make n None in
  let attempted = ref 0 and failed = ref 0 and ops = ref [] in
  let visit ~pass i =
    incr attempted;
    let c = cases.(i) in
    match Measure.time (fun () -> pipeline opts c) with
    | exception _ -> incr failed
    | r, ms ->
      let ok =
        clean r
        &&
        if pass = 0 then begin
          first.(i) <- Some r;
          oracle_ok c r.Pipeline.inliner.Inliner.program
        end
        else begin
          ops := ms :: !ops;
          Measure.Calib.sample calib;
          match first.(i) with
          | Some r0 -> fingerprint r0 = fingerprint r
          | None -> false
        end
      in
      if not ok then incr failed
  in
  let passes, elapsed_s = drive ~seed ~seconds n visit in
  let timing, info =
    Outcome.timing ~calib ~setup_s ~ops_ms:!ops ~elapsed_s ~tail_cap:opts.tail_cap
      ~attempted:!attempted ~failed:!failed
  in
  {
    Outcome.attempted = !attempted;
    failed = !failed;
    metrics =
      timing @ Outcome.table4 (List.filter_map Fun.id (Array.to_list first));
    info = ("passes", Impact_obs.Sink.Int passes) :: info;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-case counts, fixed by pass 0 and re-checked on every visit. *)
type counts = {
  lowered : int;
  pre_rewrites : int;
  devirt_sites : int;
  cleanup_rewrites : int;
  arcs : int;
  expanded : int;
  size_after : int;
  runs : int;
  counted_sites : int;
  dyn_ils : float;
}

let counts_of (s : Staged.t) =
  let r = s.Staged.result in
  let inl = r.Pipeline.inliner in
  let total (p : Profile.t) = p.Profile.avg_ils *. float_of_int r.Pipeline.nruns in
  {
    lowered = s.Staged.lowered_size;
    pre_rewrites = s.Staged.pre_rewrites;
    devirt_sites = List.length inl.Inliner.devirt;
    cleanup_rewrites = s.Staged.cleanup_rewrites;
    arcs = Impact_callgraph.Callgraph.arc_count inl.Inliner.graph;
    expanded = List.length inl.Inliner.expansion.Impact_core.Expand.expansions;
    size_after = inl.Inliner.size_after;
    runs = s.Staged.runs;
    counted_sites = s.Staged.counted_sites;
    dyn_ils = Float.round (total r.Pipeline.profile +. total r.Pipeline.post_profile);
  }

(* Pool samples of one operation, summed: queue ms and run ms. *)
type pool_acc = { mutable q : float; mutable r : float }

(* The stage cache on one pipeline result's artefacts: the pre-inline
   program, the profile and the inliner report, each stored and read
   back under a fresh key.  True when every read returns what was
   stored. *)
let cache_probe trace cache k (r : Pipeline.result) =
  let span name f = Trace.span trace name f in
  let key stage = Cache.key [ "perfbench"; stage; string_of_int k ] in
  let put stage v =
    span "cache.put" (fun () ->
        Cache.put cache Impact_obs.Obs.null ~stage ~key:(key stage) v)
  in
  put "front" r.Pipeline.prog;
  put "profile" r.Pipeline.profile;
  put "inline" r.Pipeline.inliner;
  let find stage =
    span "cache.find" (fun () ->
        Cache.find cache Impact_obs.Obs.null ~stage ~key:(key stage))
  in
  let same_size a b = Il.program_code_size a = Il.program_code_size b in
  (match (find "front" : Il.program option) with
  | Some p -> same_size p r.Pipeline.prog
  | None -> false)
  && (match (find "profile" : Profile.t option) with
     | Some p -> p = r.Pipeline.profile
     | None -> false)
  &&
  match (find "inline" : Inliner.report option) with
  | Some rep -> same_size rep.Inliner.program r.Pipeline.inliner.Inliner.program
  | None -> false

(* The measurements taken beside an operation, under a "probe" root:
   the IL checker on the lowered and on the inlined program, per-run
   interpreter cost on the case's first input, and the stage cache on
   the operation's artefacts.  Returns whether every check held, and
   the warm run's ns per executed IL. *)
let probe trace cache k case (s : Staged.t) =
  let span name f = Trace.span trace name f in
  let r = s.Staged.result in
  let inlined = r.Pipeline.inliner.Inliner.program in
  let lowered = Impact_il.Lower.lower_source case.source in
  let checked p = span "il.check" (fun () -> Impact_il.Il_check.check p) = Ok () in
  let il_ok = checked lowered && checked inlined in
  let input = List.hd case.inputs in
  let prog = r.Pipeline.prog in
  ignore
    (span "interp.setup" (fun () ->
         Impact_interp.Rt.create_state ~reuse_mem:true ~fuel:1_000_000_000
           ~heap_size:(4 lsl 20) ~stack_size:(1 lsl 20) prog ~input));
  let dcache = Impact_interp.Threaded.cache () in
  let run () = Machine.run ~engine:Machine.Threaded ~cache:dcache prog ~input in
  ignore (span "interp.first_run" run);
  let o, warm_ms = Measure.time (fun () -> span "interp.warm_run" run) in
  let ns_per_il = warm_ms *. 1e6 /. float_of_int (max 1 o.Machine.counters.ils) in
  let cache_ok = cache_probe trace cache k r in
  (il_ok && cache_ok, ns_per_il)

let run_traced ~setup ~opts ~seed ~seconds ~scratch =
  let cases = setup () in
  let n = Array.length cases in
  let trace = Trace.create () in
  let cache = Cache.create ~max_bytes:(64 lsl 20) (Filename.concat scratch "cache-probe") in
  let first = Array.make n None and tokens = Array.make n 0 in
  let attempted = ref 0 and failed = ref 0 and next = ref 0 in
  let pools = ref [] and plain = ref [] and ns_per_il = ref [] in
  let visit ~pass i =
    incr attempted;
    let k = !next in
    incr next;
    let c = cases.(i) in
    let acc = { q = 0.; r = 0. } in
    let mu = Mutex.create () in
    let probe_pool (s : Pool.task_sample) =
      Mutex.protect mu (fun () ->
          acc.q <- acc.q +. s.Pool.ts_queue_ms;
          acc.r <- acc.r +. s.Pool.ts_run_ms)
    in
    let traced () =
      Trace.with_op trace ~root:"op" k (fun () ->
          Staged.run ~trace ~probe:probe_pool ?jobs:opts.jobs ~config:opts.config
            ~post_cleanup:opts.post_cleanup ~name:c.name ~source:c.source
            ~inputs:c.inputs ())
    in
    (* The untraced twin, alternately before and after, for the cost of
       tracing. *)
    let twin () = plain := snd (Measure.time (fun () -> pipeline opts c)) :: !plain in
    match
      if k mod 2 = 0 then (
        let s = traced () in
        twin ();
        s)
      else (
        twin ();
        traced ())
    with
    | exception _ -> incr failed
    | s ->
      pools := acc :: !pools;
      let probes_ok, npi = Trace.with_op trace ~root:"probe" k (fun () -> probe trace cache k c s) in
      ns_per_il := npi :: !ns_per_il;
      let cs = counts_of s in
      let ok =
        probes_ok && clean s.Staged.result
        &&
        if pass = 0 then begin
          first.(i) <- Some cs;
          tokens.(i) <- List.length (Impact_cfront.Lexer.tokenize c.source);
          oracle_ok c s.Staged.result.Pipeline.inliner.Inliner.program
        end
        else first.(i) = Some cs
      in
      if not ok then incr failed
  in
  let passes, elapsed_s = drive ~seed ~seconds n visit in
  let views = Trace.views trace in
  let ops = List.filter (fun v -> v.Trace.root = "op") views in
  let probes = List.filter (fun v -> v.Trace.root = "probe") views in
  let med vs f = Measure.median (List.map f vs) in
  let ms vs name = med vs (fun v -> Trace.name_ms v name) in
  let mwords vs names =
    med vs (fun v -> List.fold_left (fun a nm -> a +. Trace.name_words v nm) 0. names /. 1e6)
  in
  let firsts = List.filter_map Fun.id (Array.to_list first) in
  let sum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 firsts) in
  let share layers =
    let part =
      List.fold_left
        (fun a v -> a +. List.fold_left (fun a l -> a +. Trace.layer_self v l) 0. layers)
        0. ops
    in
    100. *. part /. List.fold_left (fun a v -> a +. v.Trace.op_ms) 0. ops
  in
  let total xs = List.fold_left ( +. ) 0. xs in
  let cstore = Cache.cstore cache in
  let entries = Impact_support.Cstore.entry_count cstore in
  let metrics =
    [
      ("cfront.parse_ms", ms ops "cfront.parse");
      ("cfront.sema_ms", ms ops "cfront.sema");
      ("cfront.tokens", float_of_int (Array.fold_left ( + ) 0 tokens));
      ("cfront.minor_mwords", mwords ops [ "cfront.parse"; "cfront.sema" ]);
      ("il.lower_ms", ms ops "il.lower");
      ("il.size_lowered", sum (fun c -> c.lowered));
      ("il.check_ms", ms probes "il.check");
      ("opt.pre_inline_ms", ms ops "opt.pre_inline");
      ("opt.pre_inline_rewrites", sum (fun c -> c.pre_rewrites));
      ("opt.devirt_ms", ms ops "opt.devirt");
      ("opt.devirt_sites", sum (fun c -> c.devirt_sites));
      ("opt.cleanup_ms", ms ops "opt.cleanup");
      ("opt.cleanup_rewrites", sum (fun c -> c.cleanup_rewrites));
      ("callgraph.build_ms", ms ops "callgraph.build");
      ("callgraph.arcs", sum (fun c -> c.arcs));
      ("core.classify_ms", ms ops "core.classify");
      ("core.linearize_ms", ms ops "core.linearize");
      ("core.select_ms", ms ops "core.select");
      ("core.expand_ms", ms ops "core.expand");
      ("core.sites_expanded", sum (fun c -> c.expanded));
      ("core.size_after", sum (fun c -> c.size_after));
      ( "core.minor_mwords",
        mwords ops [ "core.copy"; "core.classify"; "core.linearize"; "core.select"; "core.expand" ] );
      ("profile.profile_ms", ms ops "profile.profile");
      ("profile.reprofile_ms", ms ops "profile.reprofile");
      ("profile.runs", sum (fun c -> c.runs));
      ("profile.counted_sites", sum (fun c -> c.counted_sites));
      ("profile.minor_mwords", mwords ops [ "profile.profile"; "profile.reprofile" ]);
      ("interp.ns_per_il", Measure.median !ns_per_il);
      ("interp.dyn_ils", List.fold_left (fun a c -> a +. c.dyn_ils) 0. firsts);
      ("interp.setup_us", 1000. *. ms probes "interp.setup");
      ("interp.first_run_ms", ms probes "interp.first_run");
      ("interp.warm_run_ms", ms probes "interp.warm_run");
      ("interp.minor_mwords", mwords probes [ "interp.warm_run" ]);
      ("pool.queue_ms", Measure.median (List.map (fun a -> a.q) !pools));
      ("pool.run_ms", Measure.median (List.map (fun a -> a.r) !pools));
      ("cache.find_ms", ms probes "cache.find");
      ("cache.put_ms", ms probes "cache.put");
      ( "cache.entry_kb",
        float_of_int (Impact_support.Cstore.total_bytes cstore)
        /. 1024. /. float_of_int (max 1 entries) );
      ("harness.keys_ms", ms ops "harness.keys");
      ("harness.unattributed_ms", med ops Trace.unattributed_ms);
      ( "obs.trace_overhead_pct",
        let traced = total (List.map (fun v -> v.Trace.op_ms) ops) in
        let untraced = total !plain in
        100. *. (traced -. untraced) /. untraced );
      ("layers.runtime_pct", share [ "profile"; "interp" ]);
      ("layers.compiler_pct", share [ "cfront"; "il"; "opt"; "callgraph"; "core" ]);
    ]
  in
  Trace.write_jsonl trace (Filename.concat scratch "trace.jsonl");
  {
    Outcome.attempted = !attempted;
    failed = !failed;
    metrics;
    info =
      [
        ("passes", Impact_obs.Sink.Int passes);
        ("elapsed_s", Impact_obs.Sink.Float elapsed_s);
        ("traced_ops", Impact_obs.Sink.Int (List.length ops));
      ];
  }

(* ------------------------------------------------------------------ *)
(* The two workloads                                                   *)
(* ------------------------------------------------------------------ *)

let suite_cases () =
  Impact_bench_progs.Suite.all
  |> List.map (fun (b : Impact_bench_progs.Benchmark.t) ->
         let inputs = b.Impact_bench_progs.Benchmark.inputs () in
         {
           name = b.Impact_bench_progs.Benchmark.name;
           source = b.Impact_bench_progs.Benchmark.source;
           inputs;
           expected =
             List.map
               (fun i ->
                 Option.map (fun o -> (o, None))
                   (Impact_bench_progs.Benchmark.expected_output b i))
               inputs;
         })
  |> Array.of_list

let suite_opts () =
  { config = Config.default; post_cleanup = false; jobs = Some (Pool.default_jobs ()); tail_cap = 90. }

(* Programs per [compile] run: Table 4 is a mean over this many. *)
let compile_corpus = 40

let compile_cases ~seed ?(count = compile_corpus) () =
  Array.init count (fun i ->
      let source, input = Gen.case Gen.compile_shape ~seed i in
      let o = Machine.run_reference (Impact_il.Lower.lower_source source) ~input in
      {
        name = Printf.sprintf "gen%d" i;
        source;
        inputs = [ input ];
        expected = [ Some (o.Machine.output, Some o.Machine.exit_code) ];
      })

let compile_opts =
  {
    config = { Config.default with Config.devirt = true };
    post_cleanup = true;
    jobs = None;
    tail_cap = 90.;
  }
