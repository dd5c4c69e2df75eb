(* The pipeline of [Pipeline.run] (no cache, [Strict] policy), driven one
   public library call at a time so that the traced run can put a span
   around each.

   Stage for stage it does the work [Pipeline.run] does, including the
   checksums it computes for cache keys even when no cache is given,
   and the steps of [Inliner.run] (copy, devirt, call graph, classify,
   linearize, select, expand, dead-function pass).  The benchmark's
   tests pin its result to [Pipeline.run]'s. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Callgraph = Impact_callgraph.Callgraph
module Config = Impact_core.Config
module Classify = Impact_core.Classify
module Linearize = Impact_core.Linearize
module Select = Impact_core.Select
module Expand = Impact_core.Expand
module Inliner = Impact_core.Inliner
module Pipeline = Impact_harness.Pipeline

type t = {
  result : Pipeline.result;
  lowered_size : int;  (** IL instructions straight out of lowering *)
  pre_rewrites : int;
  cleanup_rewrites : int;
  counted_sites : int;  (** sites counted, both profiling passes *)
  runs : int;  (** profiling runs, both passes *)
}

let order_of (c : Config.t) =
  match c.Config.linearization with
  | Config.Lin_weight_sorted -> Linearize.Weight_sorted
  | Config.Lin_random -> Linearize.Random_only
  | Config.Lin_reverse -> Linearize.Reverse_weight
  | Config.Lin_topological -> Linearize.Topological

let pairs (r : Profiler.result) =
  List.map
    (fun (o : Machine.outcome) -> (o.Machine.output_digest, o.Machine.exit_code))
    r.Profiler.runs

let run ?trace ?probe ?jobs ?(config = Config.default) ?(post_cleanup = false)
    ~name ~source ~inputs () =
  let span name f = Trace.span_opt trace name f in
  let ast =
    span "cfront.parse" (fun () -> Impact_cfront.Parser.parse_program source)
  in
  let tast = span "cfront.sema" (fun () -> Impact_cfront.Sema.check ast) in
  let prog = span "il.lower" (fun () -> Impact_il.Lower.lower tast) in
  let lowered_size = Il.program_code_size prog in
  let pre_rewrites =
    span "opt.pre_inline" (fun () -> Impact_opt.Driver.pre_inline prog)
  in
  ignore (span "harness.keys" (fun () -> Profile_io.program_checksum prog));
  let profile_pass name prog =
    span name (fun () ->
        Profiler.profile ?jobs ?probe ~keep_outputs:false prog ~inputs)
  in
  let pre = profile_pass "profile.profile" prog in
  let profile = pre.Profiler.profile in
  ignore
    (span "harness.keys" (fun () ->
         (Profile_io.profile_checksum profile, Config.fingerprint config)));
  let refine = config.Config.refine_pointer_targets in
  let graph0 =
    span "callgraph.build" (fun () ->
        Callgraph.build ~refine_pointer_targets:refine prog profile)
  in
  let classified =
    span "core.classify" (fun () -> Classify.classify graph0 config)
  in
  (* Inliner.run, step by step. *)
  let inlined = span "core.copy" (fun () -> Il.copy_program prog) in
  let size_before = Il.program_code_size inlined in
  let devirt, iprofile =
    if not config.Config.devirt then ([], profile)
    else
      span "opt.devirt" (fun () ->
          Impact_opt.Devirt.run ~threshold:config.Config.devirt_threshold
            profile inlined)
  in
  let graph =
    span "callgraph.build" (fun () ->
        Callgraph.build ~refine_pointer_targets:refine inlined iprofile)
  in
  let iclassified =
    span "core.classify" (fun () -> Classify.classify graph config)
  in
  let linear =
    span "core.linearize" (fun () ->
        Linearize.linearize ~order:(order_of config) graph
          ~seed:config.Config.linearize_seed)
  in
  let selection =
    span "core.select" (fun () -> Select.select graph config linear)
  in
  let expansion =
    span "core.expand" (fun () -> Expand.expand_all inlined linear selection)
  in
  let dead_removed =
    span "callgraph.build" (fun () ->
        Impact_callgraph.Reach.eliminate (Callgraph.build inlined iprofile))
  in
  let inliner =
    {
      Inliner.program = inlined;
      graph;
      classified = iclassified;
      linear;
      selection;
      expansion;
      devirt;
      size_before;
      size_after = Il.program_code_size inlined;
      dead_removed;
    }
  in
  let cleanup_rewrites =
    if post_cleanup then
      span "opt.cleanup" (fun () -> Impact_opt.Driver.post_inline_cleanup inlined)
    else 0
  in
  ignore (span "harness.keys" (fun () -> Profile_io.program_checksum inlined));
  let post = profile_pass "profile.reprofile" inlined in
  let post_profile = post.Profiler.profile in
  let outputs_match =
    List.length pre.Profiler.runs = List.length post.Profiler.runs
    && List.for_all2 ( = ) (pairs pre) (pairs post)
  in
  ignore
    (span "harness.keys" (fun () -> Profile_io.profile_checksum post_profile));
  let post_graph =
    span "callgraph.build" (fun () -> Callgraph.build inlined post_profile)
  in
  let post_classified =
    span "core.classify" (fun () -> Classify.classify post_graph config)
  in
  let bench =
    {
      Impact_bench_progs.Benchmark.name;
      description = "benchmark case";
      source;
      inputs = (fun () -> inputs);
    }
  in
  let coverage (r : Profiler.result) = r.Profiler.coverage.Profiler.counted_sites in
  {
    result =
      {
        Pipeline.bench;
        c_lines = Pipeline.count_c_lines source;
        nruns = List.length inputs;
        prog;
        profile;
        classified;
        inliner;
        post_profile;
        post_classified;
        outputs_match;
        degradations = [];
      };
    lowered_size;
    pre_rewrites;
    cleanup_rewrites;
    counted_sites = coverage pre + coverage post;
    runs = List.length pre.Profiler.runs + List.length post.Profiler.runs;
  }
