module Il = Impact_il.Il
module Lower = Impact_il.Lower
module Machine = Impact_interp.Machine
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile
module Callgraph = Impact_callgraph.Callgraph
module Inliner = Impact_core.Inliner
module Classify = Impact_core.Classify
module Config = Impact_core.Config
module Benchmark = Impact_bench_progs.Benchmark
module Obs = Impact_obs.Obs
module Ierr = Impact_support.Ierr

type policy = Strict | Degrade

type degradation = {
  d_stage : Ierr.stage;
  d_detail : string;
  d_action : string;
}

type result = {
  bench : Benchmark.t;
  c_lines : int;
  nruns : int;
  prog : Il.program;
  profile : Profile.t;
  classified : Classify.classified list;
  inliner : Inliner.report;
  post_profile : Profile.t;
  post_classified : Classify.classified list;
  outputs_match : bool;
  degradations : degradation list;
}

let count_c_lines src =
  String.split_on_char '\n' src
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

(* Render an exception for a degradation note: typed errors print
   themselves; anything else is classified first so the note reads like
   the Strict-mode message would ("run exceeded its wall-clock budget"
   rather than a bare constructor name). *)
let exn_detail stage = function
  | Ierr.Error e -> Ierr.to_string e
  | e -> Ierr.to_string (Errors.classify stage e)

(* Runs are compared (and cached) as (output digest, exit code) pairs:
   everything behavioural the pipeline verifies, and nothing engine- or
   timing-dependent, so a cached profile's runs unify with fresh ones. *)
let outcome_pair (o : Machine.outcome) =
  (o.Machine.output_digest, o.Machine.exit_code)

let same_outcome (da, ca) (db, cb) = String.equal da db && ca = cb

(* Tolerant profiling returns survivors in input order plus the failed
   input indices; scatter them back onto input positions so the pre- and
   post-expansion runs can be compared per input even when different
   inputs failed in each pass. *)
let scatter_runs n runs (failures : (int * exn) list) =
  let failed = Array.make n false in
  List.iter (fun (i, _) -> if i >= 0 && i < n then failed.(i) <- true) failures;
  let arr = Array.make n None in
  let rem = ref runs in
  for i = 0 to n - 1 do
    if not failed.(i) then
      match !rem with
      | r :: tl ->
        arr.(i) <- Some r;
        rem := tl
      | [] -> ()
  done;
  arr

let run ?(obs = Obs.null) ?(policy = Strict) ?(config = Config.default)
    ?(pre_opt = true) ?(post_cleanup = false) ?cache ?engine ?jobs ?budget
    ?fuel ?(profile_mode = Impact_profile.Coverage.Full) (bench : Benchmark.t) =
  let degradations = ref [] in
  let note d_stage d_detail d_action =
    degradations := { d_stage; d_detail; d_action } :: !degradations;
    Obs.instant obs ~kind:"degrade"
      ~attrs:
        [
          ("stage", Impact_obs.Sink.String (Ierr.stage_name d_stage));
          ("action", Impact_obs.Sink.String d_action);
          ("detail", Impact_obs.Sink.String d_detail);
        ]
      "pipeline.degraded"
  in
  (* Cache plumbing.  Without a cache every lookup misses and every
     store is a no-op, so the uncached pipeline is byte-identical to the
     pre-cache one.  Keys are lazy and forced only here, so an uncached
     run never prints or digests a program for a key nobody reads.  A
     stage's result is stored only when the stage completed without
     degradations ([clean] below): a cached artifact always replays a
     clean computation, never a recovered one whose notes would silently
     vanish on reuse. *)
  let cache_find ~stage ~key =
    match cache with
    | None -> None
    | Some c -> Cache.find c obs ~stage ~key:(Lazy.force key)
  in
  let cache_put ~stage ~key v =
    match cache with
    | None -> ()
    | Some c -> Cache.put c obs ~stage ~key:(Lazy.force key) v
  in
  let clean_mark () = List.length !degradations in
  let clean since = List.length !degradations = since in
  let engine_name =
    Machine.engine_to_string
      (match engine with Some e -> e | None -> Machine.Threaded)
  in
  (* Wall-clock budgets and fuel can truncate runs non-deterministically,
     so profiles collected under either are never cached. *)
  let profile_cacheable = budget = None && fuel = None in
  Obs.span obs "pipeline"
    ~attrs:[ ("benchmark", Impact_obs.Sink.String bench.Benchmark.name) ]
    (fun () ->
      (* Front end (parse + sema + lower + pre-inline optimisation) is a
         pure function of the source text and the [pre_opt] switch. *)
      let front_key =
        lazy
          (Cache.key [ "front"; bench.Benchmark.source; string_of_bool pre_opt ])
      in
      let prog =
        match cache_find ~stage:"front" ~key:front_key with
        | Some prog -> prog
        | None ->
          let ast =
            Errors.guard Ierr.Parse (fun () ->
                Obs.span obs "parse" (fun () ->
                    Impact_cfront.Parser.parse_program bench.Benchmark.source))
          in
          let tast =
            Errors.guard Ierr.Sema (fun () ->
                Obs.span obs "sema" (fun () -> Impact_cfront.Sema.check ast))
          in
          let prog =
            Errors.guard Ierr.Lower (fun () ->
                Obs.span obs "lower" (fun () -> Lower.lower tast))
          in
          Obs.gauge_int obs "il.size_lowered" (Il.program_code_size prog);
          (* The paper's setup: constant folding and jump optimisation run
             before inline expansion. *)
          if pre_opt then
            Errors.guard Ierr.Lower (fun () ->
                ignore
                  (Obs.span obs "pre_opt" (fun () ->
                       Impact_opt.Driver.pre_inline prog)));
          cache_put ~stage:"front" ~key:front_key prog;
          prog
      in
      Obs.gauge_int obs "il.size_pre_inline" (Il.program_code_size prog);
      let inputs =
        Errors.guard Ierr.Driver (fun () -> bench.Benchmark.inputs ())
      in
      let nfuncs = Array.length prog.Il.funcs in
      let nsites = prog.Il.next_site in
      (* A profile entry is keyed by the engine, the instrumentation
         mode, the program's checksum and the raw input bytes; the
         payload carries the averaged profile plus each run's (digest,
         exit code) pair, so a warm rerun can still verify outputs
         without executing anything.  The mode is part of the key even
         though [Min] profiles are bit-identical to [Full] ones: a
         [Sampled] profile is approximate, and conflating it with an
         exact entry would silently serve stale weights. *)
      let profile_key_of sum =
        lazy
          (Cache.key
             (("profile-" ^ engine_name)
             :: ("mode-" ^ Impact_profile.Coverage.mode_name profile_mode)
             :: Lazy.force sum :: inputs))
      in
      let prog_sum = lazy (Impact_profile.Profile_io.program_checksum prog) in
      let profile_key = profile_key_of prog_sum in
      (* Only counters and digests are consumed downstream, so neither
         profiling pass needs to hold every run's output text. *)
      let static_fallback = ref false in
      let profile, runs, pre_failures =
        match
          if profile_cacheable then
            cache_find ~stage:"profile" ~key:profile_key
          else None
        with
        | Some (profile, pairs) -> (profile, pairs, [])
        | None ->
          let since = clean_mark () in
          let profile, runs, failures =
            match policy with
            | Strict ->
              let { Profiler.profile; runs; _ } =
                Errors.guard Ierr.Profile_run (fun () ->
                    Obs.span obs "profile" (fun () ->
                        Profiler.profile ?budget ?fuel ~obs ?engine ?jobs
                          ~keep_outputs:false ~mode:profile_mode prog ~inputs))
              in
              (profile, List.map outcome_pair runs, [])
            | Degrade -> (
              try
                let { Profiler.profile; runs; failures; _ } =
                  Obs.span obs "profile" (fun () ->
                      Profiler.profile ?budget ?fuel ~obs ?engine ?jobs
                        ~keep_outputs:false ~tolerant:true ~mode:profile_mode
                        ~on_retry:(fun i e ->
                          note Ierr.Profile_run
                            (Printf.sprintf "run on input %d failed (%s)" i
                               (exn_detail Ierr.Profile_run e))
                            "retried once")
                        prog ~inputs)
                in
                List.iter
                  (fun (i, e) ->
                    note Ierr.Profile_run
                      (Printf.sprintf "run on input %d failed after retry (%s)"
                         i
                         (exn_detail Ierr.Profile_run e))
                      "dropped from profile average")
                  failures;
                (profile, List.map outcome_pair runs, failures)
              with e ->
                static_fallback := true;
                note Ierr.Profile_run
                  (Printf.sprintf "profiling failed (%s)"
                     (exn_detail Ierr.Profile_run e))
                  "fell back to static uniform weights (no inlining)";
                (Profile.static_uniform ~nfuncs ~nsites, [], []))
          in
          if
            profile_cacheable && failures = []
            && (not !static_fallback)
            && clean since
          then
            cache_put ~stage:"profile" ~key:profile_key (profile, runs);
          (profile, runs, failures)
      in
      let profile_sum =
        lazy (Impact_profile.Profile_io.profile_checksum profile)
      in
      let config_fp = Config.fingerprint config in
      (* Classification depends on the program, the profile's content,
         the config, and which pointer-target analysis actually ran (the
         post pass never refines, whatever the config says). *)
      let classify_key_of ~tag ~prog_sum ~profile_sum ~refine =
        lazy
          (Cache.key
             [ "classify"; tag; Lazy.force prog_sum; Lazy.force profile_sum;
               config_fp; string_of_bool refine ])
      in
      let classified =
        let key =
          classify_key_of ~tag:"pre" ~prog_sum ~profile_sum
            ~refine:config.Config.refine_pointer_targets
        in
        match cache_find ~stage:"classify" ~key with
        | Some cl -> cl
        | None ->
          let graph =
            Errors.guard Ierr.Callgraph (fun () ->
                Obs.span obs "callgraph" (fun () ->
                    Callgraph.build
                      ~refine_pointer_targets:
                        config.Config.refine_pointer_targets prog profile))
          in
          let cl =
            Errors.guard Ierr.Select (fun () ->
                Obs.span obs "classify" (fun () ->
                    Classify.classify ~obs ~stage:"classify.pre" graph config))
          in
          cache_put ~stage:"classify" ~key cl;
          cl
      in
      (* Expansion failures are typed at the source: in Strict they abort
         with a caller-naming [Expand] error; in Degrade the caller is
         skipped, logged as a decision, and the rest of the plan kept. *)
      let on_expand_error fid exn =
        let fname =
          if fid >= 0 && fid < nfuncs then prog.Il.funcs.(fid).Il.name
          else string_of_int fid
        in
        match policy with
        | Strict ->
          let e = Errors.classify Ierr.Expand exn in
          raise
            (Ierr.Error
               {
                 e with
                 Ierr.msg =
                   Printf.sprintf "while expanding into %s: %s" fname e.Ierr.msg;
               })
        | Degrade ->
          note Ierr.Expand
            (Printf.sprintf "expansion into %s failed (%s)" fname
               (exn_detail Ierr.Expand exn))
            "caller skipped, rest of plan kept"
      in
      (* Selection + expansion is a pure function of the program, the
         profile's content and the config; the cached payload is the
         whole report (expanded program included), so a hit skips
         linearisation, selection, expansion and DCE in one step. *)
      let inliner =
        let key =
          lazy
            (Cache.key
               [ "inline"; Lazy.force prog_sum; Lazy.force profile_sum;
                 config_fp; string_of_bool post_cleanup ])
        in
        match cache_find ~stage:"inline" ~key with
        | Some r ->
          Obs.instant obs ~kind:"decision"
            ~attrs:
              [
                ("benchmark", Impact_obs.Sink.String bench.Benchmark.name);
                ("config", Impact_obs.Sink.String config_fp);
                ("profile", Impact_obs.Sink.String (Lazy.force profile_sum));
              ]
            "inline.cached";
          r
        | None ->
          let since = clean_mark () in
          let run_inliner config =
            Errors.guard Ierr.Select (fun () ->
                Obs.span obs "inline" (fun () ->
                    Inliner.run ~obs ~config ~on_expand_error prog profile))
          in
          let r =
            match policy with
            | Strict -> run_inliner config
            | Degrade when not config.Config.devirt -> run_inliner config
            | Degrade -> (
              (* Devirtualization is optional speculation: a failure
                 inside the speculating inliner degrades to the plain
                 one rather than killing the run. *)
              try run_inliner config
              with Ierr.Error e ->
                note e.Ierr.stage
                  (Printf.sprintf "inlining with devirt failed (%s)"
                     e.Ierr.msg)
                  "retried with devirtualization disabled";
                run_inliner { config with Config.devirt = false })
          in
          if post_cleanup then
            Errors.guard Ierr.Lower (fun () ->
                ignore
                  (Obs.span obs "post_opt" (fun () ->
                       Impact_opt.Driver.post_inline_cleanup
                         r.Inliner.program)));
          if clean since then cache_put ~stage:"inline" ~key r;
          r
      in
      Obs.gauge_int obs "il.size_post_inline"
        (Il.program_code_size inliner.Inliner.program);
      let post_prog = inliner.Inliner.program in
      let post_sum =
        lazy (Impact_profile.Profile_io.program_checksum post_prog)
      in
      let post_profile_key = profile_key_of post_sum in
      (* Positional comparison of pre- and post-expansion runs; under
         Degrade the two passes may have dropped different inputs, so
         failures are scattered back onto input positions first. *)
      let compare_runs post_pairs post_failures =
        let n = List.length inputs in
        let pre = scatter_runs n runs pre_failures in
        let post = scatter_runs n post_pairs post_failures in
        let matches = ref true in
        for i = 0 to n - 1 do
          match (pre.(i), post.(i)) with
          | Some a, Some b -> if not (same_outcome a b) then matches := false
          | None, None -> () (* failed both times: nothing to compare *)
          | _ -> matches := false (* behaviour diverged under expansion *)
        done;
        !matches
      in
      let post_profile, outputs_match =
        if !static_fallback then (
          (* No dynamic behaviour was ever observed; the expanded program
             equals the no-inlining baseline, so re-running it could only
             repeat the original failure. *)
          note Ierr.Profile_run "no dynamic profile to compare against"
            "re-profile skipped; post metrics are static";
          ( Profile.static_uniform
              ~nfuncs:(Array.length post_prog.Il.funcs)
              ~nsites:post_prog.Il.next_site,
            true ))
        else
          match
            if profile_cacheable then
              cache_find ~stage:"profile" ~key:post_profile_key
            else None
          with
          | Some (post_profile, post_pairs) ->
            (post_profile, compare_runs post_pairs [])
          | None -> (
            match policy with
            | Strict ->
              let { Profiler.profile = post_profile; runs = post_runs; _ } =
                Errors.guard Ierr.Profile_run (fun () ->
                    Obs.span obs "re_profile" (fun () ->
                        Profiler.profile ?budget ?fuel ~obs ?engine ?jobs
                          ~keep_outputs:false ~mode:profile_mode post_prog
                          ~inputs))
              in
              let post_pairs = List.map outcome_pair post_runs in
              if profile_cacheable then
                cache_put ~stage:"profile" ~key:post_profile_key
                  (post_profile, post_pairs);
              (post_profile, compare_runs post_pairs [])
            | Degrade -> (
              let since = clean_mark () in
              try
                let {
                  Profiler.profile = post_profile;
                  runs = post_runs;
                  failures = post_failures;
                  _;
                } =
                  Obs.span obs "re_profile" (fun () ->
                      Profiler.profile ?budget ?fuel ~obs ?engine ?jobs
                        ~keep_outputs:false ~tolerant:true ~mode:profile_mode
                        ~on_retry:(fun i e ->
                          note Ierr.Profile_run
                            (Printf.sprintf
                               "re-profile run on input %d failed (%s)" i
                               (exn_detail Ierr.Profile_run e))
                            "retried once")
                      post_prog ~inputs)
                in
                List.iter
                  (fun (i, e) ->
                    note Ierr.Profile_run
                      (Printf.sprintf
                         "re-profile run on input %d failed after retry (%s)" i
                         (exn_detail Ierr.Profile_run e))
                      "dropped from post-inline average")
                  post_failures;
                let post_pairs = List.map outcome_pair post_runs in
                if profile_cacheable && post_failures = [] && clean since then
                  cache_put ~stage:"profile" ~key:post_profile_key
                    (post_profile, post_pairs);
                (post_profile, compare_runs post_pairs post_failures)
              with e ->
                note Ierr.Profile_run
                  (Printf.sprintf "re-profiling failed (%s)"
                     (exn_detail Ierr.Profile_run e))
                  "post metrics are static; outputs unverified";
                ( Profile.static_uniform
                    ~nfuncs:(Array.length post_prog.Il.funcs)
                    ~nsites:post_prog.Il.next_site,
                  false )))
      in
      let post_classified =
        let key =
          classify_key_of ~tag:"post" ~prog_sum:post_sum
            ~profile_sum:
              (lazy (Impact_profile.Profile_io.profile_checksum post_profile))
            ~refine:false
        in
        match cache_find ~stage:"classify" ~key with
        | Some cl -> cl
        | None ->
          let post_graph =
            Errors.guard Ierr.Callgraph (fun () ->
                Callgraph.build post_prog post_profile)
          in
          let cl =
            Errors.guard Ierr.Select (fun () ->
                Obs.span obs "post_classify" (fun () ->
                    Classify.classify ~obs ~stage:"classify.post" post_graph
                      config))
          in
          cache_put ~stage:"classify" ~key cl;
          cl
      in
      let c_lines = count_c_lines bench.Benchmark.source in
      Obs.gauge_int obs "pipeline.c_lines" c_lines;
      Obs.gauge_int obs "pipeline.nruns" (List.length inputs);
      (* A broken trace sink never took the computation down (sinks fail
         open); decide its severity now that the result is in hand. *)
      (match Impact_obs.Sink.broken (Obs.sink obs) with
      | None -> ()
      | Some e -> (
        match policy with
        | Strict -> raise (Ierr.Error (Errors.classify Ierr.Artifact e))
        | Degrade ->
          note Ierr.Artifact
            (Printf.sprintf "trace sink failed (%s)" (exn_detail Ierr.Artifact e))
            "later events dropped; run kept"));
      (match cache with Some c -> Cache.publish c obs | None -> ());
      {
        bench;
        c_lines;
        nruns = List.length inputs;
        prog;
        profile;
        classified;
        inliner;
        post_profile;
        post_classified;
        outputs_match;
        degradations = List.rev !degradations;
      })

(* The daemon-facing entry: one request's source text and input set,
   with no suite state and no file system reads.  [run] itself is
   reentrant — all its state is per-call, the optional [cache] handle is
   internally synchronized, and the interpreter's per-domain scratch
   reuse is domain-local — so concurrent [run_source] calls from
   different worker domains sharing one cache are safe. *)
let run_source ?obs ?policy ?config ?pre_opt ?post_cleanup ?cache ?engine ?jobs
    ?budget ?fuel ?profile_mode ?(name = "request") ~source ~inputs () =
  let bench =
    {
      Benchmark.name;
      description = "served source";
      source;
      inputs = (fun () -> inputs);
    }
  in
  run ?obs ?policy ?config ?pre_opt ?post_cleanup ?cache ?engine ?jobs ?budget
    ?fuel ?profile_mode bench

let run_suite ?obs ?policy ?config ?post_cleanup ?cache ?engine ?jobs ?clamp
    ?probe ?profile_mode () =
  (* Parallelism fans out across benchmarks — coarse sharding: one
     domain owns a benchmark pipeline end-to-end, and each benchmark's
     own profiling stays sequential (inner ?jobs unset) so domains are
     not oversubscribed.  The pool preserves suite order.  One cache is
     shared by all workers (the store is mutex-protected); [?probe]
     observes one task sample per completed benchmark. *)
  Impact_support.Pool.map_list ?jobs ?clamp ?probe
    (fun b -> run ?obs ?policy ?config ?post_cleanup ?cache ?engine ?profile_mode b)
    Impact_bench_progs.Suite.all

type suite_report = {
  completed : result list;
  failed : (Benchmark.t * Ierr.t) list;
}

let run_suite_report ?obs ?(policy = Degrade) ?config ?post_cleanup ?cache
    ?engine ?jobs ?clamp ?probe ?profile_mode
    ?(benches = Impact_bench_progs.Suite.all) () =
  let outcomes =
    Impact_support.Pool.map_list_results ?jobs ?clamp ?probe
      (fun b ->
        run ?obs ~policy ?config ?post_cleanup ?cache ?engine ?profile_mode b)
      benches
  in
  let completed, failed =
    List.fold_left2
      (fun (ok, bad) b outcome ->
        match outcome with
        | Ok r -> (r :: ok, bad)
        | Error e -> (ok, (b, Errors.classify Ierr.Driver e) :: bad))
      ([], []) benches outcomes
  in
  { completed = List.rev completed; failed = List.rev failed }

let code_increase r =
  let before = float_of_int r.inliner.Inliner.size_before in
  (* Measure the program as it stands, so a post-inline clean-up pass is
     reflected in the growth number. *)
  let after = float_of_int (Il.program_code_size r.inliner.Inliner.program) in
  if before = 0. then 0. else 100. *. (after -. before) /. before

let call_decrease r =
  let before = r.profile.Profile.avg_calls in
  let after = r.post_profile.Profile.avg_calls in
  if before = 0. then 0. else 100. *. (before -. after) /. before

let ils_per_call r =
  let calls = r.post_profile.Profile.avg_calls in
  if calls = 0. then r.post_profile.Profile.avg_ils
  else r.post_profile.Profile.avg_ils /. calls

let cts_per_call r =
  let calls = r.post_profile.Profile.avg_calls in
  if calls = 0. then r.post_profile.Profile.avg_cts
  else r.post_profile.Profile.avg_cts /. calls
