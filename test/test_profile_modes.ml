(* Minimum-coverage profiling: the tentpole guarantee and its edges.

   The locked-down property: a [Min] plan instruments a strict subset
   of call sites, yet the inferred profile is byte-for-byte identical
   to the fully instrumented one — on every suite benchmark and on
   generated C programs — so inline decisions and reports cannot
   depend on the mode.  Around it: the versioned Profile_io header
   that records the mode, plan sharing across pool domains (one build
   per program, never one per run), and the degraded pipeline under an
   interpreter fault while min-mode profiling. *)

module Il_pp = Impact_il.Il_pp
module Fault = Impact_support.Fault
module Ierr = Impact_support.Ierr
module Coverage = Impact_profile.Coverage
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Profiler = Impact_profile.Profiler
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Expand = Impact_core.Expand
module Pipeline = Impact_harness.Pipeline
module Benchmark = Impact_bench_progs.Benchmark
module Suite = Impact_bench_progs.Suite
module Lower = Impact_il.Lower

(* ------------------------------------------------------------------ *)
(* Full vs Min on the benchmark suite                                  *)
(* ------------------------------------------------------------------ *)

(* Byte-level equality via the serialiser pins every field at once —
   the same bytes the cache and the CLI artefacts carry. *)
let profile_bytes p = Profile_io.to_string p

let test_min_identical_on_suite () =
  let saw_vsites = ref false in
  List.iter
    (fun (b : Benchmark.t) ->
      let prog = Lower.lower_source b.Benchmark.source in
      let inputs = b.Benchmark.inputs () in
      let full = Profiler.profile ~keep_outputs:false prog ~inputs in
      let min = Profiler.profile ~keep_outputs:false ~mode:Coverage.Min prog ~inputs in
      Alcotest.(check string)
        (b.Benchmark.name ^ ": min profile byte-identical to full")
        (profile_bytes full.Profiler.profile)
        (profile_bytes min.Profiler.profile);
      (* The value-profile component, explicitly: indirect sites are
         never elided by a Min plan, so the per-site target histograms
         must be structurally identical too, not just the site
         weights. *)
      let vf = full.Profiler.profile.Profile.vsites in
      let vm = min.Profiler.profile.Profile.vsites in
      if vf <> vm then
        Alcotest.failf "%s: full and min value profiles differ"
          b.Benchmark.name;
      if vf <> [] then saw_vsites := true;
      (* The plan must have actually elided something: a "min" plan
         instrumenting every site proves nothing. *)
      let c = min.Profiler.coverage in
      if c.Profiler.counted_sites >= c.Profiler.total_sites then
        Alcotest.failf "%s: min plan elided nothing (%d of %d sites counted)"
          b.Benchmark.name c.Profiler.counted_sites c.Profiler.total_sites;
      Alcotest.(check bool)
        (b.Benchmark.name ^ ": min plan was not poisoned")
        true
        (c.Profiler.effective = Coverage.Min))
    Suite.all;
  Alcotest.(check bool)
    "at least one benchmark recorded indirect-call histograms" true !saw_vsites

(* ------------------------------------------------------------------ *)
(* Property: generated programs, decisions and reports included        *)
(* ------------------------------------------------------------------ *)

let sorted_sites report =
  Hashtbl.fold (fun site () acc -> site :: acc) (Inliner.expanded_sites report) []
  |> List.sort compare

(* One generated program, both modes, end to end: identical profile
   bytes, identical inline decisions, identical inlined program and
   report sizes.  The generator emits function-pointer dispatch, so
   this also covers the never-elide-indirect-sites rule — the targets
   are legitimate materialised functions, so the plan must stay exact
   without poisoning. *)
let min_preserves_everything src =
  let prog = Testutil.compile src in
  let full = Profiler.profile ~keep_outputs:false prog ~inputs:[ "" ] in
  let min = Profiler.profile ~keep_outputs:false ~mode:Coverage.Min prog ~inputs:[ "" ] in
  if profile_bytes full.Profiler.profile <> profile_bytes min.Profiler.profile
  then
    QCheck.Test.fail_reportf "min profile diverges from full:\n%s\nvs\n%s"
      (profile_bytes full.Profiler.profile)
      (profile_bytes min.Profiler.profile);
  let config = { Config.default with Config.program_size_limit_ratio = 100. } in
  let r_full = Inliner.run ~config prog full.Profiler.profile in
  let r_min = Inliner.run ~config prog min.Profiler.profile in
  if sorted_sites r_full <> sorted_sites r_min then
    QCheck.Test.fail_reportf "inline decisions differ between modes";
  if Il_pp.dump r_full.Inliner.program <> Il_pp.dump r_min.Inliner.program then
    QCheck.Test.fail_reportf "inlined programs differ between modes";
  if
    (r_full.Inliner.size_before, r_full.Inliner.size_after,
     r_full.Inliner.dead_removed)
    <> (r_min.Inliner.size_before, r_min.Inliner.size_after,
        r_min.Inliner.dead_removed)
  then QCheck.Test.fail_reportf "inline reports differ between modes";
  true

let prop_min_preserves_everything =
  QCheck.Test.make ~count:40
    ~name:"min-coverage profiling: identical profiles, decisions, reports"
    Test_cgen.gen_source min_preserves_everything

(* ------------------------------------------------------------------ *)
(* Versioned serialisation                                             *)
(* ------------------------------------------------------------------ *)

let test_mode_header_roundtrip () =
  let b = Suite.find "wc" in
  let prog = Lower.lower_source b.Benchmark.source in
  let r = Profiler.profile ~keep_outputs:false ~mode:Coverage.Min prog
      ~inputs:(b.Benchmark.inputs ()) in
  let p = r.Profiler.profile in
  (* No mode requested: the historical v2 bytes, checksum and all. *)
  let v2 = Profile_io.to_string p in
  Alcotest.(check bool) "default serialisation stays v2" true
    (String.length v2 > 17 && String.sub v2 0 17 = "impact-profile v2");
  (* Mode recorded: v3, and it loads back. *)
  let v3 = Profile_io.to_string ~mode:Coverage.Min p in
  Alcotest.(check bool) "mode-stamped serialisation is v3" true
    (String.length v3 > 17 && String.sub v3 0 17 = "impact-profile v3");
  (match Profile_io.of_string v3 with
  | Ok p' -> Alcotest.(check int) "roundtrip" p.Profile.nruns p'.Profile.nruns
  | Error e -> Alcotest.failf "v3 roundtrip failed: %s" (Ierr.to_string e));
  (* A legacy header naming the retired approximate mode is refused
     under both versioned headers, never loaded as exact weights. *)
  let nl = String.index v3 '\n' in
  let body = String.sub v3 nl (String.length v3 - nl) in
  List.iter
    (fun header ->
      match Profile_io.of_string (header ^ body) with
      | Ok _ -> Alcotest.failf "%S accepted" header
      | Error e ->
        Alcotest.(check string)
          (header ^ " is a typed profile-io error")
          "profile-io" (Ierr.stage_name e.Ierr.stage))
    [ "impact-profile v3 - sampled"; "impact-profile v4 - sampled" ]

(* ------------------------------------------------------------------ *)
(* Plan sharing across pool domains                                    *)
(* ------------------------------------------------------------------ *)

let test_plan_built_once_across_pool () =
  let b = Suite.find "cmp" in
  let prog = Lower.lower_source b.Benchmark.source in
  let inputs = b.Benchmark.inputs () in
  let before = Coverage.plans_built_count () in
  let r =
    Profiler.profile ~keep_outputs:false ~jobs:4 ~clamp:false
      ~mode:Coverage.Min prog ~inputs
  in
  let after = Coverage.plans_built_count () in
  Alcotest.(check int) "one plan for the whole pooled sweep, not one per run"
    1 (after - before);
  Alcotest.(check int) "every input profiled" (List.length inputs)
    (List.length r.Profiler.runs)

(* ------------------------------------------------------------------ *)
(* Chaos: faults during a min-mode sweep                               *)
(* ------------------------------------------------------------------ *)

let run_pipeline ~profile_mode ~policy () =
  Pipeline.run ~policy ~profile_mode (Suite.find "cmp")

(* A sticky interpreter fault kills every min-mode profiling run: the
   degraded result must be exactly the no-inlining baseline — same
   contract as full mode, no half-inferred weights. *)
let test_min_mode_degrades_to_baseline () =
  let r =
    Fault.with_point ~once:false Fault.Interp_step ~after:0 (fun () ->
        run_pipeline ~profile_mode:Coverage.Min ~policy:Pipeline.Degrade ())
  in
  Alcotest.(check bool) "no expansions without a trustworthy profile" true
    (r.Pipeline.inliner.Inliner.expansion.Expand.expansions = []);
  Alcotest.(check bool) "profile-run degradation recorded" true
    (List.exists
       (fun (d : Pipeline.degradation) -> d.Pipeline.d_stage = Ierr.Profile_run)
       r.Pipeline.degradations);
  Alcotest.(check string) "inlined program equals the baseline"
    (Il_pp.dump r.Pipeline.prog)
    (Il_pp.dump r.Pipeline.inliner.Inliner.program)

(* A one-shot fault is retried (deterministically, same input) and the
   min-mode sweep completes with a full profile behind it. *)
let test_min_mode_survives_one_shot_fault () =
  let r =
    Fault.with_point Fault.Interp_step ~after:0 (fun () ->
        run_pipeline ~profile_mode:Coverage.Min ~policy:Pipeline.Degrade ())
  in
  Alcotest.(check bool) "retried min-mode run verifies outputs" true
    r.Pipeline.outputs_match;
  Alcotest.(check bool) "the retry is on the record" true
    (r.Pipeline.degradations <> [])

let tests =
  [
    Alcotest.test_case "min profile byte-identical across the suite" `Quick
      test_min_identical_on_suite;
    Alcotest.test_case "mode-stamped profile header roundtrips" `Quick
      test_mode_header_roundtrip;
    Alcotest.test_case "one plan per pooled sweep" `Quick
      test_plan_built_once_across_pool;
    Alcotest.test_case "sticky fault: min mode degrades to baseline" `Quick
      test_min_mode_degrades_to_baseline;
    Alcotest.test_case "one-shot fault: min mode retries and completes" `Quick
      test_min_mode_survives_one_shot_fault;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_min_preserves_everything ]
