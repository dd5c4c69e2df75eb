(* Tests of the benchmark itself: its statistics, its generated inputs,
   its request mix, the staged pipeline it traces, the determinism of
   its counts, and the metric names BENCHMARK.json declares. *)

open Perfbench
module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Pipeline = Impact_harness.Pipeline
module Inliner = Impact_core.Inliner
module Sink = Impact_obs.Sink

let check_pct = Alcotest.(check (option (float 0.)))

let tail_selection () =
  let sel ~cap n = Measure.tail_percentile ~cap n in
  check_pct "100 samples: p90 has 10 beyond" (Some 90.) (sel ~cap:99. 100);
  check_pct "199 samples: p95 would have 9 beyond" (Some 90.) (sel ~cap:99. 199);
  check_pct "200 samples: p95" (Some 95.) (sel ~cap:99. 200);
  check_pct "999 samples: p99 would have 9 beyond" (Some 95.) (sel ~cap:99. 999);
  check_pct "1000 samples: p99" (Some 99.) (sel ~cap:99. 1000);
  check_pct "10000 samples: p99.9" (Some 99.9) (sel ~cap:99.9 10000);
  check_pct "the design cap bounds the percentile" (Some 90.) (sel ~cap:90. 5000);
  check_pct "20 samples: the median" (Some 50.) (sel ~cap:99. 20);
  check_pct "19 samples: nothing qualifies" None (sel ~cap:99. 19);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair (float 0.) (float 0.))) "nearest-rank p90 of 1..100" (90., 90.)
    (Measure.tail ~cap:95. xs);
  Alcotest.(check (float 0.)) "median of an even count" 2.5 (Measure.median [ 4.; 1.; 3.; 2. ])

let generator_deterministic () =
  List.iter
    (fun shape ->
      for i = 0 to 4 do
        Alcotest.(check (pair string string))
          "one seed, one case: byte-identical" (Gen.case shape ~seed:11 i)
          (Gen.case shape ~seed:11 i);
        Alcotest.(check bool)
          "another seed, another source" false
          (fst (Gen.case shape ~seed:11 i) = fst (Gen.case shape ~seed:12 i))
      done)
    [ Gen.compile_shape; Gen.serve_shape ];
  Alcotest.(check bool)
    "serve cold sources differ from the warm set" false
    (fst (Serve.cold_case ~seed:3 ~client:0 1) = fst (Serve.warm_case ~seed:3 1))

let outcome (o : Machine.outcome) = (o.Machine.output, o.Machine.exit_code)

(* Every generated program is well-formed IL and behaves the same on
   both engines, before and after inlining. *)
let generated_programs_check () =
  List.iter
    (fun (shape, seed) ->
      for i = 0 to 3 do
        let source, input = Gen.case shape ~seed i in
        let prog = Impact_il.Lower.lower_source source in
        let both p =
          Alcotest.(check (result unit (list string))) "Il_check" (Ok ())
            (Impact_il.Il_check.check p);
          let t = outcome (Machine.run ~engine:Machine.Threaded p ~input) in
          Alcotest.(check (pair string int))
            "threaded = reference" t
            (outcome (Machine.run ~engine:Machine.Reference p ~input));
          t
        in
        let before = both prog in
        let r =
          Pipeline.run_source ~config:Batch.compile_opts.Batch.config
            ~post_cleanup:true ~source ~inputs:[ input ] ()
        in
        Alcotest.(check (pair string int))
          "inlining preserves output" before
          (both r.Pipeline.inliner.Inliner.program);
        Alcotest.(check bool) "some call site is expanded" true
          (r.Pipeline.inliner.Inliner.expansion.Impact_core.Expand.expansions <> [])
      done)
    [ (Gen.compile_shape, 1); (Gen.serve_shape, 2) ]

let serve_mix () =
  for client = 0 to 1 do
    let next = Serve.stream ~seed:5 ~client in
    let warm = ref 0 and cold = ref 0 and profile = ref 0 in
    for _ = 1 to 500 do
      match next () with
      | Serve.Warm i ->
        assert (i >= 0 && i < Serve.warm_count);
        incr warm
      | Serve.Cold -> incr cold
      | Serve.Profile _ -> incr profile
    done;
    Alcotest.(check (list int)) "500 requests: 300 warm, 100 cold, 100 profile"
      [ 300; 100; 100 ] [ !warm; !cold; !profile ]
  done

let fingerprint (r : Pipeline.result) =
  ( Batch.fingerprint r,
    Impact_profile.Profile_io.program_checksum r.Pipeline.inliner.Inliner.program )

(* The traced pipeline does what [Pipeline.run] does. *)
let staged_matches_pipeline () =
  let cases = Batch.compile_cases ~seed:4 ~count:2 () in
  Array.iter
    (fun (c : Batch.case) ->
      let o = Batch.compile_opts in
      let staged =
        Staged.run ~trace:(Trace.create ()) ~config:o.Batch.config
          ~post_cleanup:o.Batch.post_cleanup ~name:c.Batch.name ~source:c.Batch.source
          ~inputs:c.Batch.inputs ()
      in
      Alcotest.(check bool) "same Table 4 figures and inlined program" true
        (fingerprint staged.Staged.result = fingerprint (Batch.pipeline o c)))
    cases;
  let b = Impact_bench_progs.Suite.find "cmp" in
  let inputs = b.Impact_bench_progs.Benchmark.inputs () in
  let source = b.Impact_bench_progs.Benchmark.source in
  let staged = Staged.run ~jobs:2 ~name:"cmp" ~source ~inputs () in
  Alcotest.(check bool) "suite program: same result as Pipeline.run" true
    (fingerprint staged.Staged.result = fingerprint (Pipeline.run b))

(* Two runs with one seed give identical counts. *)
let counts_repeat () =
  let counts seed =
    Batch.compile_cases ~seed ~count:3 ()
    |> Array.map (fun (c : Batch.case) ->
           let s =
             Staged.run ~config:Batch.compile_opts.Batch.config ~post_cleanup:true
               ~name:c.Batch.name ~source:c.Batch.source ~inputs:c.Batch.inputs ()
           in
           (Batch.counts_of s, Outcome.table4 [ s.Staged.result ]))
  in
  Alcotest.(check bool) "same seed, same counts" true (counts 8 = counts 8);
  Alcotest.(check bool) "another seed, other counts" false (counts 8 = counts 9)

(* BENCHMARK.json names exactly the metrics main.exe prints. *)
let benchmark_json_names () =
  let j = Sink.json_of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let names key =
    match Sink.mem key j with
    | Sink.List l ->
      List.map
        (fun m ->
          match (Sink.mem "name" m, Sink.mem "unit" m) with
          | Sink.String n, Sink.String u -> (n, u)
          | _ -> Alcotest.fail "metric without name or unit")
        l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Outcome.end_to_end (names "end_to_end");
  Alcotest.check pairs "per_layer" Outcome.per_layer (names "per_layer");
  let workloads =
    match Sink.mem "workloads" j with
    | Sink.List l -> List.map (fun w -> Sink.mem "name" w) l
    | _ -> []
  in
  Alcotest.(check bool) "workloads" true
    (workloads = [ Sink.String "suite"; Sink.String "compile"; Sink.String "serve" ])

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile selection" `Quick tail_selection;
          Alcotest.test_case "generator is deterministic per seed" `Quick
            generator_deterministic;
          Alcotest.test_case "generated programs check and agree on both engines"
            `Quick generated_programs_check;
          Alcotest.test_case "serve request mix counts" `Quick serve_mix;
          Alcotest.test_case "staged pipeline matches Pipeline.run" `Quick
            staged_matches_pipeline;
          Alcotest.test_case "counts repeat for one seed" `Quick counts_repeat;
          Alcotest.test_case "BENCHMARK.json metric names" `Quick benchmark_json_names;
        ] );
    ]
