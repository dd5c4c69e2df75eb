(* What one run of a workload reports, and the metric names it must
   report them under.  BENCHMARK.json lists the same names; a test
   holds the two together. *)

type t = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * Impact_obs.Sink.json) list;  (** printed, not gated *)
}

(* (name, unit) of every end-to-end metric, reported by every workload
   when tracing is off. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_ms_p50", "ms");
    ("op_ms_tail", "ms");
    ("ops_per_s", "1/s");
    ("ok_frac", "ratio");
    ("peak_rss_mb", "MiB");
    ("dyn_call_decrease_pct", "%");
    ("code_growth_pct", "%");
    ("post_dyn_ils", "count");
  ]

(* (name, unit) of every per-layer metric, reported by every workload
   when tracing is on; a layer the workload does not run reads 0. *)
let per_layer =
  [
    ("cfront.parse_ms", "ms");
    ("cfront.sema_ms", "ms");
    ("cfront.tokens", "count");
    ("cfront.minor_mwords", "Mwords");
    ("il.lower_ms", "ms");
    ("il.size_lowered", "count");
    ("il.check_ms", "ms");
    ("opt.pre_inline_ms", "ms");
    ("opt.pre_inline_rewrites", "count");
    ("opt.devirt_ms", "ms");
    ("opt.devirt_sites", "count");
    ("opt.cleanup_ms", "ms");
    ("opt.cleanup_rewrites", "count");
    ("callgraph.build_ms", "ms");
    ("callgraph.arcs", "count");
    ("core.classify_ms", "ms");
    ("core.linearize_ms", "ms");
    ("core.select_ms", "ms");
    ("core.expand_ms", "ms");
    ("core.sites_expanded", "count");
    ("core.size_after", "count");
    ("core.minor_mwords", "Mwords");
    ("profile.profile_ms", "ms");
    ("profile.reprofile_ms", "ms");
    ("profile.runs", "count");
    ("profile.counted_sites", "count");
    ("profile.minor_mwords", "Mwords");
    ("interp.ns_per_il", "ns");
    ("interp.dyn_ils", "count");
    ("interp.setup_us", "us");
    ("interp.first_run_ms", "ms");
    ("interp.warm_run_ms", "ms");
    ("interp.minor_mwords", "Mwords");
    ("pool.queue_ms", "ms");
    ("pool.run_ms", "ms");
    ("cache.find_ms", "ms");
    ("cache.put_ms", "ms");
    ("cache.entry_kb", "KiB");
    ("cache.hit_rate", "ratio");
    ("cache.hits", "count");
    ("cache.stores", "count");
    ("serve.queue_ms", "ms");
    ("serve.run_ms", "ms");
    ("serve.rejected", "count");
    ("serve.rtt_overhead_ms", "ms");
    ("harness.keys_ms", "ms");
    ("harness.unattributed_ms", "ms");
    ("obs.trace_overhead_pct", "%");
    ("layers.runtime_pct", "%");
    ("layers.compiler_pct", "%");
  ]

(* Table 4 over a fixed set of pipeline results: mean dynamic call
   decrease and code growth (percent) and the dynamic ILs the inlined
   programs executed over all their runs. *)
let table4 (rs : Impact_harness.Pipeline.result list) =
  let module P = Impact_harness.Pipeline in
  let mean f = Measure.mean (List.map f rs) in
  [
    ("dyn_call_decrease_pct", mean P.call_decrease);
    ("code_growth_pct", mean P.code_increase);
    ( "post_dyn_ils",
      List.fold_left
        (fun acc (r : P.result) ->
          acc
          +. Float.round
               (r.P.post_profile.Impact_profile.Profile.avg_ils
               *. float_of_int r.P.nruns))
        0. rs );
  ]

(* The common end-to-end figures of a run of timed operations, times
   scaled by the run's calibration (raw figures go to the info line). *)
let timing ~calib ~setup_s ~ops_ms ~elapsed_s ~tail_cap ~attempted ~failed =
  let f = Measure.Calib.factor calib in
  let p, tail = Measure.tail ~cap:tail_cap ops_ms in
  let n = List.length ops_ms in
  let p50 = Measure.median ops_ms and rate = float_of_int n /. elapsed_s in
  let module S = Impact_obs.Sink in
  ( [
      ("setup_s", setup_s *. f);
      ("op_ms_p50", p50 *. f);
      ("op_ms_tail", tail *. f);
      ("ops_per_s", rate /. f);
      ( "ok_frac",
        float_of_int (attempted - failed) /. float_of_int (max 1 attempted) );
      ("peak_rss_mb", Measure.peak_rss_mb ());
    ],
    [
      ( "tail",
        S.Obj
          [
            ("percentile", S.Float p);
            ("samples", S.Int n);
            ("beyond", S.Int (Measure.beyond p n));
          ] );
      ( "raw",
        S.Obj
          [
            ("setup_s", S.Float setup_s);
            ("op_ms_p50", S.Float p50);
            ("op_ms_tail", S.Float tail);
            ("ops_per_s", S.Float rate);
          ] );
      ( "calibration",
        S.Obj
          [
            ("kernel_ms", S.Float (Measure.Calib.kernel_ms calib));
            ("reference_ms", S.Float Measure.Calib.reference_ms);
            ("samples", S.Int (List.length calib.Measure.Calib.samples));
          ] );
      ("elapsed_s", S.Float elapsed_s);
    ] )

(* [repeat_setup calib n f] runs [f] [n] times, each after a
   calibration sample; the median time in seconds and the last result. *)
let repeat_setup calib n f =
  let rec go i times last =
    if i = n then (Measure.median times, Option.get last)
    else begin
      Measure.Calib.sample calib;
      let v, ms = Measure.time f in
      go (i + 1) ((ms /. 1000.) :: times) (Some v)
    end
  in
  go 0 [] None
