(** Running a program over its input set to collect a profile.

    This is the IMPACT-I "Profiler to C Compiler interface": the same
    interpreter that measures final results also produces the node/arc
    weights that drive inline expansion. *)

(** What the run's instrumentation actually covered.  Under [Min] the
    elided counts were reconstructed exactly ({!Inference}).
    [effective] differs from [requested] only when a [Min]
    plan was poisoned by a fabricated indirect-call target and the
    sweep was transparently redone fully instrumented. *)
type coverage = {
  requested : Coverage.mode;
  effective : Coverage.mode;
  total_sites : int;  (** call sites in alive code *)
  counted_sites : int;  (** sites the engines actually counted *)
}

(** The outcome of profiling: the averaged profile plus each run's raw
    result, so callers can also check outputs or aggregate differently.
    [failures] is empty except in tolerant mode, where it records the
    input indices whose runs failed even after one retry.

    Under [Min] the per-run [runs] counters are the raw (partially
    uncounted) measurements; only the averaged
    [profile] has been through inference. *)
type result = {
  profile : Profile.t;
  runs : Impact_interp.Machine.outcome list;
  failures : (int * exn) list;
  coverage : coverage;
}

(** [profile ?budget ?fuel ?obs ?engine ?jobs ?keep_outputs ?tolerant
    ?mode prog ~inputs] runs [prog] once per input and averages.  [obs]
    is handed to every {!Impact_interp.Machine.run} so run-level
    counters flow through the (mutex-protected) sink.

    @param budget per-run wall-clock deadline / output watermark,
      forwarded to every run ({!Impact_interp.Rt.budget}); with fuel it
      makes every run finite, so a hung run cannot wedge a worker
    @param engine interpreter core, forwarded to every run
    @param jobs when > 1, runs execute on that many OCaml domains
      ({!Impact_support.Pool}); results keep input order, so the profile
      is identical for any job count (default 1)
    @param clamp forwarded to the pool: by default the domain count is
      clamped to the machine's recommended count; [~clamp:false] runs
      the literal [jobs] (diagnostics only)
    @param probe forwarded to the pool: observes one
      {!Impact_support.Pool.task_sample} per completed run — see
      {!Impact_obs.Flight}
    @param keep_outputs when false, each run's [output] text is dropped
      (the MD5 [output_digest] survives), so profiling over many inputs
      does not hold every output buffer live (default true)
    @param tolerant when true, a failing run is retried once
      (deterministically, on the same domain; [?on_retry] observes the
      first failure) and, if it fails again, dropped from the average
      and recorded in [failures] instead of raised — the profile is
      built from the surviving runs.  Default false: fail fast with the
      lowest failing input's exception, [failures] always empty.
    @param mode instrumentation mode (default {!Coverage.Full}).  [Min]
      builds one minimum-coverage plan per call — shared read-only
      across the pool domains — counts only the co-forest arcs, and
      reconstructs the rest exactly; the resulting profile is
      bit-identical to [Full].
    @raise Invalid_argument if [inputs] is empty.
    @raise Impact_interp.Machine.Trap if a run traps (non-tolerant), or
      if every run fails (tolerant: the first input's error). *)
val profile :
  ?budget:Impact_interp.Rt.budget ->
  ?fuel:int ->
  ?obs:Impact_obs.Obs.t ->
  ?engine:Impact_interp.Machine.engine ->
  ?jobs:int ->
  ?clamp:bool ->
  ?probe:Impact_support.Pool.probe ->
  ?keep_outputs:bool ->
  ?tolerant:bool ->
  ?on_retry:(int -> exn -> unit) ->
  ?mode:Coverage.mode ->
  Impact_il.Il.program ->
  inputs:string list ->
  result
