(** Instrumentation plans — which call-site counters an interpreter run
    maintains.

    Minimum-coverage profiling ({!Impact_profile.Coverage}) builds a
    plan that leaves the hottest arcs uncounted; both engines honor it
    (the threaded engine by decoding uncounted sites to no-count closure
    variants, so the check is paid once at decode time), and a flow
    inference pass reconstructs the elided counts exactly afterwards.
    The type lives in [impact_interp] because the engines consume it and
    the profile layer already depends on this library.

    A plan is immutable after construction apart from [poisoned], so one
    plan is shared read-only across every domain of a profiling pool. *)

type t = {
  site_counted : bool array;
      (** per site id: store into the per-site count array *)
  site_scalar : bool array;
      (** per site id: bump the run-level calls / ext-calls scalars *)
  ind_ok : bool array;
      (** per fid: expected as an indirect-call target — no elided
          in-arc, so an indirect hit does not break inference *)
  poisoned : bool Atomic.t;
      (** set by the engines when an indirect call reaches a fid whose
          [ind_ok] is false (an address fabricated from an integer);
          the profiling driver re-runs fully instrumented *)
}

(** [create ~nsites ~nfuncs] is a plan that counts everything:
    all sites counted, all scalars kept, every fid an expected indirect
    target.  Callers clear individual entries to elide arcs. *)
val create : nsites:int -> nfuncs:int -> t

(** [poisoned t] — did any run under this plan take an indirect call the
    plan's inference cannot account for? *)
val poisoned : t -> bool
