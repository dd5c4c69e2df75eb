(* The engine-facing half of minimum-coverage profiling.

   A plan tells both interpreter engines which call-site counters to
   maintain during a run.  It lives below the profile layer (which
   builds plans and runs the flow inference afterwards) because the
   engines must consume it and [lib/profile] already depends on
   [lib/interp].

   The arrays are immutable after construction and indexed by site id,
   so a single plan is safely shared read-only by every pool domain
   profiling the same program.  [poisoned] is the one mutable cell: an
   engine sets it when an indirect call lands on a function whose
   incoming arc the plan elided — a target the plan's static
   address-taken analysis did not predict (only reachable by fabricating
   a function address as an integer).  Flow inference is no longer exact
   for such a run, so the profiling driver detects the flag and redoes
   the sweep fully instrumented. *)

type t = {
  site_counted : bool array;
      (** per site id: store into the per-site count array *)
  site_scalar : bool array;
      (** per site id: bump the run-level calls / ext-calls scalars *)
  ind_ok : bool array;
      (** per fid: safe as an indirect-call target (no elided in-arc) *)
  poisoned : bool Atomic.t;
      (** set by an engine when an indirect call reaches a fid with
          [ind_ok] false; the driver must re-profile fully instrumented *)
}

let create ~nsites ~nfuncs =
  {
    site_counted = Array.make (max nsites 1) true;
    site_scalar = Array.make (max nsites 1) true;
    ind_ok = Array.make (max nfuncs 1) true;
    poisoned = Atomic.make false;
  }

let poisoned t = Atomic.get t.poisoned
