(* A small domain pool for embarrassingly-parallel maps.

   No Domainslib: each map runs its worker loop on [jobs - 1] other
   domains and on the calling domain, and an atomic cursor hands out
   indices.  The other domains are parked helpers, lent for one map and
   parked again when their loop ends; a one-off domain is spawned only
   when no helper is idle (see "Parked helpers" below).  Results
   land in a pre-sized array slot per index, so the output order is the
   input order no matter which domain ran which item — parallel and
   sequential maps are indistinguishable to the caller.

   Oversubscription discipline: on a machine with fewer cores than the
   requested [jobs], extra domains cannot run in parallel — they
   time-slice one core while every minor collection stops the world
   across all of them, which made jobs=4 profiling measurably *slower*
   than jobs=1 (the PR 6 flight recorder quantified it).  Maps therefore
   clamp the domain count to [Domain.recommended_domain_count] by
   default; [~clamp:false] restores the literal count for tests and
   diagnostics that want the oversubscribed behaviour on purpose.

   Telemetry: [?probe] observes one {!task_sample} per completed item —
   queue wait, run time and GC deltas ([Gc.quick_stat] before/after on
   the running domain) — so a flight recorder (see [Impact_obs.Flight])
   can reconstruct per-domain utilisation without the pool depending on
   the observability layer.  The probe runs on the worker domain that
   executed the item and must be thread-safe; without a probe the per-
   item overhead is one physical-equality check.

   Failure discipline:
   - [map_array] is fail-fast: exceptions are captured per index, workers
     stop picking up new work once any item has failed, and after all
     domains join the exception of the lowest failed index is re-raised
     (independent of scheduling).
   - [map_array_results] never fails fast: every item yields an
     [(_, exn) result], optionally after one same-domain retry, so a
     degrading caller can keep the survivors and report the casualties.
   - A failure during *submission* (a [Domain.spawn] that raises, or an
     injected [Pool_worker_start] fault) stops the cursor, joins every
     domain already started (lent or spawned), and re-raises — the
     remaining queue is drained, never leaked.
   - An exception escaping a worker *body* (outside per-item capture,
     e.g. an injected [Pool_worker_finish] fault) is stowed in a
     compare-and-set slot and re-raised only after every domain has
     joined, so no join is ever skipped.

   [f] must be safe to call from any domain and must not share unguarded
   mutable state across items. *)

type 'a cell = Empty | Value of 'a | Error of exn

type task_sample = {
  ts_index : int;
  ts_domain : int;
  ts_queue_ms : float;
  ts_run_ms : float;
  ts_minor_collections : int;
  ts_major_collections : int;
  ts_promoted_words : float;
  ts_minor_words : float;
}

type probe = task_sample -> unit

let default_jobs () = Domain.recommended_domain_count ()

let effective_jobs ~clamp jobs =
  if clamp then min jobs (max 1 (Domain.recommended_domain_count ())) else jobs

(* Run [g ()] as item [i]'s body and hand the probe one sample on
   success.  [t0] is the map's start instant, so queue wait is the gap
   between submission and this domain picking the item up.  A failing
   item yields no sample: its timing would measure the raise path, and
   the error already surfaces through the map's failure discipline. *)
let observed ~probe ~t0 i g =
  match probe with
  | None -> g ()
  | Some p ->
    let s0 = Unix.gettimeofday () in
    let g0 = Gc.quick_stat () in
    let v = g () in
    let g1 = Gc.quick_stat () in
    let s1 = Unix.gettimeofday () in
    p
      {
        ts_index = i;
        ts_domain = (Domain.self () :> int);
        ts_queue_ms = (s0 -. t0) *. 1000.;
        ts_run_ms = (s1 -. s0) *. 1000.;
        ts_minor_collections =
          g1.Gc.minor_collections - g0.Gc.minor_collections;
        ts_major_collections =
          g1.Gc.major_collections - g0.Gc.major_collections;
        ts_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        ts_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      };
    v

(* ------------------------------------------------------------------ *)
(* Parked helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Spawning and joining a domain costs milliseconds, and a fresh domain
   starts without the per-domain interpreter image, while a profiling
   suite maps twice per program.  So up to
   [recommended_domain_count - 1] helper domains are kept for the life
   of the process, parked on their own condition between maps.  A map
   borrows an idle helper by handing it the loop to run; with no helper
   idle (nested maps, or [~clamp:false] beyond the machine's domains) it
   spawns a one-off domain.  A lent helper is idle when lent, so its
   loop starts at once: a map never waits on a loop that has not
   started, and nested maps cannot deadlock. *)

(* Signalled when a lent loop has finished: joining a lent helper. *)
type latch = { l_mu : Mutex.t; l_cv : Condition.t; mutable l_done : bool }

type helper = {
  h_mu : Mutex.t;
  h_cv : Condition.t;
  mutable h_job : ((unit -> unit) * latch) option;
}

(* Both under [helpers_mu]. *)
let helpers_mu = Mutex.create ()

let idle : helper list ref = ref []

let nhelpers = ref 0

let await l =
  Mutex.lock l.l_mu;
  while not l.l_done do
    Condition.wait l.l_cv l.l_mu
  done;
  Mutex.unlock l.l_mu

let rec helper_loop h =
  Mutex.lock h.h_mu;
  while h.h_job = None do
    Condition.wait h.h_cv h.h_mu
  done;
  let body, l = Option.get h.h_job in
  h.h_job <- None;
  Mutex.unlock h.h_mu;
  body ();
  (* Park before signalling, so the map that lent this helper finds it
     idle again once it returns. *)
  Mutex.protect helpers_mu (fun () -> idle := h :: !idle);
  Mutex.protect l.l_mu (fun () ->
      l.l_done <- true;
      Condition.signal l.l_cv);
  helper_loop h

type started = Lent of latch | Spawned of unit Domain.t

let join = function Lent l -> await l | Spawned d -> Domain.join d

(* Run [body] (which must not raise) on another domain: an idle helper,
   else a new helper while there are fewer than the cap, else a one-off
   domain. *)
let start body =
  let cap = Domain.recommended_domain_count () - 1 in
  let lend =
    Mutex.protect helpers_mu (fun () ->
        match !idle with
        | h :: rest ->
          idle := rest;
          Some (h, false)
        | [] when !nhelpers < cap ->
          incr nhelpers;
          Some
            ( { h_mu = Mutex.create (); h_cv = Condition.create (); h_job = None },
              true )
        | [] -> None)
  in
  match lend with
  | None -> Spawned (Domain.spawn body)
  | Some (h, fresh) ->
    let l = { l_mu = Mutex.create (); l_cv = Condition.create (); l_done = false } in
    Mutex.protect h.h_mu (fun () ->
        h.h_job <- Some (body, l);
        Condition.signal h.h_cv);
    (if fresh then
       try ignore (Domain.spawn (fun () -> helper_loop h))
       with e ->
         Mutex.protect helpers_mu (fun () -> decr nhelpers);
         raise e);
    Lent l

(* Start [jobs - 1] copies of [worker], run one on the calling domain,
   join them all, then re-raise any exception that escaped a worker
   body.  [quit] is the shared stop flag item loops poll. *)
let parallel_run ~jobs ~quit worker =
  let escaped : exn option Atomic.t = Atomic.make None in
  let wrapped () =
    match
      worker ();
      Fault.hit Fault.Pool_worker_finish
    with
    | () -> ()
    | exception e ->
      Atomic.set quit true;
      ignore (Atomic.compare_and_set escaped None (Some e))
  in
  let started = ref [] in
  (try
     for _ = 1 to jobs - 1 do
       Fault.hit Fault.Pool_worker_start;
       started := start wrapped :: !started
     done
   with e ->
     (* Submission failed: stop handing out work, drain by joining what
        was already started, then re-raise deterministically. *)
     Atomic.set quit true;
     List.iter join !started;
     raise e);
  wrapped ();
  List.iter join !started;
  match Atomic.get escaped with Some e -> raise e | None -> ()

let map_array ?(jobs = 1) ?(clamp = true) ?probe (f : 'a -> 'b)
    (items : 'a array) : 'b array =
  let n = Array.length items in
  let jobs = max 1 (min (effective_jobs ~clamp jobs) n) in
  let t0 = match probe with None -> 0. | Some _ -> Unix.gettimeofday () in
  if jobs = 1 then begin
    Fault.hit Fault.Pool_worker_start;
    let r = Array.mapi (fun i x -> observed ~probe ~t0 i (fun () -> f x)) items in
    Fault.hit Fault.Pool_worker_finish;
    r
  end
  else begin
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let quit = Atomic.make false in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get quit then continue := false
        else
          match observed ~probe ~t0 i (fun () -> f items.(i)) with
          | v -> results.(i) <- Value v
          | exception e ->
            results.(i) <- Error e;
            Atomic.set quit true
      done
    in
    parallel_run ~jobs ~quit worker;
    (* Deterministic error: re-raise for the lowest failed index. *)
    Array.iter (function Error e -> raise e | _ -> ()) results;
    Array.map
      (function
        | Value v -> v
        | Empty | Error _ ->
          (* Unreached: every index below the cursor holds a value once
             no item failed, and the cursor passed n. *)
          assert false)
      results
  end

let map_array_results ?(jobs = 1) ?(clamp = true) ?probe ?(retry = false)
    ?on_retry (f : 'a -> 'b) (items : 'a array) : ('b, exn) result array =
  let n = Array.length items in
  let jobs = max 1 (min (effective_jobs ~clamp jobs) n) in
  let t0 = match probe with None -> 0. | Some _ -> Unix.gettimeofday () in
  let attempt i x =
    match f x with
    | v -> Ok v
    | exception e ->
      if retry then begin
        (match on_retry with Some g -> g i e | None -> ());
        match f x with v -> Ok v | exception e2 -> Stdlib.Error e2
      end
      else Stdlib.Error e
  in
  (* The sample spans the whole attempt, retry included: that is the
     time the item actually occupied its domain. *)
  let attempt i x = observed ~probe ~t0 i (fun () -> attempt i x) in
  if jobs = 1 then begin
    Fault.hit Fault.Pool_worker_start;
    let r = Array.mapi attempt items in
    Fault.hit Fault.Pool_worker_finish;
    r
  end
  else begin
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let quit = Atomic.make false in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get quit then continue := false
        else results.(i) <- Value (attempt i items.(i))
      done
    in
    parallel_run ~jobs ~quit worker;
    Array.map
      (function
        | Value r -> r
        | Empty | Error _ ->
          (* Unreached: results-mode workers only stop early when a
             worker body escaped, and that re-raises in parallel_run. *)
          assert false)
      results
  end

(* ------------------------------------------------------------------ *)
(* Persistent executor service                                         *)
(* ------------------------------------------------------------------ *)

(* The maps above serve one call at a time and block their caller until
   it is done — right for batch suites, wrong for a daemon that must
   absorb a stream of independent requests from many threads.  [Service]
   keeps a fixed set of worker domains alive behind a mutex/condition
   work queue; {!submit} blocks the calling (sys)thread until its job
   has run on some worker and returns the job's outcome as a result.
   Blocking is deliberate: the caller is a connection handler thread
   that has nothing else to do, and the returned result keeps the
   daemon's failure discipline exception-free.

   Shutdown drains: jobs already accepted run to completion, new submits
   are refused with {!Service.Stopped}, and [shutdown] returns only
   after every worker domain has joined. *)

module Service = struct
  exception Stopped

  type t = {
    mu : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable pending : int;  (* jobs queued or running *)
    mutable workers : unit Domain.t list;
    ndomains : int;
  }

  type 'a ticket = {
    tk_mu : Mutex.t;
    tk_done : Condition.t;
    mutable tk_result : ('a, exn) result option;
  }

  let rec worker_loop t =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mu;
      job ();
      worker_loop t
    end

  let create ?domains () =
    let ndomains =
      match domains with
      | Some n -> max 1 n
      | None -> max 1 (Domain.recommended_domain_count ())
    in
    let t =
      {
        mu = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        pending = 0;
        workers = [];
        ndomains;
      }
    in
    t.workers <-
      List.init ndomains (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  let domains t = t.ndomains

  let pending t = Mutex.protect t.mu (fun () -> t.pending)

  let submit t f =
    let tk =
      { tk_mu = Mutex.create (); tk_done = Condition.create (); tk_result = None }
    in
    let job () =
      (* The job body never lets an exception escape into the worker
         loop: the outcome — value or exception — travels back to the
         submitter through the ticket. *)
      let r = match f () with v -> Ok v | exception e -> Stdlib.Error e in
      Mutex.protect t.mu (fun () -> t.pending <- t.pending - 1);
      Mutex.protect tk.tk_mu (fun () ->
          tk.tk_result <- Some r;
          Condition.signal tk.tk_done)
    in
    let accepted =
      Mutex.protect t.mu (fun () ->
          if t.stopping then false
          else begin
            Queue.push job t.queue;
            t.pending <- t.pending + 1;
            Condition.signal t.nonempty;
            true
          end)
    in
    if not accepted then Stdlib.Error Stopped
    else begin
      Mutex.lock tk.tk_mu;
      while tk.tk_result = None do
        Condition.wait tk.tk_done tk.tk_mu
      done;
      let r = Option.get tk.tk_result in
      Mutex.unlock tk.tk_mu;
      r
    end

  let shutdown t =
    let workers =
      Mutex.protect t.mu (fun () ->
          if t.stopping then []
          else begin
            t.stopping <- true;
            Condition.broadcast t.nonempty;
            let w = t.workers in
            t.workers <- [];
            w
          end)
    in
    List.iter Domain.join workers
end

let map_list ?jobs ?clamp ?probe f items =
  Array.to_list (map_array ?jobs ?clamp ?probe f (Array.of_list items))

let map_list_results ?jobs ?clamp ?probe ?retry ?on_retry f items =
  Array.to_list
    (map_array_results ?jobs ?clamp ?probe ?retry ?on_retry f
       (Array.of_list items))
