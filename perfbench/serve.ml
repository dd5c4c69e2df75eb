(* The [serve] workload: an in-process [impactd] server with a shared
   stage cache, driven as a closed loop from two client connections,
   each sending its next request only once the previous one is
   answered.

   Requests come in blocks of five, in a seeded order within each
   block: three warm compiles (a source of the warm set, filled during
   set-up, so the server answers from its cache), one cold compile (a
   fresh generated source: the full pipeline runs and its stages are
   stored) and one profile request (a warm-set source; profiling does
   not use the cache).

   Checks: every response is ok; a warm compile or profile response is
   byte-identical to the cold one recorded for its source during
   set-up; a cold compile reports matching outputs and no recovery; and
   the Table 4 figures in the warm set's responses and in each client's
   first [checked_cold] cold responses equal those of the in-process
   pipeline on the same sources.  Table 4 is reported over that fixed
   set. *)

module Server = Impact_serve.Server
module Client = Impact_serve.Client
module Protocol = Impact_serve.Protocol
module Cache = Impact_harness.Cache
module Pipeline = Impact_harness.Pipeline
module Sink = Impact_obs.Sink
module Rng = Impact_support.Rng

let clients = 2
let warm_count = 8

type kind = Warm of int | Cold | Profile of int

(* The request stream of one client: blocks of three warm, one cold and
   one profile request, shuffled within each block. *)
let stream ~seed ~client =
  let rng = Rng.create ((seed * 104_729) + client) in
  let block = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !block then begin
      let pick () = Rng.int rng warm_count in
      let b = [| Warm (pick ()); Warm (pick ()); Warm (pick ()); Cold; Profile (pick ()) |] in
      Rng.shuffle rng b;
      block := b;
      pos := 0
    end;
    let k = !block.(!pos) in
    incr pos;
    k

(* Cold sources never repeat within a run: each client draws from its
   own range of case indices, above the warm set's. *)
let cold_case ~seed ~client j = Gen.case Gen.serve_shape ~seed (warm_count + (client * 100_000) + j)
let warm_case ~seed i = Gen.case Gen.serve_shape ~seed i

let job (source, input) = { Protocol.default_job with Protocol.j_source = source; j_inputs = [ input ] }

type server = {
  srv : Server.t;
  conns : Client.t array;
  dir : string;
  warm_compile : string array;  (** cold response per warm source *)
  warm_profile : string array;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let stop s =
  Array.iter Client.close s.conns;
  Server.stop s.srv;
  rm_rf s.dir

let ok_string = function Ok j -> Some (Sink.json_to_string j) | Error _ -> None

(* Set-up: a fresh cache, the server, the connections, and the warm set
   compiled once (cold) and profiled once, their responses recorded. *)
let start ~seed ~scratch =
  let dir = Filename.concat scratch "serve-cache" in
  rm_rf dir;
  let cfg = Server.default_config ~socket_path:(Filename.concat scratch "s.sock") in
  let srv = Server.start { cfg with Server.cache = Some (Cache.create dir) } in
  let conns = Array.init clients (fun _ -> Client.connect (Server.socket_path srv)) in
  let record mk =
    Array.init warm_count (fun i ->
        match ok_string (Client.request conns.(0) (mk (job (warm_case ~seed i)))) with
        | Some s -> s
        | None -> failwith "serve: warm-set request failed during set-up")
  in
  let warm_compile = record (fun j -> Protocol.Compile j) in
  let warm_profile = record (fun j -> Protocol.Profile j) in
  { srv; conns; dir; warm_compile; warm_profile }

let cold_ok = function
  | Ok j ->
    Sink.mem "outputs_match" j = Sink.Bool true && Sink.mem "degradations" j = Sink.List []
  | Error _ -> false


type sample = { rtt_ms : float; t0 : float; t1 : float }

(* Cold compiles per client whose responses are kept and compared with
   the in-process pipeline after the run; with the warm set they are
   the fixed set Table 4 is computed over. *)
let checked_cold = 32

(* One client's state across the window's segments. *)
type client = {
  id : int;
  next : unit -> kind;
  mutable cold : int;
  mutable samples : sample list;
  mutable bad : int;
  mutable kept : ((string * string) * string) list;
}

(* The window is cut into this many segments; between two, both
   clients are idle and [between] runs (the calibration samples). *)
let segments = 10

(* Both clients' closed loops for [seconds] in all.  Returns every
   request's sample, the number of failed checks, the kept responses as
   ((source, input), response) pairs, and the time the clients ran. *)
let drive s ~seed ~seconds ~between =
  let warm = Array.init warm_count (fun i -> job (warm_case ~seed i)) in
  let loop c deadline () =
    while Measure.now () < deadline do
      let request, check =
        match c.next () with
        | Warm i ->
          (Protocol.Compile warm.(i), fun r -> ok_string r = Some s.warm_compile.(i))
        | Profile i ->
          (Protocol.Profile warm.(i), fun r -> ok_string r = Some s.warm_profile.(i))
        | Cold ->
          c.cold <- c.cold + 1;
          let case = cold_case ~seed ~client:c.id c.cold in
          let keep = c.cold <= checked_cold in
          ( Protocol.Compile (job case),
            fun r ->
              (if keep then
                 match ok_string r with
                 | Some resp -> c.kept <- (case, resp) :: c.kept
                 | None -> ());
              cold_ok r )
      in
      let t0 = Measure.now () in
      let ok =
        match Client.request s.conns.(c.id) request with
        | r -> check r
        | exception _ -> false
      in
      let t1 = Measure.now () in
      c.samples <- { rtt_ms = (t1 -. t0) *. 1000.; t0; t1 } :: c.samples;
      if not ok then c.bad <- c.bad + 1
    done
  in
  let cs =
    Array.init clients (fun id ->
        { id; next = stream ~seed ~client:id; cold = 0; samples = []; bad = 0; kept = [] })
  in
  let ran = ref 0. in
  for _ = 1 to segments do
    let t0 = Measure.now () in
    let deadline = t0 +. (seconds /. float_of_int segments) in
    let threads = Array.map (fun c -> Thread.create (loop c deadline) ()) cs in
    Array.iter Thread.join threads;
    ran := !ran +. (Measure.now () -. t0);
    between ()
  done;
  let all f = Array.fold_left (fun acc c -> f c @ acc) [] cs in
  let warm_kept = List.init warm_count (fun i -> (warm_case ~seed i, s.warm_compile.(i))) in
  ( all (fun c -> c.samples),
    Array.fold_left (fun acc c -> acc + c.bad) 0 cs,
    warm_kept @ List.sort compare (all (fun c -> c.kept)),
    !ran )

(* The kept sources through the in-process pipeline: Table 4, and the
   number of responses that do not report the same figures — or of
   kept responses missing because a client sent fewer than
   [checked_cold] cold requests. *)
let local_table4 kept =
  let num j k = match Sink.mem k j with Sink.Float f -> f | Sink.Int i -> float_of_int i | _ -> nan in
  let results =
    List.map
      (fun ((source, input), resp) ->
        let r = Pipeline.run_source ~source ~inputs:[ input ] () in
        let j = Sink.json_of_string resp in
        ( r,
          num j "code_increase_pct" = Pipeline.code_increase r
          && num j "call_decrease_pct" = Pipeline.call_decrease r ))
      kept
  in
  let missing = warm_count + (clients * checked_cold) - List.length kept in
  ( List.map fst results,
    missing + List.length (List.filter (fun (_, agree) -> not agree) results) )

(* Calibration samples taken before the window and after each segment,
   while the clients are idle: a kernel run beside the requests would
   compete with the server for the cores. *)
let calib_samples = 8

let run_untraced ~seed ~seconds ~scratch =
  let calib = Measure.Calib.create () in
  let setup_s, s =
    Outcome.repeat_setup calib 5
      (let last = ref None in
       fun () ->
         Option.iter stop !last;
         let s = start ~seed ~scratch in
         last := Some s;
         s)
  in
  let calibrate () =
    for _ = 1 to calib_samples do
      Measure.Calib.sample calib
    done
  in
  calibrate ();
  let samples, failed, kept, elapsed_s = drive s ~seed ~seconds ~between:calibrate in
  stop s;
  let rs, disagree = local_table4 kept in
  let attempted = List.length samples + warm_count in
  let failed = failed + disagree in
  let timing, info =
    Outcome.timing ~calib ~setup_s ~ops_ms:(List.map (fun x -> x.rtt_ms) samples) ~elapsed_s
      ~tail_cap:99. ~attempted ~failed
  in
  { Outcome.attempted; failed; metrics = timing @ Outcome.table4 rs; info }

let stats_num path j =
  match List.fold_left (fun j k -> Sink.mem k j) j path with
  | Sink.Int i -> float_of_int i
  | Sink.Float f -> f
  | _ -> nan

let run_traced ~seed ~seconds ~scratch =
  let s = start ~seed ~scratch in
  let before = Server.stats_json s.srv in
  let samples, failed, kept, _ = drive s ~seed ~seconds ~between:ignore in
  let after = Server.stats_json s.srv in
  stop s;
  let trace = Trace.create () in
  List.iteri (fun k x -> Trace.add trace ~op:k "serve.request" ~t0:x.t0 ~t1:x.t1) samples;
  let rs, disagree = local_table4 kept in
  let cache = Cache.create (Filename.concat scratch "cache-probe") in
  let cache_ok =
    List.mapi (fun k r -> Trace.with_op trace ~root:"probe" k (fun () -> Batch.cache_probe trace cache k r)) rs
  in
  let delta path = stats_num path after -. stats_num path before in
  (* The flight recorder keeps the last 4096 requests; before it wraps,
     subtract the set-up requests it already held. *)
  let flight k =
    if stats_num [ "flight"; "recorded" ] after <= stats_num [ "flight"; "tasks" ] after then
      delta [ "flight"; k ]
    else stats_num [ "flight"; k ] after
  in
  let per_task k = flight k /. flight "tasks" in
  let queue_ms = per_task "queue_ms" and run_ms = per_task "run_ms" in
  let rtts = List.map (fun x -> x.rtt_ms) samples in
  let overhead = Measure.mean rtts -. (queue_ms +. run_ms) in
  let lookups = delta [ "cache"; "hits" ] +. delta [ "cache"; "misses" ] in
  let views = List.filter (fun v -> v.Trace.root = "probe") (Trace.views trace) in
  let ms name = Measure.median (List.map (fun v -> Trace.name_ms v name) views) in
  let cstore = Cache.cstore cache in
  let metrics =
    [
      ("cache.find_ms", ms "cache.find");
      ("cache.put_ms", ms "cache.put");
      ( "cache.entry_kb",
        float_of_int (Impact_support.Cstore.total_bytes cstore)
        /. 1024.
        /. float_of_int (max 1 (Impact_support.Cstore.entry_count cstore)) );
      ("cache.hit_rate", delta [ "cache"; "hits" ] /. lookups);
      ("cache.hits", delta [ "cache"; "hits" ]);
      ("cache.stores", delta [ "cache"; "stores" ]);
      ("serve.queue_ms", queue_ms);
      ("serve.run_ms", run_ms);
      ("serve.rejected", stats_num [ "requests"; "rejected" ] after);
      ("serve.rtt_overhead_ms", overhead);
      ("harness.unattributed_ms", overhead);
      (* The clients timestamp every request, traced or not, and hand
         the intervals to the recorder after the run: no span sits on
         the request path, so tracing costs nothing here. *)
      ("obs.trace_overhead_pct", 0.);
    ]
  in
  Trace.write_jsonl trace (Filename.concat scratch "trace.jsonl");
  let bad_probes = List.length (List.filter not cache_ok) in
  {
    Outcome.attempted = List.length samples + warm_count;
    failed = failed + disagree + bad_probes;
    metrics;
    info = [ ("requests", Sink.Int (List.length samples)) ];
  }
