(* The content-addressed stage cache, from the store's byte format up to
   the incremental pipeline:

   - store unit behaviour: roundtrip, persistence, key hygiene, LRU
     eviction under a byte budget;
   - the append-only INDEX: recency survives a reopen exactly, torn and
     garbage lines are ignored, compaction bounds the log;
   - on-disk corruption (bit flips, truncation, foreign files) is a
     typed miss that repairs itself, never a failure — even under the
     Strict pipeline policy;
   - a warm pipeline rerun is byte-identical to the cold one and skips
     every stage (the ISSUE's >= 90% criterion, observed through the
     cache hit/miss counters);
   - invalidation is precise: a whitespace-only source change recompiles
     the front end but reuses every later stage (the lowered program's
     checksum is unchanged); flipping one config field reuses the front
     end and the profiles but recomputes classification and selection; a
     semantic source change recomputes everything. *)

module Cstore = Impact_support.Cstore
module Ierr = Impact_support.Ierr
module Cache = Impact_harness.Cache
module Pipeline = Impact_harness.Pipeline
module Report = Impact_harness.Report
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Benchmark = Impact_bench_progs.Benchmark
module Suite = Impact_bench_progs.Suite
module Il_pp = Impact_il.Il_pp
module Obs = Impact_obs.Obs
module Sink = Impact_obs.Sink
module Metrics = Impact_obs.Metrics

let tmp_dir () =
  let path = Filename.temp_file "impact_cache" "" in
  Sys.remove path;
  path

let counter obs name = Metrics.counter_value obs.Obs.metrics name

(* ------------------------------------------------------------------ *)
(* Store unit behaviour                                                *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  Alcotest.(check bool)
    "length-prefixed parts cannot collide" true
    (Cstore.digest_key [ "ab"; "c" ] <> Cstore.digest_key [ "a"; "bc" ]);
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let key = Cstore.digest_key [ "k" ] in
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Miss -> ()
  | _ -> Alcotest.fail "expected a miss on the empty store");
  let payload = "payload\x00with\xffarbitrary bytes" in
  Cstore.store s ~stage:"t" ~key payload;
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Hit p -> Alcotest.(check string) "payload survives" payload p
  | _ -> Alcotest.fail "expected a hit");
  (* A fresh handle over the same directory sees the entry. *)
  let s2 = Cstore.create dir in
  (match Cstore.find s2 ~stage:"t" ~key with
  | Cstore.Hit p -> Alcotest.(check string) "persisted" payload p
  | _ -> Alcotest.fail "entry did not persist across handles");
  (* Same key under another stage tag is a different entry. *)
  match Cstore.find s2 ~stage:"u" ~key with
  | Cstore.Miss -> ()
  | _ -> Alcotest.fail "stage tag leaked across entries"

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ice")
  |> List.sort compare

let clobber path f =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

let test_corruption_is_a_miss () =
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let key = Cstore.digest_key [ "k" ] in
  Cstore.store s ~stage:"t" ~key "the payload";
  let file =
    match entry_files dir with [ f ] -> Filename.concat dir f | _ -> assert false
  in
  (* Bit-flip the last payload byte: digest mismatch. *)
  clobber file (fun c ->
      let b = Bytes.of_string c in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b);
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Corrupt e ->
    Alcotest.(check string) "typed stage" "cache" (Ierr.stage_name e.Ierr.stage)
  | _ -> Alcotest.fail "bit flip not detected");
  Alcotest.(check bool) "entry dropped" true (entry_files dir = []);
  (* The next store repairs it. *)
  Cstore.store s ~stage:"t" ~key "the payload";
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "repair failed");
  (* Truncation: drop the tail. *)
  clobber file (fun c -> String.sub c 0 (String.length c - 4));
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation not detected");
  (* A foreign file under the right name. *)
  Cstore.store s ~stage:"t" ~key "the payload";
  clobber file (fun _ -> "not a cache entry at all\n");
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Corrupt _ -> ()
  | _ -> Alcotest.fail "foreign file not detected");
  let st = Cstore.stats s in
  Alcotest.(check int) "three corruptions counted" 3 st.Cstore.corrupt

let test_eviction () =
  let dir = tmp_dir () in
  (* Budget fits roughly two of the ~1100-byte entries. *)
  let s = Cstore.create ~max_bytes:2500 dir in
  let payload = String.make 1000 'x' in
  let key i = Cstore.digest_key [ string_of_int i ] in
  Cstore.store s ~stage:"t" ~key:(key 0) payload;
  Cstore.store s ~stage:"t" ~key:(key 1) payload;
  (* Touch entry 0 so entry 1 is the LRU victim. *)
  (match Cstore.find s ~stage:"t" ~key:(key 0) with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "entry 0 missing before eviction");
  Cstore.store s ~stage:"t" ~key:(key 2) payload;
  let st = Cstore.stats s in
  Alcotest.(check bool) "evicted at least once" true (st.Cstore.evictions >= 1);
  Alcotest.(check bool)
    "under budget" true
    (Cstore.total_bytes s <= 2500);
  (match Cstore.find s ~stage:"t" ~key:(key 2) with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "the entry just stored was evicted");
  (match Cstore.find s ~stage:"t" ~key:(key 0) with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "recently-used entry was evicted");
  match Cstore.find s ~stage:"t" ~key:(key 1) with
  | Cstore.Miss -> ()
  | _ -> Alcotest.fail "LRU entry survived"

(* Opening reads the INDEX through a hash table: a reopened store of
   2000 entries sees every one of them. *)
let test_reopen_many () =
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let key i = Cstore.digest_key [ string_of_int i ] in
  for i = 0 to 1999 do
    Cstore.store s ~stage:"t" ~key:(key i) (string_of_int i)
  done;
  let s2 = Cstore.create dir in
  Alcotest.(check int) "every entry reopened" 2000 (Cstore.entry_count s2);
  Alcotest.(check int) "same bytes" (Cstore.total_bytes s) (Cstore.total_bytes s2);
  for i = 0 to 1999 do
    match Cstore.find s2 ~stage:"t" ~key:(key i) with
    | Cstore.Hit p when p = string_of_int i -> ()
    | _ -> Alcotest.failf "entry %d lost on reopen" i
  done

(* ------------------------------------------------------------------ *)
(* The append-only INDEX                                               *)
(* ------------------------------------------------------------------ *)

let index_path dir = Filename.concat dir "INDEX"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let append_file path text =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc text;
  close_out oc

let copy_dir src =
  let dst = tmp_dir () in
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc (read_file (Filename.concat src f));
      close_out oc)
    (Sys.readdir src);
  dst

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let index_line_count dir =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 (read_file (index_path dir))

(* (a) Recency survives a restart exactly: after every store in a seeded
   mix of stores, re-stores, hits and evictions, a fresh handle on a copy
   of the directory evicts the same victims as the live store when both
   take the same oversized entry.  Hits are persisted only by the next
   store, which often appends rather than compacts (a re-store of a live
   key evicts nothing). *)
let test_index_reopen_same_victims () =
  let rng = Impact_support.Rng.create 14 in
  let max_bytes = 6000 in
  let dir = tmp_dir () in
  let s = Cstore.create ~max_bytes dir in
  let key i = Cstore.digest_key [ string_of_int i ] in
  let payload i = String.make (300 + (i * 131 mod 600)) 'p' in
  let next = ref 0 in
  (* Hits and re-stores go to the last few keys, most of them live. *)
  let recent () = max 0 (!next - Impact_support.Rng.int rng 6) in
  for step = 1 to 400 do
    match Impact_support.Rng.int rng 10 with
    | n when n < 5 -> ignore (Cstore.find s ~stage:"t" ~key:(key (recent ())))
    | n ->
      let k =
        if n < 7 then begin
          incr next;
          !next
        end
        else recent ()
      in
      Cstore.store s ~stage:"t" ~key:(key k) (payload k);
      let copy = copy_dir dir in
      let fresh = Cstore.create ~max_bytes copy in
      Alcotest.(check (list string))
        (Printf.sprintf "step %d: same entries" step) (entry_files dir) (entry_files copy);
      let probe = Cstore.digest_key [ "probe"; string_of_int step ] in
      let big = String.make 2500 'q' in
      Cstore.store s ~stage:"probe" ~key:probe big;
      Cstore.store fresh ~stage:"probe" ~key:probe big;
      Alcotest.(check (list string))
        (Printf.sprintf "step %d: same victims" step) (entry_files dir) (entry_files copy);
      remove_dir copy
  done;
  Alcotest.(check bool) "the mix evicted" true ((Cstore.stats s).Cstore.evictions > 50)

(* (b) A garbage line and a torn trailing line (a crash mid-append) are
   ignored, and the next store does not append onto the torn line. *)
let test_index_torn_and_garbage () =
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let key i = Cstore.digest_key [ string_of_int i ] in
  let file i = "t-" ^ key i ^ ".ice" in
  let payload = String.make 1000 'x' in
  List.iter (fun i -> Cstore.store s ~stage:"t" ~key:(key i) payload) [ 0; 1; 2 ];
  (match Cstore.find s ~stage:"t" ~key:(key 0) with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "entry 0 missing");
  Cstore.store s ~stage:"t" ~key:(key 3) payload;
  (* Recency, oldest first: 1, 2, 0, 3. *)
  append_file (index_path dir)
    ("garbage\nnot-a-tick " ^ file 1 ^ "\n999 " ^ String.sub (file 1) 0 10);
  let s2 = Cstore.create dir in
  Alcotest.(check int) "every entry reopened" 4 (Cstore.entry_count s2);
  Cstore.store s2 ~stage:"t" ~key:(key 4) payload;
  (* The torn tail forced a rewrite: every line names a live entry. *)
  let live = entry_files dir in
  (match String.split_on_char '\n' (read_file (index_path dir)) with
  | _header :: lines ->
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ tick; f ] when int_of_string_opt tick <> None && List.mem f live -> ()
        | [ "" ] -> ()
        | _ -> Alcotest.failf "stray INDEX line %S" l)
      lines
  | [] -> Alcotest.fail "empty INDEX");
  (* Room for five entries: one more store evicts the oldest, entry 1. *)
  let entry_bytes = Cstore.total_bytes s2 / 5 in
  let s3 = Cstore.create ~max_bytes:((5 * entry_bytes) + 10) dir in
  Cstore.store s3 ~stage:"t" ~key:(key 5) payload;
  Alcotest.(check (list string)) "the least recent entry is the victim"
    (List.sort compare (List.map file [ 0; 2; 3; 4; 5 ]))
    (entry_files dir)

(* (c) The log is appended to, and compaction bounds it: after every one
   of 2000 stores over 300 keys, with hits in between, INDEX holds at most
   2 x entries + 64 lines plus its header. *)
let test_index_compaction_bound () =
  let rng = Impact_support.Rng.create 3 in
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let key i = Cstore.digest_key [ string_of_int i ] in
  let longest = ref 0 in
  for i = 1 to 2000 do
    Cstore.store s ~stage:"t" ~key:(key (Impact_support.Rng.int rng 300)) (string_of_int i);
    for _ = 1 to 2 do
      ignore (Cstore.find s ~stage:"t" ~key:(key (Impact_support.Rng.int rng 300)))
    done;
    let lines = index_line_count dir and bound = (2 * Cstore.entry_count s) + 65 in
    if lines > bound then Alcotest.failf "store %d: %d INDEX lines > %d" i lines bound;
    longest := max !longest (lines - 1 - Cstore.entry_count s)
  done;
  Alcotest.(check bool) "the log grew past one line per entry" true (!longest > 0)

(* ------------------------------------------------------------------ *)
(* Warm pipeline reruns                                                *)
(* ------------------------------------------------------------------ *)

(* Everything the pipeline reports, as comparable bytes. *)
let fingerprint (r : Pipeline.result) =
  Il_pp.dump r.Pipeline.inliner.Inliner.program
  ^ "\n" ^ Sink.json_to_string (Report.to_json [ r ])

let test_warm_run_identical () =
  let dir = tmp_dir () in
  let bench = Suite.find "cmp" in
  let cold_obs = Obs.create (Sink.memory ()) in
  let cold = Pipeline.run ~obs:cold_obs ~cache:(Cache.create dir) bench in
  Alcotest.(check int) "cold run has no hits" 0 (counter cold_obs "cache.hit");
  Alcotest.(check int) "cold run stores every stage" 6
    (counter cold_obs "cache.store");
  (* A fresh handle over the same directory: the warm run must rebuild
     its view of the store from disk alone. *)
  let obs = Obs.create (Sink.memory ()) in
  let cache = Cache.create dir in
  let warm = Pipeline.run ~obs ~cache bench in
  Alcotest.(check string) "byte-identical result" (fingerprint cold)
    (fingerprint warm);
  Alcotest.(check int) "warm run misses nothing" 0 (counter obs "cache.miss");
  Alcotest.(check int) "warm run hits every stage" 6 (counter obs "cache.hit");
  (* The ISSUE's acceptance bar: >= 90% of stage work skipped. *)
  Alcotest.(check bool) "hit rate >= 0.9" true
    (Cstore.hit_rate (Cstore.stats (Cache.cstore cache)) >= 0.9);
  (* The reused selection shows up in the decision log. *)
  let cached_decisions =
    Sink.events (Obs.sink obs)
    |> List.filter (fun (e : Sink.event) ->
           e.Sink.ev_kind = "decision" && e.Sink.ev_name = "inline.cached")
  in
  Alcotest.(check int) "inline.cached decision logged" 1
    (List.length cached_decisions)

(* The six entries a cold [cmp] run stores, as [<stage>-<key>.ice]
   names in the store directory.  Existing on-disk stores keep hitting
   only while every key stays byte-identical, so the keys are pinned
   here as they were before the checksums behind them became lazy.
   Each key mixes in the cache's format salt, which carries the OCaml
   version: a new compiler changes every key (and rightly misses every
   old entry), and this list must then be regenerated. *)
let cold_cmp_entries =
  [
    "classify-b15596173749a2bdd286cf817dc21e6f.ice";
    "classify-bc76cf305a2b88d1821c7b33023cd727.ice";
    "front-3bdac95f37881d486244de032c23d61a.ice";
    "inline-b3a048eb2da9e1dd0475a96adca24bc8.ice";
    "profile-1a20dc2f81ca8e3d763672c7a707adba.ice";
    "profile-e08448ae7dea723beb78df7efe418e40.ice";
  ]

let test_stage_keys_pinned () =
  let dir = tmp_dir () in
  let bench = Suite.find "cmp" in
  let cached = Pipeline.run ~cache:(Cache.create dir) bench in
  Alcotest.(check (list string))
    (Printf.sprintf "stage keys (OCaml %s)" Sys.ocaml_version)
    cold_cmp_entries (entry_files dir);
  (* Without a cache no key is ever computed; the report is unchanged. *)
  let uncached = Pipeline.run bench in
  Alcotest.(check string) "uncached report is byte-identical"
    (Sink.json_to_string (Report.to_json [ cached ]))
    (Sink.json_to_string (Report.to_json [ uncached ]))

let test_warm_suite_report () =
  (* The suite driver threads one shared cache through every benchmark;
     keep it to a two-benchmark slice so the test stays quick. *)
  let dir = tmp_dir () in
  let benches = [ Suite.find "cmp"; Suite.find "wc" ] in
  let cache = Cache.create dir in
  let cold = Pipeline.run_suite_report ~cache ~benches () in
  Alcotest.(check int) "all completed" 2 (List.length cold.Pipeline.completed);
  let obs = Obs.create (Sink.memory ()) in
  let warm = Pipeline.run_suite_report ~obs ~cache ~benches () in
  Alcotest.(check int) "warm misses nothing" 0 (counter obs "cache.miss");
  Alcotest.(check int) "warm hits everything" 12 (counter obs "cache.hit");
  List.iter2
    (fun (a : Pipeline.result) b ->
      Alcotest.(check string) "byte-identical per benchmark" (fingerprint a)
        (fingerprint b))
    cold.Pipeline.completed warm.Pipeline.completed

(* ------------------------------------------------------------------ *)
(* Invalidation precision                                              *)
(* ------------------------------------------------------------------ *)

let inv_source =
  {|extern int print_int(int n);
int hot(int a, int b) { return a * 3 + b; }
int cold_fn(int a) { return a - 1; }
int main() {
  int acc = 0; int k;
  for (k = 0; k < 200; k = k + 1) acc = acc + hot(k, acc & 63);
  acc = acc + cold_fn(acc);
  print_int(acc);
  return 0;
}
|}

let inv_bench src =
  {
    Benchmark.name = "inv";
    description = "invalidation probe";
    source = src;
    inputs = (fun () -> [ "" ]);
  }

let stage_counts obs =
  List.map
    (fun stage ->
      ( stage,
        counter obs ("cache.hit." ^ stage),
        counter obs ("cache.miss." ^ stage) ))
    [ "front"; "profile"; "classify"; "inline" ]

let check_stages obs expected =
  List.iter2
    (fun (stage, ehit, emiss) (stage', hit, miss) ->
      assert (stage = stage');
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s hit/miss" stage)
        (ehit, emiss) (hit, miss))
    expected (stage_counts obs)

let test_invalidation_precision () =
  let dir = tmp_dir () in
  let cache = Cache.create dir in
  let _ = Pipeline.run ~cache (inv_bench inv_source) in
  (* Whitespace-only source change: the front end recompiles (its key is
     the source bytes) but produces the same program, so the profiling,
     classification and selection entries all still match — the cache
     cuts off the invalidation at the first unchanged checksum. *)
  let obs = Obs.create (Sink.memory ()) in
  let _ = Pipeline.run ~obs ~cache (inv_bench (inv_source ^ "\n")) in
  check_stages obs
    [
      ("front", 0, 1); ("profile", 2, 0); ("classify", 2, 0); ("inline", 1, 0);
    ];
  (* Flipping one config field reuses the front end and both profiles
     (the selection happens not to change, so the expanded program's
     checksum doesn't either) but recomputes everything keyed by the
     config fingerprint. *)
  let obs = Obs.create (Sink.memory ()) in
  let config = { Config.default with Config.weight_threshold = 11.0 } in
  let _ = Pipeline.run ~obs ~cache ~config (inv_bench inv_source) in
  check_stages obs
    [
      ("front", 1, 0); ("profile", 2, 0); ("classify", 0, 2); ("inline", 0, 1);
    ];
  (* A semantic source change — one byte, the hot multiplier 3 -> 4 —
     invalidates every stage. *)
  let obs = Obs.create (Sink.memory ()) in
  let changed_src =
    let b = Bytes.of_string inv_source in
    let i = ref (-1) in
    Bytes.iteri (fun j c -> if c = '3' && !i < 0 then i := j) b;
    Bytes.set b !i '4';
    Bytes.to_string b
  in
  let _ = Pipeline.run ~obs ~cache (inv_bench changed_src) in
  check_stages obs
    [
      ("front", 0, 1); ("profile", 0, 2); ("classify", 0, 2); ("inline", 0, 1);
    ]

(* The instrumentation mode is part of the profile-stage key: switching
   modes over a warm store must recompute exactly the profile entries
   and nothing else.  Downstream stages are keyed on the profile's
   content, and a [Min] profile is byte-identical to a [Full] one, so
   classification and selection still hit — the precision cut-off the
   whitespace test pins, one layer up. *)
let test_profile_mode_is_stale () =
  let dir = tmp_dir () in
  let cache = Cache.create dir in
  let bench = Suite.find "cmp" in
  let full = Pipeline.run ~cache bench in
  let obs = Obs.create (Sink.memory ()) in
  let min =
    Pipeline.run ~obs ~cache ~profile_mode:Impact_profile.Coverage.Min bench
  in
  check_stages obs
    [
      ("front", 1, 0); ("profile", 0, 2); ("classify", 2, 0); ("inline", 1, 0);
    ];
  Alcotest.(check string) "min-keyed rerun is byte-identical" (fingerprint full)
    (fingerprint min);
  (* The min entries are now warm in the same store, alongside the full
     ones: a second min-mode run does no stage work at all. *)
  let obs = Obs.create (Sink.memory ()) in
  let _ =
    Pipeline.run ~obs ~cache ~profile_mode:Impact_profile.Coverage.Min bench
  in
  Alcotest.(check int) "warm min rerun misses nothing" 0
    (counter obs "cache.miss");
  Alcotest.(check int) "warm min rerun hits every stage" 6
    (counter obs "cache.hit")

(* ------------------------------------------------------------------ *)
(* On-disk corruption through the full pipeline                        *)
(* ------------------------------------------------------------------ *)

let test_pipeline_survives_corruption () =
  let dir = tmp_dir () in
  let bench = Suite.find "cmp" in
  let cold = Pipeline.run ~cache:(Cache.create dir) bench in
  (* Flip one payload byte in every cached entry. *)
  List.iter
    (fun f ->
      clobber (Filename.concat dir f) (fun c ->
          let b = Bytes.of_string c in
          let i = Bytes.length b - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          Bytes.to_string b))
    (entry_files dir);
  (* Even under Strict, a fully corrupt cache is only a slow cache. *)
  let obs = Obs.create (Sink.memory ()) in
  let cache = Cache.create dir in
  let warm = Pipeline.run ~obs ~policy:Pipeline.Strict ~cache bench in
  Alcotest.(check string) "result unaffected" (fingerprint cold)
    (fingerprint warm);
  Alcotest.(check int) "every entry detected as corrupt" 6
    (counter obs "cache.corrupt");
  Alcotest.(check bool) "degradation-free" true
    (warm.Pipeline.degradations = []);
  (* And the run repaired the store: the next one is all hits. *)
  let obs = Obs.create (Sink.memory ()) in
  let again = Pipeline.run ~obs ~policy:Pipeline.Strict ~cache bench in
  Alcotest.(check string) "repaired result identical" (fingerprint cold)
    (fingerprint again);
  Alcotest.(check int) "repaired store hits everything" 6
    (counter obs "cache.hit")

(* ------------------------------------------------------------------ *)
(* Concurrent warm hits (the PR 7 lock-scope fix)                      *)
(* ------------------------------------------------------------------ *)

let test_concurrent_warm_hits () =
  (* Hammer one store from several domains: every warm hit must return
     the byte-identical payload (reads now happen outside the store
     mutex, so this exercises genuinely concurrent file I/O), and the
     stats must account for exactly every lookup. *)
  let dir = tmp_dir () in
  let store = Cstore.create dir in
  let nkeys = 8 in
  let payload i = Printf.sprintf "payload-%d-%s" i (String.make (1024 * i) 'p') in
  for i = 0 to nkeys - 1 do
    Cstore.store store ~stage:"hammer" ~key:(Printf.sprintf "k%d" i) (payload i)
  done;
  let ndomains = 4 and rounds = 50 in
  let bad = Atomic.make 0 in
  let worker d =
    for r = 0 to rounds - 1 do
      let i = (d + r) mod nkeys in
      match Cstore.find store ~stage:"hammer" ~key:(Printf.sprintf "k%d" i) with
      | Cstore.Hit p -> if p <> payload i then Atomic.incr bad
      | Cstore.Miss | Cstore.Corrupt _ -> Atomic.incr bad
    done
  in
  let domains = List.init ndomains (fun d -> Domain.spawn (fun () -> worker d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "every concurrent warm hit byte-identical" 0
    (Atomic.get bad);
  let s = Cstore.stats store in
  Alcotest.(check int) "every lookup accounted as a hit"
    (ndomains * rounds) s.Cstore.hits;
  Alcotest.(check int) "no misses" 0 s.Cstore.misses;
  Alcotest.(check int) "no corruption" 0 s.Cstore.corrupt;
  (* Mixed readers and writers: concurrent stores to fresh keys must
     not perturb concurrent warm hits on existing ones. *)
  let bad2 = Atomic.make 0 in
  let reader d =
    for r = 0 to rounds - 1 do
      let i = (d + r) mod nkeys in
      match Cstore.find store ~stage:"hammer" ~key:(Printf.sprintf "k%d" i) with
      | Cstore.Hit p -> if p <> payload i then Atomic.incr bad2
      | Cstore.Miss | Cstore.Corrupt _ -> Atomic.incr bad2
    done
  in
  let writer () =
    for r = 0 to rounds - 1 do
      Cstore.store store ~stage:"hammer" ~key:(Printf.sprintf "w%d" r)
        (string_of_int r)
    done
  in
  let ds =
    Domain.spawn writer :: List.init (ndomains - 1) (fun d -> Domain.spawn (fun () -> reader d))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "hits stay byte-identical under concurrent stores" 0
    (Atomic.get bad2)

let test_concurrent_same_key_stores () =
  (* Entry files are filled outside the store mutex, each under a
     temp name private to one write, and published by a rename under
     it: domains storing one key at once must each succeed, every
     lookup between the stores must hit the whole payload, and exactly
     one entry and no temp file may remain. *)
  let dir = tmp_dir () in
  let store = Cstore.create dir in
  let payload = String.init (64 * 1024) (fun i -> Char.chr (i * 7 land 0xff)) in
  let ndomains = 4 and rounds = 100 in
  let bad = Atomic.make 0 in
  let worker () =
    for _ = 1 to rounds do
      Cstore.store store ~stage:"same" ~key:"k" payload;
      match Cstore.find store ~stage:"same" ~key:"k" with
      | Cstore.Hit p when p = payload -> ()
      | Cstore.Hit _ | Cstore.Miss | Cstore.Corrupt _ -> Atomic.incr bad
    done
  in
  List.iter Domain.join (List.init ndomains (fun _ -> Domain.spawn worker));
  Alcotest.(check int) "every lookup hit the whole payload" 0 (Atomic.get bad);
  let s = Cstore.stats store in
  Alcotest.(check int) "no failed store" 0 s.Cstore.store_failures;
  Alcotest.(check int) "every store counted" (ndomains * rounds) s.Cstore.stores;
  Alcotest.(check int) "no corruption" 0 s.Cstore.corrupt;
  Alcotest.(check int) "one entry" 1 (Cstore.entry_count store);
  Alcotest.(check (list string)) "the entry and the index, no temp file"
    [ "INDEX"; "same-k.ice" ]
    (Sys.readdir dir |> Array.to_list |> List.sort compare);
  let ic = open_in_bin (Filename.concat dir "same-k.ice") in
  let size = in_channel_length ic in
  close_in ic;
  Alcotest.(check int) "budget counts the one file" size (Cstore.total_bytes store)

let tests =
  [
    Alcotest.test_case "store roundtrip and persistence" `Quick test_roundtrip;
    Alcotest.test_case "concurrent warm hits are lock-free and consistent"
      `Quick test_concurrent_warm_hits;
    Alcotest.test_case "concurrent stores of one key land one whole entry"
      `Quick test_concurrent_same_key_stores;
    Alcotest.test_case "corrupt entries are typed misses" `Quick
      test_corruption_is_a_miss;
    Alcotest.test_case "LRU eviction under a byte budget" `Quick test_eviction;
    Alcotest.test_case "a reopened 2000-entry store sees every entry" `Quick
      test_reopen_many;
    Alcotest.test_case "INDEX: a reopened store evicts the same victims" `Quick
      test_index_reopen_same_victims;
    Alcotest.test_case "INDEX: torn and garbage lines are ignored" `Quick
      test_index_torn_and_garbage;
    Alcotest.test_case "INDEX: compaction bounds the log" `Quick
      test_index_compaction_bound;
    Alcotest.test_case "warm rerun is byte-identical, all hits" `Quick
      test_warm_run_identical;
    Alcotest.test_case "stage keys are pinned; uncached report identical"
      `Quick test_stage_keys_pinned;
    Alcotest.test_case "warm suite rerun skips all stage work" `Quick
      test_warm_suite_report;
    Alcotest.test_case "invalidation is stage-precise" `Quick
      test_invalidation_precision;
    Alcotest.test_case "profile mode is part of the stage key" `Quick
      test_profile_mode_is_stale;
    Alcotest.test_case "pipeline survives a fully corrupt cache" `Quick
      test_pipeline_survives_corruption;
  ]
