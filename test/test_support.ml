(* Unit and property tests for the support library. *)

module Vec = Impact_support.Vec
module Rng = Impact_support.Rng
module Stats = Impact_support.Stats
module Pool = Impact_support.Pool

let check_int = Alcotest.(check int)

let check_float = Alcotest.(check (float 1e-9))

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh vector is empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get 7" 49 (Vec.get v 7);
  check_int "last" (99 * 99) (Vec.last v);
  Vec.set v 7 (-1);
  check_int "set/get" (-1) (Vec.get v 7)

let test_vec_pop_clear () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check_int "pop" 3 (Vec.pop v);
  check_int "length after pop" 2 (Vec.length v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty vector")
    (fun () -> ignore (Vec.pop v))

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 3 out of bounds [0, 1)") (fun () ->
      ignore (Vec.get v 3))

let test_vec_conversions () =
  let v = Vec.of_array [| 5; 6; 7 |] in
  Alcotest.(check (list int)) "to_list" [ 5; 6; 7 ] (Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 5; 6; 7 |] (Vec.to_array v);
  let w = Vec.map (fun x -> x * 2) v in
  Alcotest.(check (list int)) "map" [ 10; 12; 14 ] (Vec.to_list w);
  Vec.append v w;
  Alcotest.(check (list int)) "append" [ 5; 6; 7; 10; 12; 14 ] (Vec.to_list v)

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check_int "fold_left sum" 10 (Vec.fold_left ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check (list (pair int int)))
    "iteri order"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (List.rev !seen);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let test_rng_determinism () =
  let a = Rng.create 7 in
  let b = Rng.create 7 in
  for _ = 1 to 50 do
    check_int "same seed, same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.copy a in
  check_int "copy continues the stream" (Rng.next a) (Rng.next c)

let test_rng_ranges () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let y = Rng.range rng (-5) 5 in
    Alcotest.(check bool) "range inclusive" true (y >= -5 && y <= 5)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_shuffle_permutes () =
  let rng = Rng.create 99 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_stats_mean_stddev () =
  check_float "mean empty" 0. (Stats.mean []);
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "stddev singleton" 0. (Stats.stddev [ 5. ]);
  (* population SD of 2,4,4,4,5,5,7,9 is exactly 2 *)
  check_float "stddev known" 2. (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ]);
  check_float "percent" 25. (Stats.percent 1. 4.);
  check_float "percent of zero" 0. (Stats.percent 1. 0.);
  check_float "ratio" 2.5 (Stats.ratio 5. 2.);
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ])

(* Domain pool: result order must match input order for every job
   count, oversubscription must be harmless, and a failing item must
   surface the lowest failing index's exception deterministically. *)

exception Boom of int

let test_pool_ordering () =
  let items = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map_array jobs=%d" jobs)
        expected
        (Pool.map_array ~jobs (fun i -> i * i) items))
    [ 1; 2; 4; 7; 200 ];
  Alcotest.(check (list int)) "map_list keeps order" [ 2; 4; 6 ]
    (Pool.map_list ~jobs:3 (fun i -> 2 * i) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty list" []
    (Pool.map_list ~jobs:4 (fun i -> i) []);
  Alcotest.(check bool) "default_jobs is positive" true (Pool.default_jobs () >= 1)

let test_pool_exception () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "lowest failing index wins (jobs=%d)" jobs)
        (Boom 3)
        (fun () ->
          ignore
            (Pool.map_array ~jobs
               (fun i -> if i >= 3 then raise (Boom i) else i)
               (Array.init 20 (fun i -> i)))))
    [ 1; 2; 4 ]

(* The clamp caps the domain count at the machine's recommended count,
   so on a small box the jobs>1 cases above may run sequentially.
   [~clamp:false] forces real multi-domain execution — this is the case
   that genuinely exercises spawn/join, ordering and fail-fast across
   domains regardless of the hardware. *)
let test_pool_unclamped () =
  let items = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "unclamped keeps order"
    (Array.map (fun i -> i * i) items)
    (Pool.map_array ~jobs:4 ~clamp:false (fun i -> i * i) items);
  Alcotest.check_raises "unclamped lowest failing index wins" (Boom 3)
    (fun () ->
      ignore
        (Pool.map_array ~jobs:4 ~clamp:false
           (fun i -> if i >= 3 then raise (Boom i) else i)
           (Array.init 20 (fun i -> i))))

(* Every completed item reports exactly one sample to the probe, tagged
   with the index it ran as.  In results mode an [Error] item completed
   too (it occupied its domain), so it is sampled; in the fail-fast map
   a raising item produces no sample. *)
let test_pool_probe_samples () =
  let mu = Mutex.create () in
  let seen = ref [] in
  let probe s = Mutex.protect mu (fun () -> seen := s :: !seen) in
  let results =
    Pool.map_array_results ~jobs:4 ~clamp:false ~probe
      (fun i -> if i = 5 then raise (Boom i) else i)
      (Array.init 10 (fun i -> i))
  in
  Alcotest.(check int) "all items have results" 10 (Array.length results);
  let indices =
    List.sort_uniq compare (List.map (fun s -> s.Pool.ts_index) !seen)
  in
  Alcotest.(check (list int)) "one sample per item, errors included"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] indices;
  List.iter
    (fun (s : Pool.task_sample) ->
      Alcotest.(check bool) "sane sample" true
        (s.Pool.ts_queue_ms >= 0. && s.Pool.ts_run_ms >= 0.
        && s.Pool.ts_domain >= 0))
    !seen;
  (* Fail-fast: the raising item never completes, so no sample. *)
  seen := [];
  (try
     ignore
       (Pool.map_array ~jobs:1 ~probe
          (fun i -> if i = 2 then raise (Boom i) else i)
          (Array.init 4 (fun i -> i)))
   with Boom 2 -> ());
  Alcotest.(check bool) "no sample for the raising item" true
    (List.for_all (fun s -> s.Pool.ts_index <> 2) !seen)

module Fault = Impact_support.Fault

(* Regression: a fault thrown while submitting workers used to leak the
   spawned domains (never joined) and race them for the exception.  The
   submission loop now drains every spawned domain before re-raising the
   submission failure, so the error is deterministic and the pool stays
   usable. *)
let test_pool_submission_fault () =
  Fault.with_point Fault.Pool_worker_start ~after:0 (fun () ->
      match Pool.map_array ~jobs:4 (fun i -> i) (Array.init 64 (fun i -> i)) with
      | _ -> Alcotest.fail "expected the armed submission fault to surface"
      | exception Fault.Injected Fault.Pool_worker_start -> ());
  Alcotest.(check (array int)) "pool usable after submission fault"
    (Array.init 64 (fun i -> i * 2))
    (Pool.map_array ~jobs:4 (fun i -> i * 2) (Array.init 64 (fun i -> i)))

let test_pool_worker_finish_fault () =
  Fault.with_point Fault.Pool_worker_finish ~after:0 (fun () ->
      match Pool.map_array ~jobs:4 (fun i -> i) (Array.init 64 (fun i -> i)) with
      | _ -> Alcotest.fail "expected the armed worker-finish fault to surface"
      | exception Fault.Injected Fault.Pool_worker_finish -> ());
  (* Sequential path hits the same points. *)
  Fault.with_point Fault.Pool_worker_finish ~after:0 (fun () ->
      match Pool.map_array ~jobs:1 (fun i -> i) [| 1; 2 |] with
      | _ -> Alcotest.fail "expected the sequential worker-finish fault"
      | exception Fault.Injected Fault.Pool_worker_finish -> ())

(* Maps borrow parked helper domains.  A map inside a map finds the
   helpers busy and spawns one-off domains instead of waiting for one,
   so nesting terminates, and order holds at both levels. *)
let test_pool_nested () =
  let inner i =
    Pool.map_array ~jobs:2 ~clamp:false (fun j -> (100 * i) + j) (Array.init 5 Fun.id)
  in
  Alcotest.(check (array (array int))) "nested maps keep order"
    (Array.init 8 (fun i -> Array.init 5 (fun j -> (100 * i) + j)))
    (Pool.map_array ~jobs:2 ~clamp:false inner (Array.init 8 Fun.id));
  Alcotest.(check (list int)) "nested results maps keep order"
    (List.init 6 (fun i -> (100 * i) + 4))
    (List.map
       (function Ok v -> v | Error e -> raise e)
       (Pool.map_list_results ~jobs:2 ~clamp:false (fun i -> (inner i).(4))
          (List.init 6 Fun.id)))

(* The second submission faults after the first has already borrowed a
   helper (or, with every helper busy, spawned a domain): the map waits
   for it, re-raises, and leaves the helper idle for the next map. *)
let test_pool_fault_while_lent () =
  Fault.with_point Fault.Pool_worker_start ~after:1 (fun () ->
      match
        Pool.map_array ~jobs:3 ~clamp:false (fun i -> i) (Array.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "expected the second submission to fault"
      | exception Fault.Injected Fault.Pool_worker_start -> ());
  Alcotest.(check (array int)) "next map succeeds"
    (Array.init 64 (fun i -> i + 1))
    (Pool.map_array ~jobs:3 ~clamp:false (fun i -> i + 1) (Array.init 64 Fun.id))

(* Helpers persist across maps: fifty clamped maps run on at most the
   recommended number of distinct domains (the caller plus the parked
   helpers), where spawning per map would show a fresh domain id each
   time.  On a one-domain host the maps run sequentially on the caller
   and this check holds vacuously. *)
let test_pool_helpers_persist () =
  let mu = Mutex.create () in
  let domains = Hashtbl.create 8 in
  let probe (s : Pool.task_sample) =
    Mutex.protect mu (fun () -> Hashtbl.replace domains s.Pool.ts_domain ())
  in
  for _ = 1 to 50 do
    ignore
      (Pool.map_array ~jobs:(Pool.default_jobs ()) ~probe
         (fun i ->
           let s = ref 0 in
           for k = 1 to 2000 do
             s := !s + (k * i)
           done;
           !s)
         (Array.init 64 Fun.id))
  done;
  let seen = Hashtbl.length domains in
  if seen > Domain.recommended_domain_count () then
    Alcotest.failf "50 maps ran on %d distinct domains, more than the %d recommended"
      seen (Domain.recommended_domain_count ())

let test_pool_results_retry () =
  (* A transient failure succeeds on the single deterministic retry. *)
  let attempts = Array.make 8 0 in
  let results =
    Pool.map_array_results ~retry:true
      (fun i ->
        attempts.(i) <- attempts.(i) + 1;
        if i = 3 && attempts.(i) = 1 then raise (Boom i) else i * 10)
      (Array.init 8 (fun i -> i))
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "retried value" (i * 10) v
      | Error _ -> Alcotest.failf "index %d failed despite retry" i)
    results;
  Alcotest.(check int) "item 3 ran exactly twice" 2 attempts.(3);
  (* A sticky failure exhausts the retry and lands in its own slot,
     leaving the other slots intact; on_retry observes the first miss. *)
  let retried = ref [] in
  let results =
    Pool.map_array_results ~retry:true
      ~on_retry:(fun i _ -> retried := i :: !retried)
      (fun i -> if i = 2 then raise (Boom i) else i)
      (Array.init 5 (fun i -> i))
  in
  (match results.(2) with
  | Error (Boom 2) -> ()
  | _ -> Alcotest.fail "sticky failure must surface as Error (Boom 2)");
  (match results.(4) with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "unrelated slots must be unaffected");
  Alcotest.(check (list int)) "on_retry saw only index 2" [ 2 ] !retried

let test_pool_results_order () =
  (* Reassembly is input-order stable for every job count, with failed
     items in their own slots rather than shifting the rest. *)
  List.iter
    (fun jobs ->
      let results =
        Pool.map_list_results ~jobs
          (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
          (List.init 20 (fun i -> i))
      in
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
            Alcotest.(check int) "slot holds its own item" i v;
            if i mod 3 = 0 then Alcotest.failf "index %d should have failed" i
          | Error (Boom b) -> Alcotest.(check int) "error in its own slot" i b
          | Error _ -> Alcotest.fail "unexpected error kind")
        results)
    [ 1; 2; 4 ]

let props =
  let open QCheck in
  [
    Test.make ~name:"vec: of_list/to_list roundtrip" (small_list int) (fun l ->
        Vec.to_list (Vec.of_list l) = l);
    Test.make ~name:"pool: map_array equals Array.map for any jobs"
      (pair (int_bound 6) (small_list small_int)) (fun (jobs, l) ->
        let items = Array.of_list l in
        Pool.map_array ~jobs:(jobs + 1) (fun x -> (3 * x) + 1) items
        = Array.map (fun x -> (3 * x) + 1) items);
    Test.make ~name:"rng: chance 0 never fires" small_int (fun seed ->
        let rng = Rng.create seed in
        not (Rng.chance rng 0 10));
    Test.make ~name:"stats: stddev is non-negative" (small_list (float_bound_exclusive 100.))
      (fun xs -> Stats.stddev xs >= 0.);
  ]

let tests =
  [
    Alcotest.test_case "vec push/get/set" `Quick test_vec_push_get;
    Alcotest.test_case "vec pop/clear" `Quick test_vec_pop_clear;
    Alcotest.test_case "vec bounds checking" `Quick test_vec_bounds;
    Alcotest.test_case "vec conversions" `Quick test_vec_conversions;
    Alcotest.test_case "vec iteration/folding" `Quick test_vec_iter_fold;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "stats aggregates" `Quick test_stats_mean_stddev;
    Alcotest.test_case "pool ordering" `Quick test_pool_ordering;
    Alcotest.test_case "pool exception determinism" `Quick test_pool_exception;
    Alcotest.test_case "pool unclamped multi-domain" `Quick test_pool_unclamped;
    Alcotest.test_case "pool probe samples" `Quick test_pool_probe_samples;
    Alcotest.test_case "pool submission-fault drain" `Quick
      test_pool_submission_fault;
    Alcotest.test_case "pool worker-finish fault" `Quick
      test_pool_worker_finish_fault;
    Alcotest.test_case "pool results retry once" `Quick test_pool_results_retry;
    Alcotest.test_case "pool results keep input order" `Quick
      test_pool_results_order;
  ]
  @ List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "pool nested maps" `Quick test_pool_nested;
      Alcotest.test_case "pool submission fault while a helper is lent" `Quick
        test_pool_fault_while_lent;
      Alcotest.test_case "pool helpers persist across maps" `Quick
        test_pool_helpers_persist;
    ]
