(* Clocks, order statistics and process figures shared by the workloads. *)

let now = Unix.gettimeofday

(* [time f] is [f ()] with its wall time in milliseconds. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. 1000.)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The nearest rank of the [p]th percentile of [n] samples, ceil(p n /
   100), in integers ([p] to a tenth) so that e.g. p95 of 200 is 190. *)
let rank p n =
  let tenths = int_of_float (Float.round (p *. 10.)) in
  ((tenths * n) + 999) / 1000

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let rank_percentile a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank p n - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Samples strictly beyond the nearest-rank [p]th percentile of [n]. *)
let beyond p n = n - rank p n

(* The percentiles a tail may be reported at, highest first. *)
let tail_ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* [tail_percentile ~cap n] is the highest ladder percentile, no higher
   than [cap], that leaves at least ten of [n] samples strictly beyond
   its nearest-rank position.  [cap] is the workload's design
   percentile: it keeps the reported percentile fixed when a faster
   program completes more operations in the same run time. *)
let tail_percentile ~cap n =
  List.find_opt (fun p -> p <= cap && beyond p n >= 10) tail_ladder

(* [tail ~cap xs] is [(percentile, value)], or the maximum at 100 when
   even the median has fewer than ten samples beyond it. *)
let tail ~cap xs =
  let a = sorted xs in
  match tail_percentile ~cap (Array.length a) with
  | Some p -> (p, rank_percentile a p)
  | None -> (100., rank_percentile a 100.)

(* Peak resident set of this process in MiB (Linux [VmHWM]); [nan]
   where /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" -> (
        match
          String.split_on_char ' ' (String.trim (String.sub l 6 (String.length l - 6)))
          |> List.filter (( <> ) "")
        with
        | kb :: _ -> float_of_string kb /. 1024.
        | [] -> nan)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Runs [f] until [seconds] have passed since [t0], in whole rounds:
   [round i] runs round [i]; the last round in progress completes. *)
let rounds ~t0 ~seconds round =
  let i = ref 0 in
  while now () -. t0 < seconds do
    round !i;
    incr i
  done;
  !i

(* Host-speed calibration.

   The hosts this runs on drift in speed by tens of percent within
   minutes, and a pipeline run slows down with them.  A fixed kernel —
   hashing, sorting, buffer and list work, no code under test — is timed
   between operations on one domain (spawning a second for it was
   noisier than the drift it would track); times are reported scaled by [reference_ms / median kernel time], so
   drift that slows the kernel and the operations alike cancels.  The
   reference is the kernel's median on the 2-core host the benchmark
   was defined on, so scaled times read close to raw ones there.  Raw
   figures are printed beside the scaled ones. *)
module Calib = struct
  let kernel () =
    let h = Hashtbl.create 16 in
    let x = ref 12345 in
    for i = 0 to 5000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace h (!x land 0xffff) i
    done;
    let a = Array.init 8000 (fun i -> (i * 7919) land 0xffff) in
    Array.sort compare a;
    let b = Buffer.create 16 in
    for i = 0 to 1500 do
      Buffer.add_string b (string_of_int i)
    done;
    let l = List.rev_map succ (List.init 5000 Fun.id) in
    Hashtbl.length h + a.(0) + Buffer.length b + List.length l

  (* Median kernel time (ms) on the defining host. *)
  let reference_ms = 3.0

  type t = { mutable samples : float list }

  let create () = { samples = [] }

  let sample t =
    let _, ms = time kernel in
    t.samples <- ms :: t.samples

  let kernel_ms t = median t.samples

  (* Multiply a time by this (divide a rate) to scale it. *)
  let factor t = reference_ms /. kernel_ms t
end
