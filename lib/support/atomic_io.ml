(* Atomic artifact writes: temp file + rename, the same discipline
   Profile_io.save introduced.  Every artifact writer in the tree
   (profiles, traces, metrics snapshots, BENCH_*.json) goes through
   here so an interrupted or faulted run never leaves a truncated file
   at the destination path — either the old contents survive or the
   complete new contents land, nothing in between. *)

let tmp_path path = path ^ ".tmp"

(* Fill [tmp] through [write]; if [write] raises, remove [tmp] and
   re-raise. *)
let fill tmp write =
  let oc = open_out tmp in
  (match write oc with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  close_out oc

let with_file path write =
  let tmp = tmp_path path in
  fill tmp write;
  Sys.rename tmp path

let write_string path contents = with_file path (fun oc -> output_string oc contents)

let write_temp tmp contents = fill tmp (fun oc -> output_string oc contents)
