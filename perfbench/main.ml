(* perfbench — the inliner's benchmark program.

   main.exe --workload suite|compile|serve --seed N --seconds S --trace 0|1

   Runs one workload in this process and prints, as its last line, one
   JSON object: whether every output check held, the operations
   attempted and failed, and the metrics — the end-to-end ones without
   tracing, the per-layer ones with it (names and units in
   [Outcome]).  The line before it carries the host fingerprint and
   run details.  Scratch files go under .perfbench/ in the current
   directory; a traced run leaves its spans there as JSONL. *)

open Perfbench
module Sink = Impact_obs.Sink

let usage () =
  prerr_endline
    "usage: main.exe --workload suite|compile|serve --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. -> (!workload, seed, seconds, trace)
  | _ -> usage ()

(* What the numbers were measured on.  The build facts the runtime
   cannot see (flambda, the source revision) come from the environment
   the launcher sets. *)
let host () =
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  let nproc =
    match Unix.open_process_in "nproc 2>/dev/null" with
    | exception _ -> 0
    | ic ->
      let n = Option.value ~default:0 (Option.bind (In_channel.input_line ic) int_of_string_opt) in
      ignore (Unix.close_process_in ic);
      n
  in
  Sink.Obj
    [
      ("nproc", Sink.Int nproc);
      ("recommended_domains", Sink.Int (Domain.recommended_domain_count ()));
      ("ocaml", Sink.String Sys.ocaml_version);
      ("flambda", Sink.String (env "PERFBENCH_FLAMBDA"));
      ("commit", Sink.String (env "PERFBENCH_COMMIT"));
    ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let () =
  let workload, seed, seconds, traced = args () in
  let root = ".perfbench" in
  let scratch = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p scratch;
  let run () =
    match (workload, traced) with
    | "suite", false ->
      Batch.run_untraced ~setup:Batch.suite_cases ~opts:(Batch.suite_opts ()) ~seed ~seconds
    | "suite", true ->
      Batch.run_traced ~setup:Batch.suite_cases ~opts:(Batch.suite_opts ()) ~seed ~seconds
        ~scratch
    | "compile", false ->
      Batch.run_untraced ~setup:(Batch.compile_cases ~seed) ~opts:Batch.compile_opts ~seed
        ~seconds
    | "compile", true ->
      Batch.run_traced ~setup:(Batch.compile_cases ~seed) ~opts:Batch.compile_opts ~seed
        ~seconds ~scratch
    | "serve", false -> Serve.run_untraced ~seed ~seconds ~scratch
    | "serve", true -> Serve.run_traced ~seed ~seconds ~scratch
    | _ -> usage ()
  in
  let o =
    Fun.protect
      ~finally:(fun () ->
        let trace_file = Filename.concat scratch "trace.jsonl" in
        if Sys.file_exists trace_file then
          Sys.rename trace_file
            (Filename.concat root (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed));
        Serve.rm_rf scratch)
      run
  in
  let names = if traced then Outcome.per_layer else Outcome.end_to_end in
  (* A layer the workload does not run reads 0; a figure that could
     not be computed (no samples) fails the run rather than printing a
     non-number. *)
  let value name = Option.value ~default:0. (List.assoc_opt name o.Outcome.metrics) in
  let finite = List.for_all (fun (n, _) -> Float.is_finite (value n)) names in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = if Float.is_finite (value name) then value name else 0. in
        (name, Sink.Obj [ ("value", Sink.Float v); ("unit", Sink.String unit_) ]))
      names
  in
  print_endline
    (Sink.json_to_string
       (Sink.Obj
          ([
             ("workload", Sink.String workload);
             ("seed", Sink.Int seed);
             ("trace", Sink.Bool traced);
             ("host", host ());
           ]
          @ o.Outcome.info)));
  print_endline
    (Sink.json_to_string
       (Sink.Obj
          [
            ("correct", Sink.Bool (o.Outcome.failed = 0 && finite));
            ("attempted", Sink.Int o.Outcome.attempted);
            ("failed", Sink.Int o.Outcome.failed);
            ("metrics", Sink.Obj metrics);
          ]))
