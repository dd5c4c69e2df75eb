(* Value-profiled indirect-call devirtualization, locked down.

   Four layers: the v4 profile serialisation (round-trip, legacy
   headers, and the degrade-not-crash contract for corrupt histogram
   data), the guard rewrite itself (IL-level shape, semantics, profile
   weight transfer), the guard *elimination* path (constant folding
   proves an always-taken guard and the cleanup sweeps the dead
   indirect arm), and the end-to-end acceptance run on espresso — the
   suite benchmark with a real function-pointer strategy table — where
   speculation must convert pointer traffic into direct/inlined calls
   without changing a byte of output. *)

module Il = Impact_il.Il
module Il_pp = Impact_il.Il_pp
module Il_check = Impact_il.Il_check
module Lower = Impact_il.Lower
module Machine = Impact_interp.Machine
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Profiler = Impact_profile.Profiler
module Coverage = Impact_profile.Coverage
module Devirt = Impact_opt.Devirt
module Driver = Impact_opt.Driver
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Classify = Impact_core.Classify
module Pipeline = Impact_harness.Pipeline
module Suite = Impact_bench_progs.Suite
module Ierr = Impact_support.Ierr

(* ------------------------------------------------------------------ *)
(* Serialisation: v4 round-trip and legacy headers                     *)
(* ------------------------------------------------------------------ *)

let sample ?(vsites = []) () =
  {
    Profile.nruns = 2;
    func_weight = [| 10.; 0.5 |];
    site_weight = [| 3.; 7.5 |];
    vsites;
    avg_ils = 100.;
    avg_cts = 20.;
    avg_calls = 5.;
    avg_returns = 5.;
    avg_ext_calls = 1.;
    avg_max_stack = 2.;
  }

let sample_vsites =
  [
    {
      Profile.vs_site = 1;
      vs_targets =
        [
          { Profile.vt_fid = 0; vt_weight = 5. };
          { Profile.vt_fid = 1; vt_weight = 2. };
        ];
      vs_other = 0.5;
    };
  ]

let header s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let parse_ok s =
  match Profile_io.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" (Ierr.to_string e)

let test_v4_roundtrip () =
  let p = sample ~vsites:sample_vsites () in
  let s = Profile_io.to_string p in
  Alcotest.(check bool) "value data forces a v4 header" true
    (String.length s > 17 && String.sub s 0 17 = "impact-profile v4");
  let p' = parse_ok s in
  Alcotest.(check bool) "vsites round-trip exactly" true
    (p'.Profile.vsites = p.Profile.vsites);
  (* With a checksum and a mode both recorded in the one v4 header. *)
  let ck = String.make 32 'b' in
  let s2 = Profile_io.to_string ~checksum:ck ~mode:Coverage.Min p in
  let p2 =
    match Profile_io.of_string ~expect_checksum:ck s2 with
    | Ok p2 -> p2
    | Error e -> Alcotest.failf "v4 with checksum+mode: %s" (Ierr.to_string e)
  in
  Alcotest.(check bool) "checksum+mode round-trip keeps vsites" true
    (p2.Profile.vsites = p.Profile.vsites);
  (* The recorded mode is still checked: a legacy header naming the
     retired approximate mode is a typed error, v3 and v4 alike. *)
  let hlen = String.length (header s2) in
  let body = String.sub s2 hlen (String.length s2 - hlen) in
  List.iter
    (fun v ->
      let h = Printf.sprintf "impact-profile %s %s sampled" v ck in
      match Profile_io.of_string (h ^ body) with
      | Ok _ -> Alcotest.failf "%s header naming sampled accepted" v
      | Error e ->
        Alcotest.(check string) (v ^ " sampled header is typed") "profile-io"
          (Ierr.stage_name e.Ierr.stage))
    [ "v3"; "v4" ]

let test_no_vsites_keeps_v2_bytes () =
  let p = sample () in
  let s = Profile_io.to_string p in
  Alcotest.(check bool) "no value data, historical v2 header" true
    (String.sub s 0 17 = "impact-profile v2");
  let p' = parse_ok s in
  Alcotest.(check bool) "v2 reads back with an empty value profile" true
    (p'.Profile.vsites = []);
  (* v3 likewise: mode recorded, still no vsite lines. *)
  let s3 = Profile_io.to_string ~mode:Coverage.Full p in
  Alcotest.(check bool) "v3 header without value data" true
    (String.sub s3 0 17 = "impact-profile v3");
  Alcotest.(check bool) "v3 reads back with an empty value profile" true
    ((parse_ok s3).Profile.vsites = [])

(* The degrade contract: any malformed, truncated or out-of-bounds
   vsite data drops the WHOLE value-profile component — so a later
   devirt pass simply speculates nothing — while the rest of the
   profile still parses.  Never an error, never a crash, never a
   half-histogram. *)
let test_corrupt_vsites_degrade_to_no_devirt () =
  let p = sample ~vsites:sample_vsites () in
  let good = Profile_io.to_string p in
  let replace_vsite_line repl =
    String.split_on_char '\n' good
    |> List.concat_map (fun line ->
           if String.length line >= 5 && String.sub line 0 5 = "vsite" then
             repl line
           else [ line ])
    |> String.concat "\n"
  in
  let cases =
    [
      ("target fid out of range", replace_vsite_line (fun _ -> [ "vsite 1 0.5 99:5" ]));
      ("site id out of range", replace_vsite_line (fun _ -> [ "vsite 7 0.5 0:5" ]));
      ("negative target weight", replace_vsite_line (fun _ -> [ "vsite 1 0.5 0:-5" ]));
      ("negative other weight", replace_vsite_line (fun _ -> [ "vsite 1 -0.5 0:5" ]));
      ("non-numeric target", replace_vsite_line (fun _ -> [ "vsite 1 0.5 0:abc" ]));
      ("malformed target pair", replace_vsite_line (fun _ -> [ "vsite 1 0.5 0" ]));
      ("no targets at all", replace_vsite_line (fun _ -> [ "vsite 1 0.5" ]));
      ("bare vsite keyword", replace_vsite_line (fun _ -> [ "vsite" ]));
      ("duplicate site", replace_vsite_line (fun l -> [ l; l ]));
      ("nan weight", replace_vsite_line (fun _ -> [ "vsite 1 0.5 0:nan" ]));
    ]
  in
  List.iter
    (fun (name, s) ->
      match Profile_io.of_string s with
      | Ok p' ->
        Alcotest.(check bool) (name ^ ": value profile dropped") true
          (p'.Profile.vsites = []);
        Alcotest.(check int) (name ^ ": rest of the profile intact")
          p.Profile.nruns p'.Profile.nruns;
        Alcotest.(check (float 0.)) (name ^ ": site weights intact")
          (Profile.site_weight p 1)
          (Profile.site_weight p' 1)
      | Error e ->
        Alcotest.failf "%s: corrupt vsite data rejected the whole profile (%s)"
          name (Ierr.to_string e))
    cases

(* ------------------------------------------------------------------ *)
(* The rewrite: guard shape, semantics, weight transfer                *)
(* ------------------------------------------------------------------ *)

(* A hand-built two-function program: main calls through a pointer that
   always resolves to [target].  The pointer operand is a [Lea_func]
   register, the exact shape constant folding can later prove. *)
let guarded_program () =
  let target =
    {
      Il.fid = 0;
      name = "target";
      nparams = 0;
      nregs = 0;
      nlabels = 0;
      frame_size = 0;
      body = [| Il.Ret (Some (Il.Imm 7)) |];
      alive = true;
    }
  in
  let main =
    {
      Il.fid = 1;
      name = "main";
      nparams = 0;
      nregs = 2;
      nlabels = 0;
      frame_size = 0;
      body =
        [|
          Il.Lea_func (0, 0);
          Il.Call_ind (0, Il.Reg 0, [], Some 1);
          Il.Ret (Some (Il.Reg 1));
        |];
      alive = true;
    }
  in
  {
    Il.funcs = [| target; main |];
    globals = [||];
    strings = [||];
    externs = [];
    main = 1;
    next_site = 1;
    address_taken = [ 0 ];
  }

let monomorphic_profile () =
  {
    Profile.nruns = 1;
    func_weight = [| 10.; 1. |];
    site_weight = [| 10. |];
    vsites =
      [
        {
          Profile.vs_site = 0;
          vs_targets = [ { Profile.vt_fid = 0; vt_weight = 10. } ];
          vs_other = 0.;
        };
      ];
    avg_ils = 10.;
    avg_cts = 1.;
    avg_calls = 10.;
    avg_returns = 10.;
    avg_ext_calls = 0.;
    avg_max_stack = 16.;
  }

let count_instrs pred (f : Il.func) =
  Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 f.Il.body

let is_call_ind = function Il.Call_ind _ -> true | _ -> false

let is_direct_call_to fid = function
  | Il.Call (_, f, _, _) -> f = fid
  | _ -> false

let test_rewrite_shape_and_weights () =
  let prog = guarded_program () in
  let profile = monomorphic_profile () in
  let before = (Machine.run prog ~input:"").Machine.exit_code in
  let decisions, profile' = Devirt.run ~threshold:0.8 profile prog in
  (match decisions with
  | [ d ] ->
    Alcotest.(check int) "original site" 0 d.Devirt.d_site;
    Alcotest.(check int) "caller is main" 1 d.Devirt.d_caller;
    Alcotest.(check int) "speculated target" 0 d.Devirt.d_target;
    Alcotest.(check int) "fresh site id" 1 d.Devirt.d_new_site;
    Alcotest.(check (float 1e-9)) "dominant share" 1.0 d.Devirt.d_share;
    Alcotest.(check (float 1e-9)) "captured weight" 10.0 d.Devirt.d_weight;
    (* The profile now prices the speculated arc as hot as measured,
       and the residual indirect site keeps only the miss traffic. *)
    Alcotest.(check (float 1e-9)) "direct site inherits the weight" 10.0
      (Profile.site_weight profile' d.Devirt.d_new_site);
    Alcotest.(check (float 1e-9)) "indirect site keeps the misses" 0.0
      (Profile.site_weight profile' d.Devirt.d_site)
  | ds -> Alcotest.failf "expected exactly one decision, got %d" (List.length ds));
  Il_check.check_exn prog;
  let main = prog.Il.funcs.(1) in
  Alcotest.(check int) "cold path keeps the indirect call" 1
    (count_instrs is_call_ind main);
  Alcotest.(check int) "guarded direct call inserted" 1
    (count_instrs (is_direct_call_to 0) main);
  Alcotest.(check int) "guard semantics preserved" before
    (Machine.run prog ~input:"").Machine.exit_code

let test_threshold_respected () =
  let prog = guarded_program () in
  (* A 50/50 histogram never clears the default 0.8 threshold. *)
  let profile =
    {
      (monomorphic_profile ()) with
      Profile.vsites =
        [
          {
            Profile.vs_site = 0;
            vs_targets =
              [
                { Profile.vt_fid = 0; vt_weight = 5. };
                { Profile.vt_fid = 1; vt_weight = 5. };
              ];
            vs_other = 0.;
          };
        ];
    }
  in
  let decisions, _ = Devirt.run ~threshold:0.8 profile prog in
  Alcotest.(check int) "no speculation below threshold" 0
    (List.length decisions);
  (* Lowering the bar makes the same histogram eligible. *)
  let decisions, _ = Devirt.run ~threshold:0.5 profile prog in
  Alcotest.(check int) "eager threshold speculates" 1 (List.length decisions)

(* ------------------------------------------------------------------ *)
(* Guard elimination                                                   *)
(* ------------------------------------------------------------------ *)

(* When the pointer operand is itself a known function address, constant
   folding proves the guard always-taken ([Rt.func_addr] is injective),
   the branch becomes unconditional, and the cleanup sweeps the now
   unreachable indirect arm: the pointer call is GONE, not just
   guarded. *)
let test_guard_elimination () =
  let prog = guarded_program () in
  let profile = monomorphic_profile () in
  let before = (Machine.run prog ~input:"").Machine.exit_code in
  let decisions, _ = Devirt.run ~threshold:0.8 profile prog in
  Alcotest.(check int) "speculated" 1 (List.length decisions);
  ignore (Driver.post_inline_cleanup prog);
  Il_check.check_exn prog;
  let main = prog.Il.funcs.(1) in
  Alcotest.(check int) "indirect call eliminated" 0
    (count_instrs is_call_ind main);
  Alcotest.(check int) "direct call remains" 1
    (count_instrs (is_direct_call_to 0) main);
  Alcotest.(check int) "elimination preserved semantics" before
    (Machine.run prog ~input:"").Machine.exit_code

(* ------------------------------------------------------------------ *)
(* From C source: measured histograms drive the rewrite                 *)
(* ------------------------------------------------------------------ *)

let dispatch_src =
  "extern int print_int(int n);\n\
   int add1(int x) { return x + 1; }\n\
   int add2(int x) { return x + 2; }\n\
   int (*tab[2])(int x) = { add1, add2 };\n\
   int main() {\n\
  \  int acc = 0; int k = 0;\n\
  \  for (k = 0; k < 10; k = k + 1) { acc = acc + tab[0](k); }\n\
  \  print_int(acc);\n\
  \  return 0;\n\
   }\n"

let test_measured_histogram_devirtualizes () =
  let prog = Testutil.compile dispatch_src in
  let { Profiler.profile; _ } =
    Profiler.profile ~keep_outputs:false prog ~inputs:[ "" ]
  in
  Alcotest.(check bool) "profiling recorded the indirect site" true
    (profile.Profile.vsites <> []);
  let out_before = (Machine.run prog ~input:"").Machine.output in
  let config = { Config.default with Config.devirt = true } in
  let report = Inliner.run ~config prog profile in
  (match report.Inliner.devirt with
  | [ d ] ->
    let target = prog.Il.funcs.(d.Devirt.d_target) in
    Alcotest.(check string) "speculated the measured target" "add1"
      target.Il.name;
    Alcotest.(check (float 1e-9)) "monomorphic site" 1.0 d.Devirt.d_share
  | ds ->
    Alcotest.failf "expected one devirtualized site, got %d" (List.length ds));
  Il_check.check_exn report.Inliner.program;
  Alcotest.(check string) "output unchanged" out_before
    (Machine.run report.Inliner.program ~input:"").Machine.output

(* ------------------------------------------------------------------ *)
(* End to end: espresso through the pipeline                            *)
(* ------------------------------------------------------------------ *)

let ptr_residual (r : Pipeline.result) =
  let _, _, ptr, _, _ = Classify.dynamic_summary r.Pipeline.post_classified in
  ptr

let test_espresso_end_to_end () =
  let bench = Suite.find "espresso" in
  let off = Pipeline.run bench in
  let on =
    Pipeline.run ~config:{ Config.default with Config.devirt = true } bench
  in
  Alcotest.(check bool) "plain run verifies" true off.Pipeline.outputs_match;
  Alcotest.(check bool) "speculating run verifies" true
    on.Pipeline.outputs_match;
  Alcotest.(check bool) "espresso's strategy table is speculated" true
    (on.Pipeline.inliner.Inliner.devirt <> []);
  Alcotest.(check bool) "plain inlining leaves no speculation" true
    (off.Pipeline.inliner.Inliner.devirt = []);
  let p_off = ptr_residual off and p_on = ptr_residual on in
  Alcotest.(check bool) "benchmark carries pointer traffic" true (p_off > 0.);
  if not (p_on < p_off) then
    Alcotest.failf
      "devirt did not reduce the pointer residual: %.1f calls/run (off) vs \
       %.1f (on)"
      p_off p_on

(* With devirt off the pipeline result must be byte-identical to a run
   that has never heard of the feature — the differential the golden
   snapshots also pin. *)
let test_devirt_off_is_identity () =
  let bench = Suite.find "cmp" in
  let a = Pipeline.run bench in
  let b = Pipeline.run ~config:{ Config.default with Config.devirt = false } bench in
  Alcotest.(check string) "explicit devirt=false is the default pipeline"
    (Il_pp.dump a.Pipeline.inliner.Inliner.program)
    (Il_pp.dump b.Pipeline.inliner.Inliner.program);
  Alcotest.(check bool) "no decisions either way" true
    (a.Pipeline.inliner.Inliner.devirt = []
    && b.Pipeline.inliner.Inliner.devirt = [])

(* A static-uniform profile carries no value data, so an old saved
   profile or a degraded run can never be speculated on. *)
let test_static_profile_never_speculates () =
  let prog = Testutil.compile dispatch_src in
  let profile =
    Profile.static_uniform
      ~nfuncs:(Array.length prog.Il.funcs)
      ~nsites:prog.Il.next_site
  in
  let config = { Config.default with Config.devirt = true } in
  let report = Inliner.run ~config prog profile in
  Alcotest.(check bool) "nothing to speculate on" true
    (report.Inliner.devirt = [])

let tests =
  [
    Alcotest.test_case "v4 value-profile header round-trips" `Quick
      test_v4_roundtrip;
    Alcotest.test_case "profiles without value data keep v2/v3 bytes" `Quick
      test_no_vsites_keeps_v2_bytes;
    Alcotest.test_case "corrupt histograms degrade to no-devirt" `Quick
      test_corrupt_vsites_degrade_to_no_devirt;
    Alcotest.test_case "rewrite shape, decisions and weight transfer" `Quick
      test_rewrite_shape_and_weights;
    Alcotest.test_case "speculation threshold is respected" `Quick
      test_threshold_respected;
    Alcotest.test_case "always-taken guards are eliminated" `Quick
      test_guard_elimination;
    Alcotest.test_case "measured histograms drive the rewrite" `Quick
      test_measured_histogram_devirtualizes;
    Alcotest.test_case "espresso end to end: residual drops, outputs match"
      `Quick test_espresso_end_to_end;
    Alcotest.test_case "devirt off is the identity" `Quick
      test_devirt_off_is_identity;
    Alcotest.test_case "static profiles never speculate" `Quick
      test_static_profile_never_speculates;
  ]
