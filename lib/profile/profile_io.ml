(* Profile serialisation.

   Current format (v4) adds the per-indirect-site value profile
   ("vsite" lines) on top of the v3 mode extension:

     impact-profile v4 <md5-of-program-dump | -> <full|min | ->
     ...
     vsite <site> <other-weight> <fid>:<weight> ...

   A v4 header is emitted only when the profile actually carries value
   data (some indirect site executed); otherwise the previous headers
   are kept — v3 when the writer states a mode:

     impact-profile v3 <md5-of-program-dump | -> <full|min>

   and v2 when it does not:

     impact-profile v2 <md5-of-program-dump | ->

   — which keeps {!profile_checksum} (and every cache artifact keyed by
   it) byte-stable for every profile without indirect-call data.  v3/v2
   files read back with an empty value profile (they predate it, and an
   empty value profile simply disables devirtualization); v1 files
   ("impact-profile 1") are still read and carry neither checksum nor
   mode, so staleness cannot be detected for them.

   The two modes are exact and bit-identical, so the recorded mode never
   makes a profile stale; it is still checked, and any other mode name
   (including a legacy "sampled", whose weights were approximate) is a
   parse error.

   "vsite" lines are deliberately forgiving in a different way from the
   rest of the format: a malformed, truncated or out-of-bounds value
   profile drops the *whole* value-profile component (degrading devirt
   to a no-op) instead of failing the parse — the arc/node weights are
   still trustworthy and the pass that consumes vsites is an optional
   speculation.

   Every failure mode (unreadable file, malformed line, negative or
   overflowing count, unknown section, checksum mismatch) surfaces as a
   typed {!Impact_support.Ierr.t} with stage [Profile_io], severity
   [Degradable] and recovery [Fallback_static]: a degrading driver may
   re-profile or fall back to uniform static weights (every arc below
   the paper's weight threshold — no inlining). *)

module Ierr = Impact_support.Ierr
module Fault = Impact_support.Fault

let magic_v2 = "impact-profile v2"
let magic_v3 = "impact-profile v3"
let magic_v4 = "impact-profile v4"

(* Bound on the targets a single vsite line may carry — generous
   against the writer's top-K truncation, tight against hostile
   input. *)
let max_vsite_targets = 64

(* Hard ceilings on the array sizes a profile file can request, so a
   hostile or corrupt "counts" line cannot drive [Array.make] into
   gigabytes (or an [Invalid_argument] crash). *)
let max_entries = 10_000_000
let max_runs = 1_000_000_000

let fail fmt =
  Ierr.error ~severity:Ierr.Degradable ~recovery:Ierr.Fallback_static
    Ierr.Profile_io fmt

let program_checksum prog = Digest.to_hex (Digest.string (Impact_il.Il_pp.dump prog))

let to_string ?checksum ?mode (p : Profile.t) =
  let buf = Buffer.create 1024 in
  (if p.Profile.vsites <> [] then begin
     (* Value data present: v4 header, with "-" standing in for an
        unstated mode exactly like an unrecorded checksum. *)
     Buffer.add_string buf magic_v4;
     Buffer.add_char buf ' ';
     Buffer.add_string buf (match checksum with Some c -> c | None -> "-");
     Buffer.add_char buf ' ';
     Buffer.add_string buf
       (match mode with Some m -> Coverage.mode_name m | None -> "-")
   end
   else
     match mode with
     | None ->
       (* No mode stated: keep the v2 header byte-for-byte, so
          [profile_checksum] — and every cached artifact keyed by it —
          is unchanged by the mode extension. *)
       Buffer.add_string buf magic_v2;
       Buffer.add_char buf ' ';
       Buffer.add_string buf (match checksum with Some c -> c | None -> "-")
     | Some m ->
       Buffer.add_string buf magic_v3;
       Buffer.add_char buf ' ';
       Buffer.add_string buf (match checksum with Some c -> c | None -> "-");
       Buffer.add_char buf ' ';
       Buffer.add_string buf (Coverage.mode_name m));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "runs %d\n" p.Profile.nruns);
  Buffer.add_string buf
    (Printf.sprintf "totals %.17g %.17g %.17g %.17g %.17g %.17g\n" p.Profile.avg_ils
       p.Profile.avg_cts p.Profile.avg_calls p.Profile.avg_returns
       p.Profile.avg_ext_calls p.Profile.avg_max_stack);
  Buffer.add_string buf
    (Printf.sprintf "counts %d %d\n"
       (Array.length p.Profile.func_weight)
       (Array.length p.Profile.site_weight));
  Array.iteri
    (fun fid w ->
      if w <> 0. then Buffer.add_string buf (Printf.sprintf "func %d %.17g\n" fid w))
    p.Profile.func_weight;
  Array.iteri
    (fun site w ->
      if w <> 0. then Buffer.add_string buf (Printf.sprintf "site %d %.17g\n" site w))
    p.Profile.site_weight;
  List.iter
    (fun (v : Profile.vsite) ->
      Buffer.add_string buf
        (Printf.sprintf "vsite %d %.17g" v.Profile.vs_site v.Profile.vs_other);
      List.iter
        (fun (t : Profile.vtarget) ->
          Buffer.add_string buf
            (Printf.sprintf " %d:%.17g" t.Profile.vt_fid t.Profile.vt_weight))
        v.Profile.vs_targets;
      Buffer.add_char buf '\n')
    p.Profile.vsites;
  Buffer.contents buf

(* Identity of a profile's *content*, for keying artifacts derived from
   it (the cached selection/expansion stage): two profiles with the
   same checksum steer the inliner identically, because the checksum
   covers the full canonical serialisation. *)
let profile_checksum p = Digest.to_hex (Digest.string (to_string p))

(* Tolerate files that went through DOS line endings or had their
   separators mangled (editors, diff tools): strip a trailing CR and
   split fields on any run of spaces/tabs. *)
let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

let split_fields l =
  String.split_on_char ' ' l
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun f -> f <> "")

(* A weight must be a finite non-negative float: counts of events cannot
   be negative, and NaN/infinity would poison every comparison the
   selector makes. *)
let weight_of_string line w =
  match float_of_string_opt w with
  | Some v when Float.is_finite v && v >= 0. -> v
  | Some _ -> fail "negative or non-finite weight in %S" line
  | None -> fail "bad weight %S in %S" w line

let parse ?expect_checksum s =
  let lines =
    String.split_on_char '\n' s
    |> List.map strip_cr
    |> List.filter (fun l -> String.trim l <> "")
  in
  let header, rest =
    match lines with
    | header :: rest -> (split_fields header, rest)
    | [] -> fail "empty profile"
  in
  let check_checksum checksum =
    match expect_checksum with
    | Some expected when checksum <> "-" && checksum <> expected ->
      fail "stale profile: checksum %s does not match program %s" checksum
        expected
    | _ -> ()
  in
  let check_mode mode =
    if Coverage.mode_of_string mode = None then
      fail "bad profile mode %S in header" mode
  in
  (match header with
  | [ "impact-profile"; "v4"; checksum; mode ] ->
    check_checksum checksum;
    (* "-" = unstated mode, like a "-" checksum. *)
    if mode <> "-" then check_mode mode
  | [ "impact-profile"; "v3"; checksum; mode ] ->
    check_checksum checksum;
    check_mode mode
  | [ "impact-profile"; "v2"; checksum ] ->
    (* v2 back-compat: no mode recorded (the format predates modes). *)
    check_checksum checksum
  | [ "impact-profile"; "1" ] ->
    (* v1 back-compat: no checksum recorded, staleness undetectable. *)
    ()
  | _ -> fail "missing %S header" magic_v2);
  let nruns = ref 0 in
  let totals = ref None in
  let sizes = ref None in
  let funcs = ref [] in
  let sites = ref [] in
  let vsites = ref [] in
  (* Value-profile lines degrade as a unit: the first malformed one
     poisons the whole component (see the header comment) — the parse
     keeps going and the profile reads back without value data. *)
  let vsites_ok = ref true in
  let parse_vtarget tok =
    match String.index_opt tok ':' with
    | None -> None
    | Some i -> (
      let fid = String.sub tok 0 i in
      let w = String.sub tok (i + 1) (String.length tok - i - 1) in
      match (int_of_string_opt fid, float_of_string_opt w) with
      | Some fid, Some w when fid >= 0 && Float.is_finite w && w >= 0. ->
        Some { Profile.vt_fid = fid; vt_weight = w }
      | _, _ -> None)
  in
  let parse_vsite site other targets =
    match (int_of_string_opt site, float_of_string_opt other) with
    | Some site, Some other
      when site >= 0
           && Float.is_finite other
           && other >= 0.
           && List.length targets <= max_vsite_targets -> (
      let parsed = List.map parse_vtarget targets in
      if List.exists Option.is_none parsed then None
      else
        match List.filter_map Fun.id parsed with
        | [] -> None (* a vsite records at least one resolved target *)
        | vs_targets ->
          Some { Profile.vs_site = site; vs_targets; vs_other = other })
    | _, _ -> None
  in
  List.iter
    (fun line ->
      match split_fields line with
      | [ "runs"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 && n <= max_runs -> nruns := n
        | Some _ | None -> fail "bad run count %S" n)
      | [ "totals"; a; b; c; d; e; f ] -> (
        match List.map (weight_of_string line) [ a; b; c; d; e; f ] with
        | [ a; b; c; d; e; f ] -> totals := Some (a, b, c, d, e, f)
        | _ -> assert false)
      | [ "counts"; nf; ns ] -> (
        match (int_of_string_opt nf, int_of_string_opt ns) with
        | Some nf, Some ns
          when nf >= 0 && ns >= 0 && nf <= max_entries && ns <= max_entries ->
          sizes := Some (nf, ns)
        | Some nf, Some ns when nf >= 0 && ns >= 0 ->
          fail "counts line requests %d/%d entries (limit %d)" nf ns max_entries
        | _, _ -> fail "bad counts line %S" line)
      | [ "func"; fid; w ] -> (
        match int_of_string_opt fid with
        | Some fid when fid >= 0 ->
          funcs := (fid, weight_of_string line w) :: !funcs
        | Some _ | None -> fail "bad func line %S" line)
      | [ "site"; id; w ] -> (
        match int_of_string_opt id with
        | Some id when id >= 0 -> sites := (id, weight_of_string line w) :: !sites
        | Some _ | None -> fail "bad site line %S" line)
      | "vsite" :: site :: other :: targets ->
        if !vsites_ok then (
          match parse_vsite site other targets with
          | Some v -> vsites := v :: !vsites
          | None -> vsites_ok := false)
      | [ "vsite" ] | [ "vsite"; _ ] ->
        (* Truncated vsite line: drop the component, keep the parse. *)
        vsites_ok := false
      | section :: _ -> fail "unknown section %S in line %S" section line
      | [] -> assert false (* blank lines were filtered *))
    rest;
  let nf, ns =
    match !sizes with
    | Some sizes -> sizes
    | None -> fail "missing counts line"
  in
  let a, b, c, d, e, f =
    match !totals with
    | Some t -> t
    | None -> fail "missing totals line"
  in
  if !nruns = 0 then fail "missing runs line";
  let func_weight = Array.make (max nf 1) 0. in
  let site_weight = Array.make (max ns 1) 0. in
  List.iter
    (fun (fid, w) ->
      if fid >= nf then fail "func id %d out of bounds %d" fid nf;
      func_weight.(fid) <- w)
    !funcs;
  List.iter
    (fun (id, w) ->
      if id >= ns then fail "site id %d out of bounds %d" id ns;
      site_weight.(id) <- w)
    !sites;
  (* Bounds and uniqueness for the value profile are checked against
     the counts line; any violation is stale/corrupt value data and —
     unlike the weight sections — drops the component, not the file. *)
  let vsites =
    if not !vsites_ok then []
    else begin
      let vs =
        List.sort
          (fun (x : Profile.vsite) y -> compare x.Profile.vs_site y.Profile.vs_site)
          !vsites
      in
      let ok =
        List.for_all
          (fun (v : Profile.vsite) ->
            v.Profile.vs_site < ns
            && List.for_all (fun t -> t.Profile.vt_fid < nf) v.Profile.vs_targets)
          vs
        &&
        match vs with
        | [] -> true
        | first :: rest ->
          fst
            (List.fold_left
               (fun (distinct, prev) (v : Profile.vsite) ->
                 (distinct && v.Profile.vs_site > prev, v.Profile.vs_site))
               (true, first.Profile.vs_site)
               rest)
      in
      if ok then vs else []
    end
  in
  {
    Profile.nruns = !nruns;
    func_weight;
    site_weight;
    vsites;
    avg_ils = a;
    avg_cts = b;
    avg_calls = c;
    avg_returns = d;
    avg_ext_calls = e;
    avg_max_stack = f;
  }

let of_string ?expect_checksum s =
  match
    Fault.hit Fault.Profile_read;
    parse ?expect_checksum s
  with
  | p -> Ok p
  | exception Ierr.Error e -> Error e
  | exception e ->
    (* Catch-all floor: whatever goes wrong while parsing, the caller
       sees a typed profile-io error, never a raw exception. *)
    Error
      (Ierr.of_exn ~severity:Ierr.Degradable ~recovery:Ierr.Fallback_static
         Ierr.Profile_io e)

let of_string_exn ?expect_checksum s =
  match of_string ?expect_checksum s with
  | Ok p -> p
  | Error e -> raise (Ierr.Error e)

(* Write-to-temp then rename (via Atomic_io), so a crash mid-write never
   leaves a truncated profile at [path]: the reader sees either the old
   file or the complete new one. *)
let save ?checksum ?mode path p =
  match
    Fault.hit Fault.Profile_write;
    Impact_support.Atomic_io.write_string path (to_string ?checksum ?mode p)
  with
  | () -> ()
  | exception (Ierr.Error _ as e) -> raise e
  | exception e ->
    raise
      (Ierr.Error
         (Ierr.of_exn ~severity:Ierr.Degradable ~recovery:Ierr.Abort
            Ierr.Profile_io e))

let load ?expect_checksum path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> of_string ?expect_checksum s
  | exception e ->
    Error
      (Ierr.of_exn ~severity:Ierr.Degradable ~recovery:Ierr.Fallback_static
         Ierr.Profile_io e)

let load_exn ?expect_checksum path =
  match load ?expect_checksum path with
  | Ok p -> p
  | Error e -> raise (Ierr.Error e)
