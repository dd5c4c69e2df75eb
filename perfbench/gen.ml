(* Seeded C programs for the [compile] and [serve] workloads.

   A program is a layered call DAG: level 0 holds leaf functions, and
   every function at level l > 0 makes two calls into level l - 1, the
   first to its own index so that every function below has a caller
   (at level 1 the second call may go to a self-recursive function with
   a depth parameter instead).  Beside the DAG sit a table of pointers
   to leaf functions and two helpers calling through it, and a [main]
   that reads its short input into a global array and runs phases of
   [reps] loop trips, each calling one top-level function or one of the
   helpers.  So most call sites run [reps] times or more per run,
   clearing the paper's weight threshold of 10.

   Termination and trap-freedom by construction, as in the test suite's
   generator this follows: loops have fixed bounds, recursion passes
   [d - 1] under a [d <= 0] base case, divisors are [1 + (e & 15)] and
   subscripts are masked to the array size. *)

module Rng = Impact_support.Rng

type shape = {
  levels : int;  (** DAG depth, main excluded *)
  width : int;  (** functions per level *)
  recursive : int;  (** self-recursive functions *)
  reps : int;  (** trips of every main phase *)
  stmts : int;  (** upper bound of plain statements per body *)
}

(* Sized so that the front end and the inliner dominate one pipeline
   run: ~500 source lines, a few tens of thousands of dynamic ILs. *)
let compile_shape = { levels = 3; width = 12; recursive = 2; reps = 12; stmts = 7 }

(* Smaller programs for the serving mix: a request must stay cheap
   enough that two connections produce hundreds per second. *)
let serve_shape = { levels = 3; width = 4; recursive = 1; reps = 12; stmts = 5 }

let arrays = [| ("ga", 15); ("gb", 7); ("inp", 7); ("la", 3) |]
let vars = [| "p"; "q"; "x"; "y"; "gs" |]
let writable = [| "x"; "y"; "gs" |]

let expr rng depth =
  let buf = Buffer.create 64 in
  let rec go depth =
    if depth = 0 || Rng.chance rng 1 3 then
      match Rng.int rng 5 with
      | 0 -> Buffer.add_string buf (string_of_int (Rng.range rng (-9) 99))
      | 1 | 2 | 3 -> Buffer.add_string buf (Rng.choose rng vars)
      | _ ->
        let name, mask = Rng.choose rng arrays in
        Printf.bprintf buf "%s[(" name;
        go 0;
        Printf.bprintf buf ") & %d]" mask
    else
      match Rng.choose rng [| "+"; "-"; "*"; "&"; "|"; "^"; "<"; "=="; "/"; "%" |] with
      | ("/" | "%") as op ->
        Buffer.add_char buf '(';
        go (depth - 1);
        Printf.bprintf buf " %s (1 + ((" op;
        go (depth - 1);
        Buffer.add_string buf ") & 15)))"
      | op ->
        Buffer.add_char buf '(';
        go (depth - 1);
        Printf.bprintf buf " %s " op;
        go (depth - 1);
        Buffer.add_char buf ')'
  in
  go depth;
  Buffer.contents buf

(* Plain statements: no calls, so a body's dynamic cost is bounded by
   its static size times the small loop bounds. *)
let plain_stmt rng buf =
  let lhs = Rng.choose rng writable in
  match Rng.int rng 4 with
  | 0 -> Printf.bprintf buf "  %s = %s;\n" lhs (expr rng 3)
  | 1 ->
    let name, mask = Rng.choose rng [| ("ga", 15); ("gb", 7); ("la", 3) |] in
    Printf.bprintf buf "  %s[(%s) & %d] = %s;\n" name (expr rng 1) mask
      (expr rng 2)
  | 2 ->
    Printf.bprintf buf "  if (%s) { %s = %s; } else { %s = %s; }\n"
      (expr rng 2) lhs (expr rng 2) lhs (expr rng 2)
  | _ ->
    Printf.bprintf buf
      "  for (it = 0; it < %d; it = it + 1) { %s = %s + it; }\n"
      (Rng.range rng 2 5) lhs (expr rng 2)

let fname ~level i = Printf.sprintf "f%d_%d" level i

let body_open buf name =
  Printf.bprintf buf "int %s(int p, int q) {\n" name;
  Buffer.add_string buf "  int x = 1; int y = 2; int it = 0; int la[4];\n";
  Buffer.add_string buf "  la[0] = p; la[1] = q; la[2] = x; la[3] = y;\n"

let program rng s =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "extern int getchar();\nextern int print_int(int n);\n\
     int ga[16];\nint gb[8];\nint inp[8];\nint gs;\n";
  for r = 0 to s.recursive - 1 do
    Printf.bprintf buf
      "int r%d(int p, int d) {\n\
      \  if (d <= 0) { return p & 255; }\n\
      \  return r%d((p * %d) ^ d, d - 1) + %s;\n\
       }\n"
      r r (Rng.range rng 3 9)
      (Rng.choose rng [| "d"; "p & 7"; "ga[(p) & 15]" |])
  done;
  for level = 0 to s.levels - 1 do
    for i = 0 to s.width - 1 do
      body_open buf (fname ~level i);
      let plain = Rng.range rng 2 s.stmts in
      let ncalls = if level = 0 then 0 else 2 in
      (* Interleave the call statements among the plain ones. *)
      let slots = Array.make (plain + ncalls) false in
      for k = 0 to ncalls - 1 do
        slots.(k) <- true
      done;
      Rng.shuffle rng slots;
      let call_no = ref 0 in
      Array.iter
        (fun is_call ->
          if not is_call then plain_stmt rng buf
          else begin
            let callee =
              if !call_no = 0 then fname ~level:(level - 1) i
              else if level = 1 && s.recursive > 0 && Rng.chance rng 1 3 then
                Printf.sprintf "r%d" (Rng.int rng s.recursive)
              else fname ~level:(level - 1) (Rng.int rng s.width)
            in
            incr call_no;
            let lhs = Rng.choose rng writable in
            let args =
              if callee.[0] = 'r' then
                Printf.sprintf "%s, %d" (expr rng 1) (Rng.range rng 1 3)
              else Printf.sprintf "%s, %s" (expr rng 1) (expr rng 1)
            in
            if Rng.chance rng 1 4 then
              Printf.bprintf buf "  if (%s) { %s = %s + %s(%s); }\n"
                (expr rng 1) lhs lhs callee args
            else Printf.bprintf buf "  %s = %s(%s);\n" lhs callee args
          end)
        slots;
      Printf.bprintf buf "  return %s;\n}\n" (expr rng 2)
    done
  done;
  let tab = min 4 s.width in
  Printf.bprintf buf "int (*tab[%d])(int p, int q) = { %s };\n" tab
    (String.concat ", " (List.init tab (fun i -> fname ~level:0 i)));
  (* Two dispatchers, so each indirect site sees one phase: [pick] a
     fixed slot (a single-target site, which devirtualization
     speculates), [dispatch] a varying one (a multi-target site). *)
  List.iter
    (fun name ->
      Printf.bprintf buf "int %s(int i, int p) { return tab[(i) & %d](p, i ^ p); }\n"
        name (tab - 1))
    [ "pick"; "dispatch" ];
  Buffer.add_string buf
    "int main() {\n\
    \  int acc = 0; int k = 0; int c = 0; int n = 0;\n\
    \  while ((c = getchar()) != -1) { inp[n & 7] = c; n = n + 1; }\n\
    \  for (k = 0; k < 16; k = k + 1) { ga[k] = k * 3 + inp[k & 7]; }\n\
    \  for (k = 0; k < 8; k = k + 1) { gb[k] = k - 5; }\n";
  let top = s.levels - 1 in
  for i = 0 to s.width - 1 do
    Printf.bprintf buf
      "  for (k = 0; k < %d; k = k + 1) { acc = acc + %s(k, acc & 255); }\n\
      \  print_int(acc & 65535);\n"
      s.reps (fname ~level:top i)
  done;
  Printf.bprintf buf
    "  for (k = 0; k < %d; k = k + 1) { acc = acc + pick(%d, acc & 127); }\n\
    \  for (k = 0; k < %d; k = k + 1) { acc = acc + dispatch(k + n, acc & 127); }\n\
    \  print_int(acc);\n\
    \  return acc & 63;\n\
     }\n"
    s.reps (Rng.int rng tab) s.reps;
  Buffer.contents buf

let input rng = String.init (Rng.range rng 6 12) (fun _ -> Rng.letter rng)

(* One (source, input) case per index, each from its own stream, so a
   case does not depend on how many cases were drawn before it. *)
let case shape ~seed i =
  let rng = Rng.create ((seed * 1_000_003) + i) in
  let src = program rng shape in
  (src, input rng)
