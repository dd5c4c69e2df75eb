(* In-memory span recorder for the traced run.

   The benchmark wraps its own calls into each library in spans named
   [<layer>.<what>] (e.g. [cfront.parse], [core.expand]); nothing inside
   the libraries is instrumented.  A span records its parent (the span
   open when it started), the operation it belongs to, its interval and
   the minor-heap words the calling domain allocated inside it.  Spans
   stay in memory and are written out once, at the end of the run.

   [span] is single-threaded: every span of one recorder opens and
   closes on the same thread.  Threads that time their own intervals
   hand them to [add] under their own lock. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  op : int;  (** operation index, -1 outside any operation *)
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (** innermost first *)
  mutable op : int;
}

let create () = { spans = []; next_id = 0; open_ = []; op = -1 }

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let w0 = Gc.minor_words () in
  let t0 = Measure.now () in
  let finish () =
    let t1 = Measure.now () in
    t.open_ <- List.tl t.open_;
    t.spans <-
      { id; parent; op = t.op; name; t0; t1; minor_words = Gc.minor_words () -. w0 }
      :: t.spans
  in
  Fun.protect ~finally:finish f

(* [add t ~op name ~t0 ~t1] records a root span timed by the caller. *)
let add t ~op name ~t0 ~t1 =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; parent = -1; op; name; t0; t1; minor_words = 0. } :: t.spans

(* [with_op t ~root i f] runs [f] as operation [i] under one root span
   named [root]: ["op"] for the measured operation, ["probe"] for the
   extra measurements taken beside it. *)
let with_op t ~root i f =
  let saved = t.op in
  t.op <- i;
  Fun.protect ~finally:(fun () -> t.op <- saved) (fun () -> span t root f)

(* Optional recorder: untraced code passes [None] and pays one match. *)
let span_opt t name f = match t with None -> f () | Some t -> span t name f

let duration_ms s = (s.t1 -. s.t0) *. 1000.

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time: a span's duration minus what its direct children cover.
   Children run sequentially inside their parent, so their durations
   do not overlap. *)
let self_ms spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration_ms s
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration_ms s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* One root span and its descendants: the root's duration, and every
   named descendant's total duration, minor words and self time. *)
type view = {
  root : string;
  index : int;
  op_ms : float;
  by_name : (string, float * float) Hashtbl.t;  (** ms, minor words *)
  self_by_layer : (string, float) Hashtbl.t;  (** ms *)
}

let views t =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let rec top s =
    if s.parent < 0 then s
    else match Hashtbl.find_opt by_id s.parent with Some p -> top p | None -> s
  in
  let groups = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let r = top s in
      Hashtbl.replace groups r.id
        (s :: Option.value ~default:[] (Hashtbl.find_opt groups r.id)))
    t.spans;
  Hashtbl.fold
    (fun rid spans acc ->
      let root = Hashtbl.find by_id rid in
      let by_name = Hashtbl.create 16 in
      let self_by_layer = Hashtbl.create 16 in
      List.iter
        (fun (s, self) ->
          if s.id <> rid then begin
            let ms, w =
              Option.value ~default:(0., 0.) (Hashtbl.find_opt by_name s.name)
            in
            Hashtbl.replace by_name s.name (ms +. duration_ms s, w +. s.minor_words);
            let l = layer_of s.name in
            Hashtbl.replace self_by_layer l
              (self +. Option.value ~default:0. (Hashtbl.find_opt self_by_layer l))
          end)
        (self_ms spans);
      { root = root.name; index = root.op; op_ms = duration_ms root; by_name;
        self_by_layer }
      :: acc)
    groups []
  |> List.sort (fun a b -> compare (a.index, a.root) (b.index, b.root))

let name_ms v name =
  match Hashtbl.find_opt v.by_name name with Some (ms, _) -> ms | None -> 0.

let name_words v name =
  match Hashtbl.find_opt v.by_name name with Some (_, w) -> w | None -> 0.

let layer_self v layer =
  Option.value ~default:0. (Hashtbl.find_opt v.self_by_layer layer)

(* Op time outside every layer span. *)
let unattributed_ms v =
  v.op_ms -. Hashtbl.fold (fun _ ms acc -> acc +. ms) v.self_by_layer 0.

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f,\"minor_words\":%.0f}\n"
            s.id s.parent s.op s.name s.t0 s.t1 s.minor_words)
        (List.rev t.spans))
