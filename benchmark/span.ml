(* In-memory span recorder for the benchmark's traced run.

   Spans are recorded from the benchmark's own code, around its calls
   into each layer's public functions. Nesting follows a stack, so
   [with_] is for the single-threaded replay and decomposition; client
   threads record finished spans with [add] instead. Nothing is written
   until [write], once, at exit. *)

let now = Ctx.now

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  req : int option;  (* request id: a grid job index or a serve request *)
  tid : int;  (* Chrome track: 0 = main, 1 + client index for serve *)
}

let mu = Mutex.create ()
let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let add ?parent ?req ?(tid = 0) name ~start ~stop =
  locked (fun () ->
      spans := { id = fresh_id (); name; start; stop; parent; req; tid } :: !spans)

(* [with_ name f] times [f ()] as a child of the innermost open span. *)
let with_ ?req name f =
  let id, parent =
    locked (fun () ->
        let id = fresh_id () in
        let parent = match !stack with p :: _ -> Some p | [] -> None in
        stack := id :: !stack;
        (id, parent))
  in
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      locked (fun () ->
          stack := List.tl !stack;
          spans := { id; name; start; stop; parent; req; tid = 0 } :: !spans))
    f

let current () = locked (fun () -> match !stack with p :: _ -> Some p | [] -> None)
let all () = locked (fun () -> List.rev !spans)
let dur s = s.stop -. s.start

(* Self time of every span: its duration minus the part its direct
   children cover. Children of one parent never overlap, except the two
   serve clients' request spans, so the serve root's self time is
   clamped at 0. *)
let self_times spans =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child_sum p
            (dur s +. Option.value (Hashtbl.find_opt child_sum p) ~default:0.)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child_sum s.id) ~default:0. in
      (s, Float.max 0. (dur s -. c)))
    spans

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The spans below [root] whose name starts with [prefix]. *)
let under root prefix =
  let spans = all () in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec below s =
    match s.parent with
    | Some p when p = root.id -> true
    | Some p -> ( match Hashtbl.find_opt by_id p with Some ps -> below ps | None -> false)
    | None -> false
  in
  List.filter (fun s -> has_prefix prefix s.name && below s) spans

let total root prefix = List.fold_left (fun acc s -> acc +. dur s) 0. (under root prefix)
let count root prefix = List.length (under root prefix)

let self_table () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, tot, slf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, tot +. dur s, slf +. self))
    (self_times (all ()));
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let pp_self_table ppf () =
  Fmt.pf ppf "%-32s %7s %11s %11s@." "span" "count" "total s" "self s";
  List.iter
    (fun (name, n, tot, slf) -> Fmt.pf ppf "%-32s %7d %11.3f %11.3f@." name n tot slf)
    (self_table ())

(* Share of [root]'s wall time that layer spans cover: 1 minus the self
   time of [root] and of the [wrappers] below it (spans that only group
   others, like one grid job), over [root]'s duration. *)
let coverage ?(wrappers = []) root =
  let self = Hashtbl.create 1024 in
  List.iter (fun (s, t) -> Hashtbl.replace self s.id t) (self_times (all ()));
  let wrapped = List.filter (fun s -> List.mem s.name wrappers) (under root "") in
  let uncovered =
    List.fold_left (fun acc s -> acc +. Hashtbl.find self s.id) (Hashtbl.find self root.id) wrapped
  in
  1. -. (uncovered /. dur root)

module Json = Ninja_report.Json

let write ~path =
  let spans = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity spans in
  let num f = Json.Num f in
  let opt = function Some i -> num (float_of_int i) | None -> Json.Null in
  let raw =
    Json.List
      (List.map
         (fun s ->
           Json.Obj
             [ ("id", num (float_of_int s.id)); ("name", Json.Str s.name);
               ("start_s", num (s.start -. t0)); ("end_s", num (s.stop -. t0));
               ("parent", opt s.parent); ("req", opt s.req) ])
         spans)
  in
  let chrome =
    Json.Obj
      [ ( "traceEvents",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   [ ("name", Json.Str s.name); ("ph", Json.Str "X");
                     ("ts", num (Float.round ((s.start -. t0) *. 1e6)));
                     ("dur", num (Float.round (dur s *. 1e6)));
                     ("pid", num 1.); ("tid", num (float_of_int s.tid));
                     ("args", Json.Obj [ ("req", opt s.req) ]) ])
               spans) );
        ("displayTimeUnit", Json.Str "ms") ]
  in
  Ctx.write_file path (Json.to_string raw);
  Ctx.write_file (Filename.remove_extension path ^ ".chrome.json") (Json.to_string chrome)
