(* The persistent content-addressed result store.

   Every simulation in this repository is a pure function of (compiled
   program, machine configuration, step semantics, simulator version), so
   its report can be cached on disk across processes. An entry's key is a
   digest over exactly those inputs:

   - the *decoded* program ({!Ninja_vm.Decode.fingerprint} — the flat op
     arrays the interpreter executes, not the source that produced them),
   - a canonical fingerprint of every machine parameter the timing model
     reads (including the per-op-class issue-cost vector, so editing a
     cost table invalidates entries even though the machine keeps its
     name),
   - the ladder step name (steps also differ in thread count, launch
     count and prepare hooks, which live outside the program), and
   - the store's version salt, bumped whenever the timing model's
     semantics change.

   Values are the full {!Ninja_arch.Timing.report} records, serialized
   with the {!Ninja_report.Json} printer (whose number rendering is
   shortest-round-trip, so every float reloads bit-identically — warm
   tables are byte-identical to cold ones). Writes go to a unique temp
   file followed by an atomic [Sys.rename], so concurrent writers of the
   same key are safe (both write identical bytes; last rename wins).
   Loads re-verify the key digest and a payload checksum and re-parse
   strictly; any corruption, truncation, staleness or version skew makes
   [load] return [None] — the caller falls through to re-simulation, so
   the store can never return wrong data, only miss.

   The store also aggregates per-ladder-step simulation costs
   (costs.json) that {!Jobs.prefill} uses to seed the work-stealing
   deques longest-expected-first. *)

module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Hierarchy = Ninja_arch.Hierarchy
module Counts = Ninja_vm.Counts
module Isa = Ninja_vm.Isa
module Decode = Ninja_vm.Decode
module Json = Ninja_report.Json

(* Bump whenever the timing model or interpreter semantics change in a
   way the program/machine fingerprints cannot see.
   v2: keys gained an optimizer-pass-list component, so entries produced
   by optimized op arrays can never alias unoptimized ones.
   v4: keys gained an execution-backend component
   ({!Ninja_vm.Interp.strategy_tag}), so entries produced by the
   closure-compiled executor can never alias interpreted ones.
   v5: the optimizer-pass-list component went away with the optimized
   executor — the backend tag ("compiled:<passes>") carries the pass list. *)
let version_salt = "ninja-store/v5"

let default_dir = "_ninja_cache"

type stats = { hits : int; misses : int; errors : int; writes : int }

type t = {
  dir : string;
  salt : string;
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable errors : int;
  mutable writes : int;
  cost_acc : (string, float * int) Hashtbl.t;  (* step -> (sum_s, n) *)
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> () (* concurrent creator *)
  end

let open_ ?(salt = version_salt) ~dir () =
  mkdir_p dir;
  {
    dir;
    salt;
    mu = Mutex.create ();
    hits = 0;
    misses = 0;
    errors = 0;
    writes = 0;
    cost_acc = Hashtbl.create 8;
  }

let dir t = t.dir

(* Throwaway stores: a fresh unique directory under the system temp dir,
   for smoke gates and load tests whose "cold" must mean cold whatever
   state the build directory is in. *)
let scratch ?salt () =
  let d = Filename.temp_file "ninja-scratch-store" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  open_ ?salt ~dir:d ()

let destroy t =
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists t.dir then rm_rf t.dir

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; errors = t.errors; writes = t.writes })

(* ------------------------------------------------------------------ *)
(* Key composition                                                     *)

(* Every parameter the timing model reads, in a fixed order. The issue
   cost function is fingerprinted by applying it to every op class, and
   gather cost separately (it also depends on gather_native/simd). *)
let machine_fingerprint (m : Machine.t) =
  let cache (c : Machine.cache_cfg) =
    Printf.sprintf "%d/%d/%d/%d" c.size_bytes c.assoc c.line_bytes c.latency
  in
  let costs =
    String.concat ","
      (List.map
         (fun cls -> Printf.sprintf "%h" (m.issue_cost cls))
         Isa.all_op_classes)
  in
  Printf.sprintf
    "%s|%h|%d|%d|%d|%b|%b|%b|%d|%s|%s|%s|%d|%h|%d|%d|costs:%s|gather:%h"
    m.name m.freq_ghz m.cores m.simd_width m.issue_width m.fma_native
    m.gather_native m.prefetch m.mlp (cache m.l1) (cache m.l2) (cache m.llc)
    m.dram_latency m.dram_bw_gbs m.barrier_cycles m.spawn_cycles costs
    (Machine.gather_cost m)

let key_of_fingerprint ?(backend = "") t ~machine ~step_name prog_fp =
  (* [backend] is the {!Ninja_vm.Interp.strategy_tag} of the execution
     backend ("" = backend-agnostic), pass list included. The
     fingerprint hashes the *unoptimized* decode, so without it an entry
     simulated through a buggy pass — or a buggy compiled executor —
     could satisfy a later tree-walker lookup (and vice versa); mixing
     the tag in keeps the key spaces disjoint. *)
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ t.salt; machine_fingerprint machine; step_name; prog_fp; backend ]))

let key ?backend t ~machine ~step_name prog =
  key_of_fingerprint ?backend t ~machine ~step_name (Decode.fingerprint (Decode.decode prog))

(* ------------------------------------------------------------------ *)
(* Report (de)serialization                                            *)

let all_levels = Hierarchy.[ L1; L2; LLC; Dram ]

let level_of_name s =
  match List.find_opt (fun l -> Hierarchy.level_name l = s) all_levels with
  | Some l -> l
  | None -> failwith ("Store: unknown cache level " ^ s)

let bound_of_name = function
  | "compute" -> Timing.Compute
  | "bandwidth" -> Timing.Bandwidth
  | "latency" -> Timing.Latency
  | s -> failwith ("Store: unknown bound " ^ s)

let counts_to_json ~n_threads counts =
  Json.List
    (List.init n_threads (fun thread ->
         Json.List
           (Array.to_list
              (Array.map
                 (fun n -> Json.Num (float_of_int n))
                 (Counts.thread_row counts ~thread)))))

let report_to_json (r : Timing.report) =
  Json.Obj
    [
      ("machine", Json.Str r.machine.Machine.name);
      ("n_threads", Json.Num (float_of_int r.n_threads));
      ("cycles", Json.Num r.cycles);
      ("seconds", Json.Num r.seconds);
      ("issue_cycles", Json.Num r.issue_cycles);
      ("stall_cycles", Json.Num r.stall_cycles);
      ("dram_time", Json.Num r.dram_time);
      ("overhead_cycles", Json.Num r.overhead_cycles);
      ("dram_read_bytes", Json.Num (float_of_int r.dram_read_bytes));
      ("dram_write_bytes", Json.Num (float_of_int r.dram_write_bytes));
      ("instructions", Json.Num (float_of_int r.instructions));
      ("bound", Json.Str (Timing.bound_name r.bound));
      ( "level_accesses",
        Json.Obj
          (List.map
             (fun (l, n) ->
               (Hierarchy.level_name l, Json.Num (float_of_int n)))
             r.level_accesses) );
      ("counts", counts_to_json ~n_threads:r.n_threads r.counts);
    ]

(* Strict readers: any shape violation raises, and [load] maps every
   exception to a miss. *)
let get k j = match Json.member k j with Some v -> v | None -> failwith ("Store: missing field " ^ k)
let num k j = match Json.to_float (get k j) with Some x -> x | None -> failwith ("Store: non-number " ^ k)
let str k j = match Json.to_str (get k j) with Some s -> s | None -> failwith ("Store: non-string " ^ k)
let int_ k j =
  let x = num k j in
  if Float.is_integer x then int_of_float x else failwith ("Store: non-integer " ^ k)

let counts_of_json ~n_threads j =
  let rows = match Json.to_list j with Some l -> l | None -> failwith "Store: counts not a list" in
  if List.length rows <> n_threads then failwith "Store: counts thread mismatch";
  let counts = Counts.create n_threads in
  List.iteri
    (fun thread row ->
      let cells = match Json.to_list row with Some l -> l | None -> failwith "Store: counts row" in
      if List.length cells <> Isa.op_class_count then failwith "Store: counts width";
      let dst = Counts.thread_row counts ~thread in
      List.iteri
        (fun i c ->
          match Json.to_float c with
          | Some x when Float.is_integer x -> dst.(i) <- int_of_float x
          | _ -> failwith "Store: counts cell")
        cells)
    rows;
  counts

let report_of_json ~machine j =
  if str "machine" j <> machine.Machine.name then
    failwith "Store: machine name mismatch";
  let n_threads = int_ "n_threads" j in
  let levels =
    match get "level_accesses" j with
    | Json.Obj fields ->
        List.map (fun (name, v) ->
            match Json.to_float v with
            | Some x when Float.is_integer x -> (level_of_name name, int_of_float x)
            | _ -> failwith "Store: level count")
          fields
    | _ -> failwith "Store: level_accesses"
  in
  {
    Timing.machine;
    n_threads;
    cycles = num "cycles" j;
    seconds = num "seconds" j;
    issue_cycles = num "issue_cycles" j;
    stall_cycles = num "stall_cycles" j;
    dram_time = num "dram_time" j;
    overhead_cycles = num "overhead_cycles" j;
    dram_read_bytes = int_ "dram_read_bytes" j;
    dram_write_bytes = int_ "dram_write_bytes" j;
    counts = counts_of_json ~n_threads (get "counts" j);
    instructions = int_ "instructions" j;
    level_accesses = levels;
    bound = bound_of_name (str "bound" j);
  }

(* ------------------------------------------------------------------ *)
(* Entry files                                                         *)

(* Two-level layout (aa/aabbcc...json) keeps directory listings short on
   large grids. *)
let entry_path t key = Filename.concat (Filename.concat t.dir (String.sub key 0 2)) (key ^ ".json")

let payload_checksum report_json =
  Digest.to_hex (Digest.string (Json.to_string ~indent:false report_json))

let entry_schema = "ninja-store-entry/v1"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let atomic_write ~path content =
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%x" path (Unix.getpid ()) (Hashtbl.hash (Domain.self ()))
  in
  let oc = open_out_bin tmp in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let record_cost t ~step_name ~cost_s =
  locked t (fun () ->
      let sum, n = Option.value (Hashtbl.find_opt t.cost_acc step_name) ~default:(0., 0) in
      Hashtbl.replace t.cost_acc step_name (sum +. cost_s, n + 1))

let save t ~key ~machine ~step_name ~cost_s report =
  let report_json = report_to_json report in
  let entry =
    Json.Obj
      [
        ("schema", Json.Str entry_schema);
        ("key", Json.Str key);
        ("machine", Json.Str machine.Machine.name);
        ("step", Json.Str step_name);
        ("cost_s", Json.Num cost_s);
        ("checksum", Json.Str (payload_checksum report_json));
        ("report", report_json);
      ]
  in
  atomic_write ~path:(entry_path t key) (Json.to_string entry);
  locked t (fun () -> t.writes <- t.writes + 1);
  record_cost t ~step_name ~cost_s

(* Parse the entry at [path] and hand it to [verify], which raises on any
   mismatch. Every failure is a counted miss; one on an existing file is
   also a dropped corruption — the caller recomputes and overwrites it. *)
let read_verified t path verify =
  if not (Sys.file_exists path) then begin
    locked t (fun () -> t.misses <- t.misses + 1);
    None
  end
  else
    match verify (Json.parse (read_file path)) with
    | v ->
        locked t (fun () -> t.hits <- t.hits + 1);
        Some v
    | exception _ ->
        locked t (fun () ->
            t.errors <- t.errors + 1;
            t.misses <- t.misses + 1);
        None

let load t ~key ~machine =
  read_verified t (entry_path t key) (fun j ->
      if str "schema" j <> entry_schema then failwith "Store: entry schema";
      if str "key" j <> key then failwith "Store: key mismatch";
      let report_json = get "report" j in
      if str "checksum" j <> payload_checksum report_json then
        failwith "Store: checksum mismatch";
      report_of_json ~machine report_json)

(* ------------------------------------------------------------------ *)
(* Derived-product entries                                             *)

(* Products computed from a simulated program that are as deterministic
   as its report — T4's profile summary, a tuning winner's validation
   verdict — keyed by the report key plus a versioned kind. They live
   beside the report entry, go through the same atomic write and the same
   load checks (key, checksum, strict parse), and count in the same
   stats. The key carries the salt, so a salt bump drops them too; a
   change the key cannot see (profile attribution, a benchmark's check
   or dataset) must bump the kind's version instead. *)

let derived_schema = "ninja-store-derived/v1"

let derived_path t ~key ~kind =
  let file = String.map (function '/' -> '-' | c -> c) kind in
  Filename.concat (Filename.dirname (entry_path t key)) (Printf.sprintf "%s.%s.json" key file)

let derived_save t ~key ~kind payload =
  let entry =
    Json.Obj
      [
        ("schema", Json.Str derived_schema);
        ("key", Json.Str key);
        ("kind", Json.Str kind);
        ("checksum", Json.Str (payload_checksum payload));
        ("payload", payload);
      ]
  in
  atomic_write ~path:(derived_path t ~key ~kind) (Json.to_string entry);
  locked t (fun () -> t.writes <- t.writes + 1)

let derived_load t ~key ~kind decode =
  read_verified t (derived_path t ~key ~kind) (fun j ->
      if str "schema" j <> derived_schema then failwith "Store: derived schema";
      if str "key" j <> key then failwith "Store: key mismatch";
      if str "kind" j <> kind then failwith "Store: kind mismatch";
      let payload = get "payload" j in
      if str "checksum" j <> payload_checksum payload then
        failwith "Store: checksum mismatch";
      decode payload)

let derived t ~key ~kind ~encode ~decode compute =
  match derived_load t ~key ~kind decode with
  | Some v -> v
  | None ->
      let v = compute () in
      derived_save t ~key ~kind (encode v);
      v

(* [load] also surfaces the stored per-key cost for callers that want it
   without deserializing the whole report. *)
let entry_cost t ~key =
  let path = entry_path t key in
  if not (Sys.file_exists path) then None
  else
    match num "cost_s" (Json.parse (read_file path)) with
    | c -> Some c
    | exception _ -> None

(* ------------------------------------------------------------------ *)
(* Per-step cost estimates (scheduler seeding)                         *)

let costs_path t = Filename.concat t.dir "costs.json"

let step_costs t =
  match
    let j = Json.parse (read_file (costs_path t)) in
    match j with
    | Json.Obj fields ->
        List.filter_map
          (fun (step, v) -> Option.map (fun c -> (step, c)) (Json.to_float v))
          fields
    | _ -> []
  with
  | costs -> costs
  | exception _ -> []

let flush_costs t =
  let acc = locked t (fun () ->
      let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cost_acc [] in
      Hashtbl.reset t.cost_acc;
      l)
  in
  if acc <> [] then begin
    let old = step_costs t in
    (* exponential blend toward the latest mean keeps estimates adaptive
       without a full history *)
    let merged =
      List.sort_uniq compare (List.map fst old @ List.map fst acc)
      |> List.map (fun step ->
             let fresh =
               Option.map (fun (s, n) -> s /. float_of_int n)
                 (List.assoc_opt step acc)
             in
             let prev = List.assoc_opt step old in
             let v =
               match (prev, fresh) with
               | Some p, Some f -> (0.5 *. p) +. (0.5 *. f)
               | None, Some f -> f
               | Some p, None -> p
               | None, None -> assert false
             in
             (step, Json.Num v))
    in
    atomic_write ~path:(costs_path t) (Json.to_string (Json.Obj merged))
  end
