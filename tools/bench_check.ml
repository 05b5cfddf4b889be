(* Validator for the committed benchmark reports.

   `bench_check.exe [--fresh FILE] FILE...` re-parses every given
   BENCH_*.json, dispatches on its "schema" field, and checks the
   report's internal consistency:

   - ninja-selfbench/v5 (BENCH_simulator.json): both configuration
     geomeans (compiled, baseline) present and positive, each equal (to
     float round-trip precision) to the geometric mean recomputed from
     the per-benchmark rows, the speedup field consistent with the
     geomeans it quotes, compiled at least as fast as baseline, the
     configurations object naming both backend tags, and — when a grid
     object is present — a cold pass that simulated every job and a warm
     pass that simulated none;
   - ninja-serve-bench/v1 (BENCH_serve.json): every phase fully
     successful (ok = requests, errors = 0), the warm phase serving
     without a single simulation, and the coalesce phase actually
     coalescing.

   With `--fresh FILE` (a just-measured selfbench report, normally the
   @bench-smoke run's bench-smoke.json), the two reports must name the
   same configurations (backend tags, pass list included), and the
   compiled-configuration throughput of every job present in both is
   compared like-for-like via the "job_times" arrays: a fresh geomean
   more than 30% below the committed one fails the run. This is the
   regression gate that keeps the committed BENCH_simulator.json
   honest — editing the simulator into a slower shape without
   regenerating the report fails `dune runtest` here. The threshold is deliberately loose:
   the committed numbers are minima over several interleaved timing
   rounds on a quiet host, while the fresh smoke is a near-one-shot
   measurement that routinely lands 15-25% low under scheduling noise,
   so a tight bound would flake without catching anything real.

   Exit status 0 when every check passes; 1 with a message on stderr
   otherwise. *)

module Json = Ninja_report.Json

let fail fmt = Fmt.kstr (fun m -> Fmt.epr "bench_check: %s@." m; exit 1) fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error m -> fail "%s" m in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse path =
  match Json.parse (read_file path) with
  | j -> j
  | exception _ -> fail "%s: unparseable JSON" path

let get ~path k j =
  match Json.member k j with
  | Some v -> v
  | None -> fail "%s: missing field %S" path k

let num ~path k j =
  match Json.to_float (get ~path k j) with
  | Some x -> x
  | None -> fail "%s: field %S is not a number" path k

let str ~path k j =
  match Json.to_str (get ~path k j) with
  | Some s -> s
  | None -> fail "%s: field %S is not a string" path k

let list_ ~path k j =
  match Json.to_list (get ~path k j) with
  | Some l -> l
  | None -> fail "%s: field %S is not a list" path k

let positive ~path k j =
  let x = num ~path k j in
  if not (x > 0.) then fail "%s: field %S is not positive (%g)" path k x;
  x

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (List.length xs))

(* Headline-vs-recomputed comparisons tolerate only float-noise: the
   writer's number rendering is shortest-round-trip, so the recomputed
   value differs from the stored one by at most accumulated log/exp
   rounding. *)
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* ------------------------------------------------------------------ *)
(* ninja-selfbench/v5                                                  *)

let check_selfbench ~path j =
  let configurations = get ~path "configurations" j in
  List.iter
    (fun (name, prefix) ->
      let tag = str ~path name configurations in
      if not (String.length tag >= String.length prefix
              && String.sub tag 0 (String.length prefix) = prefix) then
        fail "%s: configuration %S has tag %S (want %S...)" path name tag prefix)
    [ ("compiled", "compiled:"); ("baseline", "tree") ];
  let benches = list_ ~path "benchmarks" j in
  if benches = [] then fail "%s: empty benchmarks list" path;
  let recompute field = geomean (List.map (fun b -> positive ~path field b) benches) in
  let headline field recomputed =
    let x = positive ~path field j in
    if not (close x recomputed) then
      fail "%s: %s %g does not match per-benchmark geomean %g" path field x
        recomputed;
    x
  in
  let compiled =
    headline "compiled_geomean_ops_per_s" (recompute "compiled_ops_per_s")
  in
  let baseline =
    headline "baseline_geomean_ops_per_s" (recompute "baseline_ops_per_s")
  in
  let speedup = positive ~path "compiled_speedup" j in
  if not (close speedup (compiled /. baseline)) then
    fail "%s: compiled_speedup %g inconsistent with its geomeans (want %g)"
      path speedup (compiled /. baseline);
  if compiled < baseline then
    fail "%s: compiled geomean %.0f below baseline %.0f" path compiled baseline;
  ignore (positive ~path "wall_s" j);
  ignore (get ~path "sched" j);
  (match Json.member "grid" j with
  | None -> ()
  | Some g ->
      let jobs = positive ~path "jobs" g in
      let cold = num ~path "cold_executed" g in
      if cold <> jobs then
        fail "%s: grid.cold_executed is %g of %g jobs: the grid was not \
              measured cold" path cold jobs;
      if num ~path "warm_executed" g <> 0. then
        fail "%s: grid.warm_executed is nonzero" path);
  Fmt.pr "%s: ok (compiled geomean %.0f ops/s, %.2fx baseline)@." path compiled
    speedup

(* ------------------------------------------------------------------ *)
(* ninja-serve-bench/v1                                                *)

let check_serve ~path j =
  ignore (positive ~path "domains" j);
  let phases = list_ ~path "phases" j in
  if phases = [] then fail "%s: empty phases list" path;
  List.iter
    (fun p ->
      let phase = str ~path "phase" p in
      let requests = positive ~path "requests" p in
      let ok = num ~path "ok" p in
      if ok <> requests then
        fail "%s: phase %s: %g of %g requests ok" path phase ok requests;
      if num ~path "errors" p <> 0. then
        fail "%s: phase %s has errors" path phase;
      if phase = "warm" && num ~path "simulations" p <> 0. then
        fail "%s: warm phase ran simulations" path;
      if phase = "coalesce" && not (num ~path "coalesced" p > 0.) then
        fail "%s: coalesce phase coalesced nothing" path)
    phases;
  Fmt.pr "%s: ok (%d phases)@." path (List.length phases)

(* ------------------------------------------------------------------ *)
(* Fresh-vs-committed compiled-throughput regression gate              *)

type job = { ops : float; compiled_s : float }

let jobs_of ~path j =
  list_ ~path "job_times" j
  |> List.map (fun jt ->
         ( ( str ~path "bench" jt, str ~path "machine" jt, str ~path "step" jt ),
           { ops = positive ~path "ops" jt;
             compiled_s = positive ~path "compiled_s" jt } ))

let check_regression ~fresh_path ~committed_path fresh committed =
  (* job times measured under different pipelines are not comparable *)
  let configurations path j = Json.to_string ~indent:false (get ~path "configurations" j) in
  let fc = configurations fresh_path fresh
  and cc = configurations committed_path committed in
  if fc <> cc then
    fail "%s measured configurations %s, but %s has %s: regenerate %s"
      fresh_path fc committed_path cc committed_path;
  let committed_jobs = jobs_of ~path:committed_path committed in
  let shared =
    jobs_of ~path:fresh_path fresh
    |> List.filter_map (fun (k, f) ->
           Option.map (fun c -> (k, f, c)) (List.assoc_opt k committed_jobs))
  in
  if shared = [] then
    fail "%s and %s share no (bench, machine, step) jobs" fresh_path
      committed_path;
  List.iter
    (fun ((b, m, s), (f : job), (c : job)) ->
      if f.ops <> c.ops then
        fail "%s: job %s/%s/%s simulated %g ops, committed report says %g"
          fresh_path b m s f.ops c.ops)
    shared;
  let ratio =
    geomean
      (List.map
         (fun (_, f, c) -> f.ops /. f.compiled_s /. (c.ops /. c.compiled_s))
         shared)
  in
  if ratio < 0.7 then
    fail
      "compiled throughput regressed: fresh run is %.0f%% of the committed \
       report over %d shared jobs (>30%% regression; regenerate \
       BENCH_simulator.json if the slowdown is intended)"
      (100. *. ratio) (List.length shared);
  Fmt.pr "regression gate: fresh compiled throughput is %.0f%% of committed \
          over %d shared jobs@."
    (100. *. ratio) (List.length shared)

(* ------------------------------------------------------------------ *)

let () =
  let fresh = ref None and files = ref [] in
  let rec go = function
    | "--fresh" :: f :: tl ->
        fresh := Some f;
        go tl
    | "--fresh" :: [] -> fail "--fresh needs a file argument"
    | f :: tl ->
        files := f :: !files;
        go tl
    | [] -> ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if files = [] then fail "usage: bench_check [--fresh FILE] BENCH_file.json...";
  let committed_selfbench = ref None in
  List.iter
    (fun path ->
      let j = parse path in
      match str ~path "schema" j with
      | "ninja-selfbench/v5" ->
          check_selfbench ~path j;
          committed_selfbench := Some (path, j)
      | "ninja-serve-bench/v1" -> check_serve ~path j
      | s -> fail "%s: unknown schema %S" path s)
    files;
  match !fresh with
  | None -> ()
  | Some fresh_path -> (
      let fj = parse fresh_path in
      (match str ~path:fresh_path "schema" fj with
      | "ninja-selfbench/v5" -> ()
      | s -> fail "%s: fresh report has schema %S" fresh_path s);
      match !committed_selfbench with
      | None -> fail "--fresh given but no committed selfbench report among the files"
      | Some (committed_path, cj) ->
          check_regression ~fresh_path ~committed_path fj cj)
