(* The repository benchmark.

     run.exe [--workload grid|sim_kernels|serve_mixed] [--seed N]
             [--seconds S] [--trace 0|1] [--trace-out FILE] [--repeat N]
             [--smoke] [--regen-expected] [--root DIR] [--cli EXE]

   Without --trace (or with --trace 0) a run measures the end-to-end
   metrics of one workload (every workload when none is named), checks
   every output against its oracle, prints the metrics with unit and
   sample count on stderr, and prints one JSON line on stdout:
   {"correct", "attempted", "failed", "metrics"}. --trace 1 makes the
   separate traced run behind the per-layer metrics instead. It exits
   non-zero on any oracle mismatch. See benchmark/README.md. *)

module Json = Ninja_report.Json

let workloads = [ ("grid", Grid.run); ("sim_kernels", Sim.run); ("serve_mixed", Serve.run) ]

(* ---- argv ---- *)

let arg name =
  let rec go = function
    | a :: v :: _ when a = name -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go (List.tl (Array.to_list Sys.argv))

let flag name = Array.exists (( = ) name) Sys.argv

let int_arg name default =
  match arg name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> Printf.eprintf "%s: not an integer: %s\n" name v; exit 2)

(* ---- metrics ---- *)

let end_to_end (r : Ctx.result) : Ctx.metric list =
  [ { name = "setup_s"; unit_ = "s"; value = r.setup_s; samples = r.setup_n };
    { name = "p50_ms"; unit_ = "ms"; value = r.p50_ms; samples = r.n_ops };
    { name = "p99_ms"; unit_ = "ms"; value = r.p99_ms; samples = r.n_ops };
    { name = "wall_s"; unit_ = "s"; value = r.wall_s; samples = r.wall_n };
    { name = "peak_rss_mb"; unit_ = "MB"; value = r.peak_rss_mb; samples = 1 } ]

let result_json ~correct ~attempted ~failed metrics =
  let num f = Json.Num f in
  Json.to_string ~indent:false
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", num (float_of_int attempted));
         ("failed", num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Ctx.metric) ->
                  (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit_) ]))
                metrics) ) ])

(* The human-readable table goes to stderr; [quiet] (the smoke run)
   prints it only when something failed. *)
let report ~quiet ~label (r : Ctx.result) metrics =
  let ok = r.failed = 0 && r.problems = [] in
  if ok && quiet then ()
  else begin
    Printf.eprintf "%s: %d attempted, %d failed (error ratio %g)\n" label r.attempted r.failed
      (float_of_int r.failed /. float_of_int (max 1 r.attempted));
    List.iter (fun p -> Printf.eprintf "  MISMATCH %s\n" p) r.problems;
    List.iter
      (fun (m : Ctx.metric) ->
        Printf.eprintf "  %-30s %14.6g %-9s n=%d\n" m.name m.value m.unit_ m.samples)
      metrics
  end;
  print_endline
    (result_json ~correct:ok ~attempted:r.attempted
       ~failed:r.failed metrics)

(* ---- BENCHMARK.json ---- *)

let bench_spec c =
  let j = Json.parse (Ctx.read_file (Ctx.path c "BENCHMARK.json")) in
  let entries key =
    Option.bind (Json.member key j) Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun e ->
           Option.bind (Json.member "name" e) Json.to_str
           |> Option.map (fun n ->
                  (n, Option.bind (Json.member "bound" e) Json.to_float)))
  in
  (entries "end_to_end", entries "per_layer")

(* ---- --repeat: fresh processes, then quartiles and spreads ---- *)

(* Python's statistics.quantiles(xs, n=4), the default exclusive
   method; needs at least two values. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length a in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (q 1, q 2, q 3)

let repeat c n =
  let args =
    let rec drop = function
      | "--repeat" :: _ :: tl -> drop tl
      | a :: tl -> a :: drop tl
      | [] -> []
    in
    drop (List.tl (Array.to_list Sys.argv))
  in
  let names = match arg "--workload" with Some w -> [ w ] | None -> List.map fst workloads in
  let e2e, layers = bench_spec c in
  let bounds = e2e @ layers in
  let ok = ref true in
  List.iter
    (fun w ->
      let runs =
        List.init n (fun i ->
            let out = Filename.concat c.Ctx.work (Printf.sprintf "repeat-%d.out" i) in
            let child_args =
              (if arg "--workload" = None then [ "--workload"; w ] else []) @ args
            in
            let e = Ctx.run ~poll:false ~stdout_to:out ~stderr_to:(out ^ ".err") Sys.executable_name child_args in
            let lines = List.filter (( <> ) "") (String.split_on_char '\n' (Ctx.read_file out)) in
            match (Ctx.exited_ok e, List.rev lines) with
            | true, last :: _ -> Json.parse last
            | _ ->
                ok := false;
                prerr_string (Ctx.read_file (out ^ ".err"));
                Json.Null)
      in
      let metric_names =
        match Option.bind (List.find_map (Json.member "metrics") runs) (function Json.Obj kv -> Some kv | _ -> None) with
        | Some kv -> List.map fst kv
        | None -> []
      in
      Printf.printf "%s: %d runs\n%-30s %12s %12s %12s %9s %9s %s\n" w n "metric" "q1" "median" "q3"
        "iqr/med" "max/min" "";
      List.iter
        (fun name ->
          let vs =
            List.filter_map
              (fun r ->
                Option.bind (Json.member "metrics" r) (Json.member name)
                |> Fun.flip Option.bind (Json.member "value")
                |> Fun.flip Option.bind Json.to_float)
              runs
          in
          if List.length vs < 2 then Printf.printf "%-30s (fewer than 2 runs)\n" name
          else
            let q1, med, q3 = quartiles vs in
            let iqr = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
            let lo = List.fold_left Float.min Float.infinity vs
            and hi = List.fold_left Float.max Float.neg_infinity vs in
            let spread = if lo = 0. then 0. else (hi /. lo) -. 1. in
            let flag =
              match List.assoc_opt name bounds with
              | Some (Some b) when iqr > b -> Printf.sprintf "SPREAD > BOUND %g" b
              | _ -> ""
            in
            Printf.printf "%-30s %12.6g %12.6g %12.6g %8.2f%% %8.2f%% %s\n" name q1 med q3 (100. *. iqr)
              (100. *. spread) flag)
        metric_names)
    names;
  !ok

(* ---- --smoke: every metric BENCHMARK.json names is produced ---- *)

let check_names ~kind expected produced =
  List.for_all
    (fun (name, _) ->
      List.exists (fun (m : Ctx.metric) -> m.name = name && m.unit_ <> "") produced
      || (Printf.eprintf "smoke: %s metric %s missing or without a unit\n" kind name; false))
    expected

let () =
  let root = Option.value (arg "--root") ~default:"." in
  let work = Filename.concat root (Printf.sprintf "benchmark/_run/%d" (Unix.getpid ())) in
  let c : Ctx.t =
    {
      root;
      cli = Option.value (arg "--cli") ~default:(Filename.concat root "_build/default/bin/ninja_cli.exe");
      work;
      seed = int_arg "--seed" 1;
      seconds = float_of_int (int_arg "--seconds" 10);
      smoke = flag "--smoke";
    }
  in
  (* a write to a server that died is an error to report, not a signal
     that would kill the run and orphan its children *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = int_arg "--trace" 0 <> 0 in
  let repeat_n = int_arg "--repeat" 1 in
  let chosen =
    match arg "--workload" with
    | None -> workloads
    | Some w -> (
        match List.assoc_opt w workloads with
        | Some f -> [ (w, f) ]
        | None ->
            Printf.eprintf "unknown workload %S (have: %s)\n" w (String.concat ", " (List.map fst workloads));
            exit 2)
  in
  if not (Sys.file_exists c.cli && Sys.file_exists (Ctx.golden c)) then begin
    Printf.eprintf "missing %s or %s: run from a built checkout\n" c.cli (Ctx.golden c);
    exit 2
  end;
  Ctx.mkdir_p work;
  let all_ok = ref true in
  let note (r : Ctx.result) = if r.failed > 0 || r.problems <> [] then all_ok := false in
  Fun.protect
    ~finally:(fun () -> Ctx.rm_rf work)
    (fun () ->
      if flag "--regen-expected" then begin
        Sim.regen c;
        Serve.regen c;
        prerr_endline "wrote benchmark/expected/sim_kernels.json and serve_mixed.json"
      end
      else if repeat_n > 1 then (if not (repeat c repeat_n) then all_ok := false)
      else begin
        let e2e_spec, layer_spec = bench_spec c in
        if (not traced) || c.smoke then
          List.iter
            (fun (w, f) ->
              let r = f c in
              note r;
              let ms = end_to_end r in
              report ~quiet:c.smoke ~label:w r ms;
              if c.smoke && not (check_names ~kind:"end-to-end" e2e_spec ms) then all_ok := false)
            chosen;
        if traced || c.smoke then begin
          let ms, r = Trace.run c in
          note r;
          if not c.smoke then begin
            prerr_string (Fmt.str "%a" Span.pp_self_table ());
            let out =
              Option.value (arg "--trace-out") ~default:(Ctx.path c "benchmark/_out/trace.json")
            in
            Ctx.mkdir_p (Filename.dirname out);
            Span.write ~path:out;
            Printf.eprintf "wrote %s and its Chrome trace\n" out
          end;
          report ~quiet:c.smoke ~label:"trace" r ms;
          if c.smoke && not (check_names ~kind:"per-layer" layer_spec ms) then all_ok := false
        end
      end);
  if not !all_ok then exit 1
