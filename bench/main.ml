(* The benchmark harness.

   `main.exe` regenerates every table and figure of the reproduced
   evaluation (experiments T1, F1..F8, T2, A1 — see DESIGN.md for the
   mapping to the paper's claims; these numbers are *modeled* machine
   results and are deterministic), then uses Bechamel to measure the
   wall-clock throughput of the simulator itself (one Test.make per
   experiment family), so regressions in the simulation infrastructure
   show up here.

   `main.exe simulate [--smoke] [--out FILE] [-j N] [--no-cache]` instead
   runs the simulator self-benchmark (Ninja_core.Selfbench):
   simulated-ops/s of the closure-compiled backend against the
   tree-walking baseline over the benchmark suite on both machines, plus a
   cold-then-warm timing of the experiment grid against a throwaway
   persistent result store, written as a JSON report
   (BENCH_simulator.json by default). The grid must run cold (every job
   simulated) then warm (zero simulations, at least 5x faster), and the
   compiled geomean must not fall below the baseline's. `--smoke` shrinks
   the throughput grid to four jobs and the store grid to experiment F1 —
   the @bench-smoke CI gate, which tolerates a 10% inversion of the
   backend order; `--no-cache` skips the store grid. *)

module E = Ninja_core.Experiments
module Jobs = Ninja_core.Jobs
module Selfbench = Ninja_core.Selfbench
module Json = Ninja_report.Json
module Driver = Ninja_kernels.Driver
module Machine = Ninja_arch.Machine

(* [-j N]: worker domains for the simulation grid (default: the runtime's
   recommended count). The tables printed below are byte-identical for any
   value; the prefill summary goes to stderr. *)
let domains_of_argv () =
  let rec go = function
    | "-j" :: n :: _ -> int_of_string_opt n
    | a :: tl when String.length a > 2 && String.sub a 0 2 = "-j" ->
        (match int_of_string_opt (String.sub a 2 (String.length a - 2)) with
        | Some n -> Some n
        | None -> go tl)
    | _ :: tl -> go tl
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let flag_value name =
  let rec go = function
    | a :: v :: _ when a = name -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go (Array.to_list Sys.argv)

(* --cache-dir DIR / --no-cache: the persistent result store. On by
   default (at Store.default_dir) so a second harness run reloads every
   report from disk instead of re-simulating. *)
let install_store () =
  if Array.exists (( = ) "--no-cache") Sys.argv then None
  else begin
    let dir =
      Option.value (flag_value "--cache-dir")
        ~default:Ninja_core.Store.default_dir
    in
    let st = Ninja_core.Store.open_ ~dir () in
    E.set_store (Some st);
    Some st
  end

let print_experiments () =
  Fmt.pr "==================================================================@.";
  Fmt.pr " Reproduced evaluation (modeled results; see EXPERIMENTS.md)@.";
  Fmt.pr "==================================================================@.";
  ignore (install_store () : Ninja_core.Store.t option);
  ignore (Jobs.prefill ?domains:(domains_of_argv ()) ~verbose:true () : Jobs.summary);
  List.iter
    (fun (e : E.experiment) ->
      Fmt.pr "@.## %s — %s (%s)@.@." (String.uppercase_ascii e.id) e.title e.claim;
      List.iter (fun t -> Fmt.pr "%a@." Ninja_report.Table.render t) (e.run ()))
    E.all

(* ---- Bechamel micro-benchmarks of the simulator ---- *)

open Bechamel
open Toolkit

(* one representative simulated workload per experiment family, at a small
   scale so each Bechamel run is a few milliseconds *)
let sim_test ~name ~bench_name ~step ~machine =
  let b = Ninja_kernels.Registry.find bench_name in
  let s =
    List.find
      (fun (s : Driver.step) -> s.step_name = step)
      (b.steps ~scale:1)
  in
  Test.make ~name (Staged.stage (fun () -> ignore (Driver.run_step ~machine s)))

let tests () =
  Test.make_grouped ~name:"simulator"
    [ sim_test ~name:"t1/f1 ninja-on-westmere" ~bench_name:"BlackScholes"
        ~step:"ninja" ~machine:Machine.westmere;
      sim_test ~name:"f2 naive-on-kentsfield" ~bench_name:"ComplexConv1D"
        ~step:"naive serial" ~machine:Machine.kentsfield;
      sim_test ~name:"f3 autovec-on-westmere" ~bench_name:"Stencil7"
        ~step:"+autovec" ~machine:Machine.westmere;
      sim_test ~name:"f4 algorithmic-on-westmere" ~bench_name:"LBM"
        ~step:"+algorithmic" ~machine:Machine.westmere;
      sim_test ~name:"f5 ninja-on-mic" ~bench_name:"TreeSearch" ~step:"ninja"
        ~machine:Machine.knights_ferry;
      sim_test ~name:"f6 gather-sensitive" ~bench_name:"BackProjection"
        ~step:"+algorithmic" ~machine:Machine.knights_ferry;
      sim_test ~name:"f7 future-machine" ~bench_name:"NBody" ~step:"ninja"
        ~machine:(Machine.future ~generation:1);
      sim_test ~name:"f8/a1 multi-launch" ~bench_name:"MergeSort" ~step:"ninja"
        ~machine:Machine.westmere ]

let run_bechamel () =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr " Bechamel: simulator wall-clock throughput (ns per simulated run)@.";
  Fmt.pr "==================================================================@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Fmt.pr "%-40s %12.0f ns/run@." name est
      | _ -> Fmt.pr "%-40s (no estimate)@." name)
    results

(* ---- the simulator self-benchmark (`main.exe simulate`) ---- *)

(* [slack] relaxes the backend-ordering gate: the 4-job smoke run's
   timings are noisy under parallel `dune runtest` rule execution, so it
   tolerates a 10% inversion; the full-grid run stays strict. *)
let validate_report ?(slack = 0.) ~expect_grid path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  let j = Json.parse raw in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let num k = Option.bind (Json.member k j) Json.to_float in
  if str "schema" <> Some Selfbench.schema_version then
    failwith (path ^ ": bad or missing schema field");
  (* the compiled backend must be present and at least as fast as the
     tree-walking baseline — the @bench-smoke regression gate for the
     engine *)
  (match (num "compiled_geomean_ops_per_s", num "baseline_geomean_ops_per_s") with
  | Some c, Some b when c > 0. && b > 0. ->
      if c < b *. (1. -. slack) then
        failwith
          (Fmt.str "%s: compiled geomean %.0f ops/s below baseline %.0f" path
             c b)
  | _ ->
      failwith
        (path ^ ": compiled/baseline geomean_ops_per_s missing or not positive"));
  (match Option.bind (Json.member "benchmarks" j) Json.to_list with
  | Some (_ :: _) -> ()
  | _ -> failwith (path ^ ": empty benchmarks list"));
  (* scheduler stats always present; the grid object whenever the store
     ran, with a warm pass that loaded everything from disk *)
  (match
     Option.bind (Json.member "sched" j) (fun s ->
         Option.bind (Json.member "steals" s) Json.to_float)
   with
  | Some _ -> ()
  | None -> failwith (path ^ ": missing sched.steals"));
  match Json.member "grid" j with
  | None -> if expect_grid then failwith (path ^ ": missing grid object")
  | Some g -> (
      match Option.bind (Json.member "warm_executed" g) Json.to_float with
      | Some 0. -> ()
      | _ -> failwith (path ^ ": grid.warm_executed missing or nonzero"))

(* Cold-then-warm over [experiments] against a throwaway store, so cold
   means cold whatever state the working directory's cache is in: the
   cold pass must simulate every job, the warm pass none — pure disk
   reads, and decisively faster. *)
let run_store_grid ?domains ?experiments () =
  let store = Ninja_core.Store.scratch () in
  Fun.protect
    ~finally:(fun () -> Ninja_core.Store.destroy store)
    (fun () ->
      let g = Selfbench.run_grid ?domains ?experiments ~store () in
      Fmt.epr "%a@." Selfbench.pp_grid g;
      if g.Selfbench.g_cold_executed <> g.Selfbench.g_jobs then
        failwith
          (Fmt.str "cold grid run simulated %d of %d jobs"
             g.Selfbench.g_cold_executed g.Selfbench.g_jobs);
      if g.Selfbench.g_warm_executed <> 0 then
        failwith
          (Fmt.str "warm grid rerun simulated %d jobs; store failed"
             g.Selfbench.g_warm_executed);
      if g.Selfbench.g_warm_store_hits <> g.Selfbench.g_jobs then
        failwith
          (Fmt.str "warm grid rerun served %d of %d jobs from the store"
             g.Selfbench.g_warm_store_hits g.Selfbench.g_jobs);
      if g.Selfbench.g_warm_speedup < 5. then
        failwith
          (Fmt.str "warm grid rerun only %.1fx faster than cold (need 5x)"
             g.Selfbench.g_warm_speedup);
      g)

let run_simulate () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out = Option.value (flag_value "--out") ~default:"BENCH_simulator.json" in
  let domains = domains_of_argv () in
  (* Every job is the best of 10 timed runs, in the smoke and in the
     committed full grid alike, so the regression gate compares one
     estimator with itself: this host shows double-digit per-sample
     noise under virtualization, and the minimum of fewer samples reads
     systematically slower. *)
  let repeats = 10 in
  let r =
    if smoke then
      (* four jobs of ~10-25 ms compiled, on both machines, so that
         neither one job nor a short burst of contention from an
         unrelated process decides the regression gate's geomean; timed
         on one domain, like the committed full grid (-j 1), since jobs
         timed side by side share the host's cores and the runtime's
         stop-the-world minor collections *)
      Selfbench.run ~domains:1 ~repeats
        ~benchmarks:
          [ Ninja_kernels.Registry.find "TreeSearch";
            Ninja_kernels.Registry.find "VolumeRender" ]
        ~machines:[ Machine.westmere; Machine.knights_ferry ] ~steps:[ "ninja" ] ()
    else
      Selfbench.run ?domains ~repeats
        ~progress:(fun j ->
          Fmt.epr "  %-16s %-14s %-14s %8.1fs compiled %8.1fs baseline@."
            j.Selfbench.j_bench j.Selfbench.j_machine j.Selfbench.j_step
            j.Selfbench.j_compiled_s j.Selfbench.j_baseline_s)
        ()
  in
  let grid =
    if Array.exists (( = ) "--no-cache") Sys.argv then None
    else
      Some
        (run_store_grid ?domains
           ?experiments:(if smoke then Some [ E.find "f1" ] else None)
           ())
  in
  Selfbench.write_json ?grid ~path:out r;
  Fmt.epr "%a@." Selfbench.pp_result r;
  validate_report
    ~slack:(if smoke then 0.1 else 0.)
    ~expect_grid:(grid <> None) out;
  Fmt.pr "wrote %s (%d jobs, compiled geomean %.0f ops/s, %.2fx over baseline)@."
    out (List.length r.jobs) r.compiled_geomean_ops_per_s r.compiled_speedup

let () =
  if Array.exists (( = ) "simulate") Sys.argv then run_simulate ()
  else begin
    print_experiments ();
    run_bechamel ();
    Fmt.pr "@.done.@."
  end
