(** The simulator self-benchmark.

    Measures the simulator's own wall-clock throughput — simulated
    instructions per second — over a grid of (benchmark, machine, ladder
    step) jobs, in two configurations: the compiled backend
    ([Compiled] — the simulation default) and the
    tree-walking baseline ([Tree]), both on the one cache hierarchy.
    Both produce bit-identical simulation reports — the whole compiled
    report is compared structurally against the baseline's on every
    job — so the ratio is a pure measure of the execution backend's
    overhead. Results are written as
    [BENCH_simulator.json] (schema {!schema_version}) by the
    [bench/main.exe simulate] harness mode. *)

type job_result = {
  j_bench : string;
  j_machine : string;
  j_step : string;
  j_ops : int;  (** simulated instructions (identical in both configurations) *)
  j_compiled_s : float;  (** wall seconds, compiled configuration *)
  j_baseline_s : float;  (** wall seconds, baseline configuration *)
}

type bench_result = {
  b_name : string;
  b_ops : int;  (** summed over the benchmark's jobs *)
  b_compiled_s : float;
  b_baseline_s : float;
  b_compiled_ops_per_s : float;
  b_baseline_ops_per_s : float;
}

type result = {
  domains : int;  (** pool size used (the [-j] value) *)
  wall_s : float;  (** whole-run wall clock, seconds *)
  sched : Ninja_util.Pool.stats;
      (** work-stealing scheduler counters for the run (synthetic
          single-domain snapshot when the serial path ran) *)
  configurations : (string * string) list;
      (** (configuration name, {!Ninja_vm.Interp.strategy_tag}) pairs for
          the two timed configurations, recorded in the JSON report *)
  jobs : job_result list;
  benchmarks : bench_result list;  (** aggregated across machines and steps *)
  compiled_geomean_ops_per_s : float;
  baseline_geomean_ops_per_s : float;
  compiled_speedup : float;  (** compiled over baseline geomean *)
}

type grid_result = {
  g_domains : int;
  g_jobs : int;  (** grid size after dedup *)
  g_cold_wall_s : float;
  g_cold_executed : int;  (** simulations run cold (= [g_jobs] on a fresh store) *)
  g_cold_store_hits : int;  (** nonzero when the store was already partly warm *)
  g_cold_steals : int;
  g_warm_wall_s : float;
  g_warm_executed : int;  (** must be 0: every job served from disk *)
  g_warm_store_hits : int;  (** must equal [g_jobs] *)
  g_warm_speedup : float;  (** cold wall over warm wall *)
}
(** Cold-vs-warm timing of the experiment grid against a persistent
    {!Store} (see {!run_grid}). *)

val schema_version : string
(** ["ninja-selfbench/v5"], the ["schema"] field of the JSON report.
    v2 added ["domains"]-aware defaults, the ["sched"] scheduler-stats
    object, and the optional ["grid"] cold/warm store object; v3 added
    the optimized-pipeline configuration (["opt_geomean_ops_per_s"],
    ["opt_speedup"], per-benchmark ["opt_ops_per_s"]); v4 added the
    compiled configuration (["compiled_geomean_ops_per_s"],
    ["compiled_speedup"], per-benchmark ["compiled_ops_per_s"]), the
    ["configurations"] object recording each configuration's backend
    tag, and the per-job ["job_times"] array that [tools/bench_check.ml]
    uses to compare like-for-like jobs across reports; v5 dropped the
    fast (decoded) and optimized configurations with their executors,
    leaving compiled and baseline (and with them ["geomean_ops_per_s"],
    ["opt_geomean_ops_per_s"], ["speedup"], ["opt_speedup"], the
    per-benchmark ["ops_per_s"]/["opt_ops_per_s"] and the per-job
    ["fast_s"]/["opt_s"] fields). *)

val default_steps : string list
(** Both ladder endpoints, ["naive serial"] and ["ninja"] — the scalar and
    the vector instruction mix. *)

val default_machines : Ninja_arch.Machine.t list
(** Westmere and Knights Ferry, the paper's two evaluation machines. *)

val run :
  ?domains:int ->
  ?repeats:int ->
  ?benchmarks:Ninja_kernels.Driver.benchmark list ->
  ?machines:Ninja_arch.Machine.t list ->
  ?steps:string list ->
  ?progress:(job_result -> unit) ->
  unit ->
  result
(** Run the grid. [domains] defaults to
    {!Ninja_util.Pool.default_domains} — on a multi-core host jobs time
    in parallel (minimum-of-repeats absorbs most of the interference;
    pass [~domains:1] when per-job seconds must be maximally clean).
    Each configuration of each job runs once untimed (warm-up) plus
    [repeats] timed times (default 2); the reported seconds are the
    minimum, the standard low-noise estimator for deterministic work.
    Steps a benchmark does not have are skipped. [progress] is called
    once per finished job (from worker domains when [domains > 1]).
    @raise Invalid_argument on an empty grid, or a compiled timing report
    that is not structurally identical to the baseline's (which would
    mean the backends diverged — a bug). *)

val run_grid :
  ?domains:int ->
  ?experiments:Experiments.experiment list ->
  store:Store.t ->
  unit ->
  grid_result
(** Time the experiment grid cold then warm against [store]: install it,
    drop the in-process memo, {!Jobs.prefill} (cold — simulates and
    writes entries), drop the memo again, prefill once more (warm —
    every job must load from disk, zero simulations). The previously
    installed store and the memo cache are restored/reset on exit, even
    on exceptions. *)

val to_json : ?grid:grid_result -> result -> Ninja_report.Json.t
(** The JSON report; [grid], when given, is embedded as the ["grid"]
    object. *)

val write_json : ?grid:grid_result -> path:string -> result -> unit
(** Serialize {!to_json} to [path]. *)

val pp_result : Format.formatter -> result -> unit
(** Human-oriented summary (goes to stderr in the harness). *)

val pp_grid : Format.formatter -> grid_result -> unit
(** One-line cold/warm summary (stderr). *)
