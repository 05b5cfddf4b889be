(** The paper's evaluation, regenerated.

    Each experiment returns rendered tables (see DESIGN.md for the mapping
    from experiment ids to the paper's claims). Results are deterministic;
    simulated runs are memoized within a process, so running several
    experiments shares the underlying simulations. Experiments themselves
    are pure table formatting: every simulation they read is declared up
    front by [needs], so {!Jobs.prefill} can execute the whole grid on a
    domain pool before any table is rendered. *)

type job = Ninja_arch.Machine.t * Ninja_kernels.Driver.benchmark * string
(** One simulation: (machine, benchmark, ladder-step name). The memo key is
    [(machine.name, benchmark.b_name, step_name)]. *)

type experiment = {
  id : string;  (** stable id: "t1", "f1" ... "a1" *)
  title : string;
  claim : string;  (** which abstract claim it reproduces *)
  needs : unit -> job list;
      (** the closed set of simulations [run] reads (possibly with
          duplicates; dedup is the caller's job) *)
  run : unit -> Ninja_report.Table.t list;
}

val all : experiment list
(** In presentation order: T1, F1..F8, T2..T4, T6, T7, A1. T4 (measured
    cycle attribution) runs its simulations under the profiler, outside
    the memo cache — its [needs] is empty by design. With a store
    installed, T4 keeps each profile's summary as a derived entry
    (["t4-summary/v1"]) under the ninja rung's report key, so a warm run
    renders it without profiling. *)

val find : string -> experiment
(** Lookup by id (case-insensitive). Raises [Not_found]. *)

val gap : Ninja_arch.Timing.report -> Ninja_arch.Timing.report -> float
(** [gap naive best] = modeled-seconds ratio (how much faster [best] is). *)

val ladder :
  Ninja_kernels.Driver.benchmark -> scale:int -> Ninja_kernels.Driver.step list
(** [bench.steps ~scale], memoized per process. Building a ladder runs
    the compiler pipeline over every variant (~0.5s per benchmark) and
    is a pure function of its arguments, so all callers share one
    construction. Domain-safe. *)

val run_step_cached :
  machine:Ninja_arch.Machine.t ->
  Ninja_kernels.Driver.benchmark ->
  string ->
  Ninja_arch.Timing.report
(** Simulate one named ladder step of a benchmark at its default scale,
    memoized on (machine name, benchmark, step). The synthetic step name
    ["tuned"] runs (and memoizes) a whole {!tuned_result} session and
    returns its winner's report. Domain-safe: the cache is
    mutex-protected; the simulation itself runs outside the lock. *)

val tuned_result :
  ?domains:int ->
  machine:Ninja_arch.Machine.t ->
  Ninja_kernels.Driver.benchmark ->
  Tuner.t
(** The full tuning session behind the ["tuned"] rung (candidates,
    per-loop decisions, baselines), at the benchmark's default scale,
    memoized per (machine name, benchmark) and cleared by
    {!reset_cache}. Baseline rungs are read through {!run_step_cached};
    candidate simulations and winner validation verdicts are memoized
    in the installed {!Store} (if any) under the ["tuned"] step tag
    (see {!Tuner.tune}). [domains] (default [1]) sizes
    the pool the candidate search runs on; the result is independent
    of it. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] since start / the last {!reset_cache}. A miss is a
    simulation actually executed; a hit is a memoized read. Jobs served
    by the persistent store count as neither (see {!store_hit_count}). *)

val store_hit_count : unit -> int
(** Jobs served by the persistent {!Store} (no simulation, no memo hit)
    since start / the last {!reset_cache}. *)

val reset_cache : unit -> unit
(** Drop all memoized reports, tuning sessions and T4 summaries and zero
    the hit/miss/store counters (tests). The persistent store, if set, is
    untouched. *)

val set_store : Store.t option -> unit
(** Install (or clear) the persistent result store consulted below the
    in-memory memo: on a memo miss, a verified disk entry replaces the
    simulation; every simulation that does run is written back with its
    measured cost. Set once at startup, before parallel work begins. *)

val store : unit -> Store.t option
(** The currently installed store. *)
