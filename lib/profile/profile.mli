(** Cycle-attribution profiler.

    Consumes the typed event stream emitted by {!Ninja_vm.Interp.run} and
    {!Ninja_arch.Timing.simulate} (see {!Ninja_vm.Trace}) and rolls it into:

    - per-scope attribution rows (source loops via the compiler's
      [Region] markers, plus the program's phases),
    - chip-level resource fractions (compute / bandwidth / latency /
      serial) of the modeled execution time, and
    - spans with deterministic virtual-clock timestamps for Chrome-trace
      export ({!Chrome}).

    The chip-level numbers are re-derived from the events alone — counts
    rebuilt from [Op] events and repriced with {!Ninja_arch.Timing.issue_time},
    stalls summed from [Access] events — and then classified with the timing
    model's rule verbatim, so the profile's bound agreeing with the report's
    bound is an end-to-end integrity check of the whole pipeline. All output
    is deterministic: profiling the same step twice is byte-identical. *)

(** Scope kind: a compiler-marked source loop or an execution phase. *)
type kind = Kloop | Kphase

(** One closed scope instance on a thread's virtual timeline, in cycles. *)
type span = {
  sp_thread : int;
  sp_label : string;
  sp_kind : kind;
  sp_t0 : float;  (** virtual cycles at scope entry *)
  sp_t1 : float;  (** virtual cycles at scope exit *)
}

(** Per-scope attribution: what ran inside one loop or phase. *)
type row = {
  r_label : string;
  r_kind : kind;
  r_instrs : int;  (** dynamic instructions attributed to this scope *)
  r_issue : float;  (** port-model issue cycles for those instructions *)
  r_stall : float;  (** memory stall cycles charged inside the scope *)
  r_cycles : float;  (** [r_issue +. r_stall] *)
  r_share : float;  (** fraction of the summed work of all scopes *)
  r_dram_mb : float;  (** DRAM traffic the scope's accesses caused *)
  r_levels : int array;  (** accesses served by L1 / L2 / LLC / DRAM *)
  r_covered : int;  (** misses covered by the prefetcher *)
  r_lane_util : float option;
      (** mean SIMD lane occupancy of masked vector memory ops; [None]
          when the scope executed none *)
}

(** A finalized profile of one benchmark step on one machine. *)
type t = {
  prog_name : string;
  step_name : string;
  machine : Ninja_arch.Machine.t;
  n_threads : int;
  report : Ninja_arch.Timing.report;  (** the run's ordinary timing report *)
  rows : row list;  (** scopes in first-seen order *)
  spans : span list;  (** program order *)
  events : int;  (** total events consumed *)
  issue : float;  (** slowest thread's issue cycles, event-derived *)
  stall : float;  (** slowest thread's stall cycles, event-derived *)
  dram_time : float;  (** chip DRAM-bandwidth bound, event-derived *)
  serial : float;  (** modeled cycles inside sequential phases *)
  bound : Ninja_arch.Timing.bound;
      (** bottleneck classification recomputed from events only; must equal
          [report.bound] (tested) *)
  lane_util : float option;  (** whole-run SIMD lane occupancy *)
}

(** {1 Collecting}

    The collector is exposed so tests can drive it with synthetic event
    streams; normal use goes through {!of_step}. *)

type collector

val collector : machine:Ninja_arch.Machine.t -> n_threads:int -> collector
(** A fresh collector for a run with [n_threads] threads on [machine]
    (the machine prices instructions for the virtual clocks). *)

val sink : collector -> Ninja_vm.Trace.sink
(** The event sink to pass as [?trace] to the simulator. *)

val finalize :
  collector ->
  report:Ninja_arch.Timing.report ->
  prog_name:string ->
  step_name:string ->
  t
(** Close the books: aggregate everything fed so far into a profile.
    Raises [Invalid_argument] if any scope is still open (unbalanced
    [Enter]/[Exit]). *)

val of_step :
  machine:Ninja_arch.Machine.t ->
  prog_name:string ->
  Ninja_kernels.Driver.step ->
  t
(** Run one benchmark step under the profiler (same thread count rules as
    {!Ninja_kernels.Driver.run_step}) and aggregate its events. *)

(** {1 Derived views} *)

(** Shares of the end-to-end modeled cycles attributable to each resource.
    They need not sum to 1: compute overlaps DRAM traffic (the model takes
    the max) and spawn/barrier overhead belongs to no resource. *)
type fractions = {
  f_compute : float;  (** slowest thread's issue time *)
  f_bandwidth : float;  (** DRAM-bandwidth bound *)
  f_latency : float;  (** slowest thread's exposed miss latency *)
  f_serial : float;  (** work executed in sequential phases *)
}

val fractions : t -> fractions
(** Resource fractions of [report.cycles]. *)

val attribution_table : t -> Ninja_report.Table.t
(** Per-scope table: instructions, cycles, share, stalls, DRAM traffic,
    cache-level access counts and lane utilization for each loop/phase. *)

(** The numbers behind one row of {!summary_table}: small and plain, so a
    caller can store them and render the row again without re-running
    the step. *)
type summary = {
  s_prog : string;  (** benchmark name *)
  s_fractions : fractions;  (** {!fractions} of the profile *)
  s_lane_util : float option;  (** whole-run SIMD lane occupancy *)
  s_bound : Ninja_arch.Timing.bound;  (** event-derived bottleneck class *)
}

val summary : t -> summary
(** The summary numbers of a profile. *)

val summary_table : title:string -> summary list -> Ninja_report.Table.t
(** One row per summary: resource fractions, lane utilization and the
    event-derived bottleneck class (experiment T4's shape). *)

val roofline_csv : t list -> string
(** Roofline-ready CSV (via {!Ninja_analysis.Roofline}): one point per
    profile, labeled [bench/step\@machine]. *)
