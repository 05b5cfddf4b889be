(** The chip timing model: prices a program run on a {!Machine.t}.

    Trace-driven and cycle-approximate (see DESIGN.md): instruction issue is
    priced per operation class with a port model, memory accesses walk the
    simulated cache hierarchy, miss latency is discounted by memory-level
    parallelism unless the access is part of a dependent chain or covered by
    the prefetcher, and total time is bounded below by DRAM traffic divided
    by sustained bandwidth. *)

type bound = Compute | Bandwidth | Latency

type report = {
  machine : Machine.t;
  n_threads : int;
  cycles : float;  (** modeled execution time in core cycles *)
  seconds : float;
  issue_cycles : float;  (** slowest thread's issue-port time *)
  stall_cycles : float;  (** slowest thread's memory stall time *)
  dram_time : float;  (** chip-wide DRAM bandwidth bound, cycles *)
  overhead_cycles : float;  (** thread spawn + barriers *)
  dram_read_bytes : int;
  dram_write_bytes : int;
  counts : Ninja_vm.Counts.t;
  instructions : int;  (** dynamic instruction total *)
  level_accesses : (Hierarchy.level * int) list;
  bound : bound;  (** binding resource *)
}

val simulate :
  machine:Machine.t ->
  ?n_threads:int ->
  ?runs:int ->
  ?prepare:(int -> Ninja_vm.Memory.t -> unit) ->
  ?trace:Ninja_vm.Trace.sink ->
  ?strategy:Ninja_vm.Interp.strategy ->
  ?fast_path:bool ->
  Ninja_vm.Isa.program ->
  Ninja_vm.Memory.t ->
  report
(** Run [program] on [machine] with [n_threads] threads (default 1; must
    not exceed the machine's cores) and report modeled time. The memory is
    mutated exactly as by {!Ninja_vm.Interp.run}.

    [strategy] selects the execution backend (default: the
    process-wide {!Ninja_vm.Interp.default_strategy}, normally the
    compiled backend) and
    [fast_path] the cache-simulation fast-hit path (default on); both are
    pure performance knobs with bit-identical reports, exposed so the
    self-benchmark and differential tests can run the reference paths.

    [runs] (default 1) executes the program that many times against the same
    memory and cache state, summing the modeled time — this models repeated
    kernel launches (e.g. the passes of a bottom-up merge sort). [prepare]
    is called before each run with the run index, e.g. to update a scalar
    parameter cell between passes.

    [trace] receives the interpreter's profiling events plus, from this
    model, one {!Ninja_vm.Trace.event.Access} per memory access (cache
    level, prefetch coverage, stall cycles charged, DRAM traffic caused)
    and a final {!Ninja_vm.Trace.event.Drain} for the writeback drain.
    Passing it does not change any reported number. *)

val issue_time : Machine.t -> Ninja_vm.Counts.t -> thread:int -> float
(** Port-model issue time (cycles) for one thread's instruction counts:
    each class priced at its reciprocal throughput, binned onto ALU / FP /
    memory / branch ports, bounded below by front-end width. The profiler
    uses this to reprice event-derived counts exactly as [simulate] does. *)

val flops : report -> float
(** Arithmetic floating-point operations executed (FMA counts as two),
    derived from the instruction counts and the machine's vector width. *)

val operational_intensity : report -> float
(** FLOP per byte of DRAM traffic. Raises [Invalid_argument] when the run
    produced no DRAM traffic. *)

val speedup : baseline:report -> report -> float
(** Ratio of modeled seconds, baseline over subject: how much faster the
    subject is. Comparing across machines is meaningful (seconds, not
    cycles). *)

val bound_name : bound -> string
(** ["compute"], ["bandwidth"] or ["latency"]. *)

val pp_summary : report Fmt.t
(** Multi-line human-readable report (cycles, bound, traffic, counts). *)
