(** Functional interpreter for the vector ISA.

    Executes a program against a {!Memory.t} with a configurable thread
    count and vector width, producing per-class instruction counts and
    (optionally) a memory-access event stream for the timing model.

    [Par] phases execute thread-after-thread, which equals true parallel
    execution for race-free programs; [~check_races:true] verifies that
    property at element granularity and raises {!Race} otherwise.

    Two execution strategies produce bit-identical results: [Tree] walks
    the structured program (the reference and the self-benchmark
    baseline), and [Compiled] — the default, see {!default_strategy} —
    decodes the program into {!Decode}'s flat op arrays, runs the
    configured {!Optimize} passes over them and threads the result into
    chained closures via {!Compile}. *)

exception Trap of string
(** Runtime fault: out-of-bounds access, division by zero, bad lane index,
    non-positive loop step, or fuel exhaustion. (Alias of
    [Memory.Trap].) *)

exception Race of string list
(** Raised at a phase barrier when [check_races] found conflicting accesses
    (up to 16 descriptions). *)

type result = {
  counts : Counts.t;  (** dynamic instruction counts, per thread and class *)
  instructions : int;  (** total dynamic instructions *)
}

type strategy =
  | Tree  (** walk the structured statement tree (reference walker) *)
  | Compiled of Optimize.config
      (** decode, run the configured {!Optimize} passes, then compile each
          phase into chained pre-resolved closures ({!Compile}: threaded
          code, basic-block superinstructions, batched bookkeeping).
          Counts, traces, events, traps, memory and final registers stay
          bit-identical to [Tree] under every pass list; only host
          wall-clock changes. [Compiled Optimize.none] runs the plain
          decoded arrays *)

val default_strategy : unit -> strategy
(** The strategy runs use when none is requested explicitly: {!run},
    {!session} and {!Timing.simulate} (and through it experiments, the
    ladder, the benchmarks and the serve layer) resolve an absent
    [?[?strategy] to this. Initially [Compiled Optimize.default]; the CLI
    [--backend] flag overrides it process-wide via
    {!set_default_strategy}. *)

val set_default_strategy : strategy -> unit
(** Set {!default_strategy}. Not thread-safe: meant for CLI startup,
    before any simulation runs. *)

val strategy_tag : strategy -> string
(** Stable identity string ("tree", "compiled:<passes>") — disjoint per
    backend and per optimizer config, embedded into persistent-store
    keys. *)

val strategy_of_name : string -> strategy option
(** Parse a [--backend] name ("tree" | "compiled"; the latter with the
    default pass pipeline). *)

(** Final architectural state of one thread: scalar int/float files and
    vector float/int/mask files (one array per register, one slot per
    lane). Exposed read-only via [on_states] so differential tests can
    compare strategies; aliasing the arrays after [run] returns is
    unspecified. *)
type thread_state = {
  si : int array;  (** scalar integer registers *)
  sf : float array;  (** scalar float registers *)
  vf : float array array;  (** vector float registers *)
  vi : int array array;  (** vector integer registers *)
  vm : bool array array;  (** vector mask registers *)
}

val session :
  ?n_threads:int ->
  ?width:int ->
  ?sink:Event.sink ->
  ?port:Event.port ->
  ?trace:Trace.sink ->
  ?fuel:int ref ->
  ?check_races:bool ->
  ?strategy:strategy ->
  ?decoded:Decode.t ->
  ?on_states:(thread_state array -> unit) ->
  Isa.program ->
  Memory.t ->
  unit ->
  result
(** [session program memory] validates the program and performs all
    per-program work once — decode, optimizer passes, closure
    compilation — returning a launch thunk. Each call
    of the thunk is one kernel launch against the same memory, with
    counts and the register files freshly reset: without [fuel], a
    sequence of thunk calls is observably identical to the same sequence
    of {!run} calls, but multi-launch steps no longer pay the per-program
    costs on every launch. Parameters are those of {!run}, except:

    @param fuel a dynamic-instruction budget shared by every launch: the
      cell is decremented as instructions execute and never re-armed, and
      the launch that drives it below zero traps with "fuel exhausted".
      A trap raised while the cell is still non-negative is the
      program's own. *)

val run :
  ?n_threads:int ->
  ?width:int ->
  ?sink:Event.sink ->
  ?port:Event.port ->
  ?trace:Trace.sink ->
  ?fuel:int ->
  ?check_races:bool ->
  ?strategy:strategy ->
  ?decoded:Decode.t ->
  ?on_states:(thread_state array -> unit) ->
  Isa.program ->
  Memory.t ->
  result
(** [run program memory] validates and executes the program — a
    single-launch {!session}.

    @param n_threads SPMD thread count for [Par] phases (default 1).
    @param width vector lane count (default 4).
    @param sink receives every memory access event as it happens.
    @param port receives the same accesses field by field, with no
      {!Event.t} record built per access (the timing model's untraced
      path). At most one of [sink] and [port] may be given; either one
      serves both backends (the compiled executor calls a port, the tree
      walker a sink, and the other is adapted).
    @param trace receives profiling events (scope enter/exit for phases and
      [Region]s, one {!Trace.Op} per dynamic instruction, SIMD
      lane-utilization per masked vector memory access). Adds no work when
      absent.
    @param fuel optional dynamic-instruction budget; exceeding it traps
      (useful to bound buggy [While] loops in tests).
    @param check_races track per-phase read/write sets and raise {!Race}
      on cross-thread conflicts (costly; meant for tests).
    @param strategy execution strategy (default {!default_strategy}).
    @param decoded compile and run this pre-supplied flat form instead of
      decoding [program] ([program] must be the one it was decoded from).
      [strategy] is then ignored: the arrays run compiled, as supplied,
      with no optimizer pass. Meant for tests that execute
      hand-transformed — or deliberately broken — op arrays, e.g. the
      optimizer's and compiler's mutation differentials.
    @param on_states called once after the last phase with the final
      per-thread register state (index = thread id); meant for
      differential tests. *)
