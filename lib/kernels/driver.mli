(** Binding programs to data, and the benchmark/variant abstractions.

    The driver implements the calling convention shared by compiler output
    and hand-built Ninja programs: array parameters bind to same-named
    buffers, scalar parameters to one-element ["__p_<name>"] cells, and the
    compiler's hidden spill / reduction buffers are allocated automatically. *)

open Ninja_vm

type arg =
  | Farr of float array
  | Iarr of int array
  | Fscalar of float
  | Iscalar of int

type shape =
  | F_array of int  (** float array of this length *)
  | I_array of int  (** int array of this length *)
  | F_scalar
  | I_scalar
(** A binding's kind and size, without its data. *)

val shape_of_arg : arg -> shape

val memory_for : Isa.program -> (string * arg) list -> Memory.t
(** Build a {!Memory.t} for [program]: array args bind by name, scalar args
    fill their parameter cells, hidden buffers ([__env_*], [__red_*]) are
    allocated. Raises [Memory.Bad_binding] on missing or mistyped args. *)

val output_f : Memory.t -> string -> float array
(** Fetch a float buffer's contents by name (a copy). *)

val output_i : Memory.t -> string -> int array

(** {1 Benchmark steps}

    A step is one rung of the paper's performance ladder for one benchmark
    (naive serial → +autovec → +parallel → +algorithmic change → Ninja). *)

type io = {
  shapes : (string * shape) list;
  bindings : unit -> (string * arg) list;
  check : Memory.t -> (unit, string) result;
}
(** What one program variant reads and writes: the {!step} fields of the
    same names. *)

type step = {
  step_name : string;
  parallel : bool;  (** run with one thread per core, else serially *)
  make : machine:Ninja_arch.Machine.t -> Isa.program;
      (** build/compile the program for a machine (FMA availability, etc.) *)
  shapes : (string * shape) list;
      (** name and shape of every binding, in {!bindings}' order; computed
          from the scale alone, so reading them builds no dataset *)
  bindings : unit -> (string * arg) list;
      (** fresh argument set (fresh output arrays) for one run; the first
          call materializes the benchmark's dataset *)
  runs : Ninja_arch.Machine.t -> int;
      (** kernel launches per measurement (e.g. sort passes); may depend on
          the machine's vector width, never on the data *)
  prepare : Ninja_arch.Machine.t -> int -> Memory.t -> unit;
      (** pre-launch hook, e.g. to update a scalar cell between passes *)
  check : Memory.t -> (unit, string) result;
      (** validate outputs against the OCaml reference implementation *)
}
(** [step_name], [parallel], [shapes], [make] and [runs] are cheap and
    touch no data: the static path ({!verify_step}, store keys, tuner
    admission) reads only those. [bindings] and [check] materialize the
    dataset; only running a step ({!run_step}, {!validate_step}) calls
    them. *)

val set_scalar_i : Memory.t -> string -> int -> unit
(** [set_scalar_i mem name v] updates scalar parameter [name]'s cell —
    for [prepare] hooks that change a parameter between launches. *)

val simple_step :
  name:string ->
  parallel:bool ->
  make:(machine:Ninja_arch.Machine.t -> Isa.program) ->
  io ->
  step
(** A single-launch step with no pre-launch hook. *)

type 'a once
(** A value built on first use, at most once, safely across domains:
    concurrent callers wait for the one build and share its result. *)

val once : (unit -> 'a) -> 'a once

val force : 'a once -> 'a

val forced_count : unit -> int
(** How many onces this process has built so far. *)

val run_step :
  ?trace:Ninja_vm.Trace.sink ->
  ?strategy:Ninja_vm.Interp.strategy ->
  ?fast_path:bool ->
  ?max_cycles:float ->
  machine:Ninja_arch.Machine.t -> step -> Ninja_arch.Timing.report
(** Simulate one step on [machine] (threads = cores when [parallel]).
    [trace] forwards profiling events to the cycle-attribution profiler;
    passing it changes no reported number. [strategy] and [fast_path]
    forward to {!Ninja_arch.Timing.simulate} — pure performance knobs
    with bit-identical reports, used by the self-benchmark to measure
    the reference paths. [max_cycles] forwards too: the step's launches
    share one instruction budget, and a step that provably models more
    cycles raises {!Ninja_arch.Timing.Exceeds} (the tuner's bounded
    evaluation). *)

val validate_step :
  machine:Ninja_arch.Machine.t -> step -> (unit, string) result
(** Run the step functionally and apply its output check. Bindings that
    do not fit the program and runtime traps come back as [Error]. *)

val verify_step :
  machine:Ninja_arch.Machine.t -> step -> Ninja_vm.Verify.issue list
(** Statically lint the step's program (no simulation, no data): build it
    for [machine] and run {!Ninja_vm.Verify.verify} with the machine's
    vector width, the step's thread count, and the buffer lengths its
    [shapes] imply under the calling convention (arrays by name, scalars
    as one-element ["__p_<name>"] cells, hidden spill/reduction
    buffers). *)

type benchmark = {
  b_name : string;
  b_desc : string;
  b_algo_note : string;  (** the algorithmic change applied (experiment T2) *)
  b_sources : (string * string) list;
      (** the benchmark's Cee sources by variant name — ["naive"] and,
          where a traditional-programmer rewrite exists, ["algo"] — for
          static analysis (opt-reports, experiment T3) without touching
          the step ladder *)
  steps : scale:int -> step list;
      (** the ladder, in order; [scale] grows the dataset (1 = unit tests,
          default benchmark scale is per-benchmark) *)
  default_scale : int;
}

(** Helpers for float comparisons in checks. *)

val close : ?rtol:float -> ?atol:float -> float -> float -> bool

val check_floats :
  ?rtol:float -> ?atol:float -> expected:float array -> float array ->
  (unit, string) result

val check_floats_mostly :
  ?rtol:float -> ?atol:float -> ?max_bad_frac:float ->
  expected:float array -> float array -> (unit, string) result
(** Like {!check_floats}, but tolerates a small fraction of mismatching
    elements (default 1%) — for kernels whose gather indices are sensitive
    to FP evaluation order through truncation. *)

val check_ints : expected:int array -> int array -> (unit, string) result
