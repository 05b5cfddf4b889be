(** Closure-compiled execution backend: threaded code for decoded op
    arrays.

    The per-phase compiler behind {!Interp}'s [Compiled] strategy. Where
    an indexed dispatch loop would pay, per dynamic op, a [match] over
    the op tag, a second [match] over the instruction, register index
    field reads and five bookkeeping memory operations, this module
    compiles each flat op array once per run into chained OCaml
    closures:

    - the optimizer's placeholder jumps are threaded away ({!thread}),
      so they no longer split basic blocks;
    - every straight-line op becomes a pre-resolved action closure
      (operands, operator, mask slot and memory operand — array, length,
      base address — are resolved at compile time);
    - basic blocks become superinstruction closures whose
      count/instruction/fuel bookkeeping is batched: one charge for the
      whole block when the remaining fuel covers it, else per segment,
      where a segment never extends past an op that can trap or emit a
      memory event — which keeps trap messages and event prefixes
      bit-identical to the tree walker (counts die with a trap);
    - control ops tail-call their successors through a node table, so a
      loop iteration is one compare plus a direct jump to the body's
      block closure.

    Compiled closures take the per-thread state ({!tctx}) as an argument
    instead of capturing it, so one compilation serves every simulated
    thread of a parallel phase: compile cost is per (phase, run), not
    per (phase, thread, run). Reading a [tctx] field costs the same one
    load as reading a closure-environment slot, so per-op execution
    speed is unchanged.

    Registers, memory, {!Counts} rows, totals, event streams, traces and
    traps are bit-identical to the tree walker by construction;
    test/test_fastpath.ml and test/test_optimize.ml pin this with a
    Tree-vs-Compiled qcheck differential under every pass list, and
    test/test_compile.ml with fuel-trap differentials and seeded
    miscompilation mutants. When a trace sink is attached,
    compilation falls back to per-op bookkeeping closures so the
    [Trace.Op] stream keeps its exact per-op order. *)

(** The per-thread execution state a compiled closure runs against: the
    thread's register file rows, its {!Counts} row, its (already
    devirtualized) access port and its id for trace/event
    attribution. One {!compile} result may be called with any number of
    distinct [tctx] values, one per simulated thread. *)
type tctx = {
  si : int array;  (** scalar int registers *)
  sf : float array;  (** scalar float registers *)
  vf : float array array;  (** vector float registers *)
  vi : int array array;  (** vector int registers *)
  vm : bool array array;  (** vector mask registers *)
  row : int array;  (** this thread's {!Counts} row *)
  thread : int;  (** thread id (trace/event attribution) *)
  port : Event.port;
      (** where every memory access goes, already devirtualized by the
          caller (a no-op when nothing listens) *)
}

(** The run-constant compilation context, shared by every thread: the
    memory image, loop-state slots, the shared instruction/fuel cells
    and the trace sink. Closures capture these cells directly, so the
    caller must pass the same arrays/refs the rest of the run observes.
    [scratch] and [all_true] are the interpreter's shared width-sized
    scratch rows (threads execute one after another, so sharing is
    safe). *)
type ctx = {
  mem : Memory.t;  (** shared memory image *)
  width : int;  (** SIMD width *)
  scratch : float array;  (** permute scratch row (width-sized) *)
  all_true : bool array;  (** the unmasked lane-activity row *)
  instructions : int ref;  (** shared dynamic-op total *)
  fuel : int ref;  (** shared remaining fuel *)
  prog_name : string;  (** for the fuel-trap message *)
  for_cur : int array;  (** per-loop induction value slots *)
  for_hi : int array;  (** per-loop bound slots *)
  for_step : int array;  (** per-loop step slots *)
  trace : Trace.sink option;  (** trace sink; [Some _] disables batching *)
}

val thread : Decode.dop array -> Decode.dop array
(** Placeholder threading, the first step of {!compile}: retarget control
    ops that land on a [Djmp] chain to its end, then drop every forward
    [Djmp] together with the slots it skips when no control op targets
    them, remapping the remaining targets; repeated to a fixpoint, so
    [thread (thread c) = thread c]. [Djmp] carries no bookkeeping, so the
    result runs with the same observables as [code]. Arrays with a
    target outside [0, length] are returned unchanged. *)

val compile : ctx -> Decode.dop array -> tctx -> unit
(** [compile ctx code] compiles one phase's op array into its entry
    closure. Compilation cost is linear in the {e static} op count —
    negligible against the millions of dynamic ops a phase executes —
    and touches no observable state; only calling the returned closure
    (with one thread's {!tctx}) executes the phase. The closure may be
    called repeatedly only if the caller resets the state it captures
    and is passed in between. *)
