(** Closure-compiled execution backend: threaded code for decoded op
    arrays.

    The per-phase compiler behind {!Interp}'s [Compiled] strategy. Where
    an indexed dispatch loop would pay, per dynamic op, a [match] over
    the op tag, a second [match] over the instruction, register index
    field reads and five bookkeeping memory operations, this module
    compiles each flat op array once per run into chained OCaml
    closures:

    - every straight-line op becomes a pre-resolved action closure
      (operands, operator and mask slot are resolved at compile time);
    - basic blocks become superinstruction closures whose
      count/instruction/fuel bookkeeping is batched per segment — a
      segment never extends past an op that can trap or emit a memory
      event, which keeps trap messages and event prefixes bit-identical
      to the tree walker (a batched fuel charge may trap early only when
      the observable state is identical);
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
    devirtualized) memory-event hook and its id for trace/event
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
  emit :
    nt:bool ->
    buf:Isa.buf ->
    idx:int ->
    bytes:int ->
    kind:Event.kind ->
    chain:bool ->
    unit;
      (** memory-event hook, already devirtualized by the caller *)
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

val compile : ctx -> Decode.dop array -> tctx -> unit
(** [compile ctx code] compiles one phase's op array into its entry
    closure. Compilation cost is linear in the {e static} op count —
    negligible against the millions of dynamic ops a phase executes —
    and touches no observable state; only calling the returned closure
    (with one thread's {!tctx}) executes the phase. The closure may be
    called repeatedly only if the caller resets the state it captures
    and is passed in between. *)
