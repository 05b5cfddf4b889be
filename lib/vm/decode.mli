(** Pre-decode pass for the compiled backend.

    Flattens a structured {!Isa.program} into one contiguous [dop array]
    per phase: operands resolved to plain register indices, structured
    control flow lowered to conditional jumps with absolute targets,
    instruction classes pre-classified and [Region] profiling scopes
    pre-built. The decoded form is what {!Compile} threads into closures
    ({!Interp}'s [Compiled] strategy), with results bit-identical to the
    tree walker (strategy [Tree]); decoding itself changes no semantics. *)

(** One decoded operation. Jump targets are absolute indices into the
    enclosing phase's op array; a [pc] past the end halts the phase. *)
type dop =
  | Dinstr of { i : Isa.instr; cls : Isa.op_class; cls_idx : int }
      (** straight-line instruction with its op class pre-classified and
          [cls_idx = Isa.op_class_index cls] pre-resolved for direct
          count-row updates *)
  | Dfor of { idx : int; lo : int; hi : int; step : int; id : int; exit : int }
      (** [For] header: reads the [lo]/[hi]/[step] scalar registers once,
          stores them in the interpreter's per-[id] loop-state arrays, and
          either enters the body (next op) or jumps to [exit] *)
  | Dforback of { idx : int; id : int; body : int }
      (** [For] back edge: advance loop [id]'s induction value, write it
          to register [idx] and jump to [body], or fall through *)
  | Dwhile of { cond : int; exit : int }
      (** [While] test, placed after the condition block: falls through to
          the body when register [cond] is non-zero, else jumps to [exit] *)
  | Dif of { cond : int; else_ : int }
      (** [If] branch: falls through to the then-block when register
          [cond] is non-zero, else jumps to [else_] *)
  | Djmp of int  (** unconditional jump (loop back edges, else skips) *)
  | Denter of Trace.scope  (** profiling scope opened (pre-built value) *)
  | Dexit of Trace.scope  (** profiling scope closed *)

(** One decoded phase: the flat op array and whether it runs on every
    thread ([Par]) or on thread 0 only ([Seq]). *)
type phase = { parallel : bool; code : dop array }

(** A decoded program. [n_fors] is the number of [Dfor] headers across all
    phases — the size of the interpreter's loop-state arrays. *)
type t = { prog : Isa.program; phases : phase array; n_fors : int }

val decode : Isa.program -> t
(** Flatten [program]. O(static size); performs no validation (callers run
    {!Isa.validate} first, as {!Interp.run} does). *)

val size : t -> int
(** Total decoded ops across phases (for tests and diagnostics). *)

val fingerprint : t -> string
(** Hex digest of the decoded program — a canonical content address over
    exactly what the interpreter executes (flattened op arrays, buffer
    declarations, register counts). Two programs with equal fingerprints
    simulate identically on the same machine; the persistent result
    store keys on this. *)
