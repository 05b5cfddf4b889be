(** Static linter ("verifier") for virtual-ISA programs.

    {!Isa.validate} only checks register ranges and buffer element types;
    this pass goes further and lints every program — compiler-generated
    and hand-scheduled Ninja alike — for:

    - register def-before-use, per register file, including the SPMD
      discipline: a register defined in a [Seq] phase holds its value on
      thread 0 only, so reading it from a [Par] phase is flagged (state
      must travel through buffers, as the compiler's spill convention does);
    - writes to the reserved registers ([Si 0]..[Si 2]);
    - mask discipline (masks are registers too: undefined-mask uses flag);
    - provable out-of-bounds accesses against declared buffer lengths,
      via a conservative interval analysis of scalar and lane indices —
      only accesses that are out of bounds on {e every} execution are
      reported, so strip-mined remainder handling never false-positives;
    - structural validity ({!Isa.validate} failures and duplicate buffer
      names are reported as issues instead of exceptions).

    The verifier is deliberately lenient where the code generator's idiom
    requires it: blending into an as-yet-undefined destination
    ([Vselectf (d, m, x, d)]) and lane insertion into a fresh register
    ([Vinsertf]) are treated as definitions, not reads. *)

type issue = { where : string; what : string }
(** One finding: [where] locates it (phase/statement path), [what] says
    what is wrong. *)

val pp_issue : issue Fmt.t
(** ["<where>: <what>"]. *)

(** One register operand of an instruction, tagged by register file. *)
type operand =
  | Osi of Isa.si_reg  (** scalar int register *)
  | Osf of Isa.sf_reg  (** scalar float register *)
  | Ovf of Isa.vf_reg  (** vector float register *)
  | Ovi of Isa.vi_reg  (** vector int register *)
  | Ovm of Isa.vm_reg  (** mask register *)

val operands : Isa.instr -> operand list * operand list
(** [(reads, writes)] of one instruction, covering every register
    operand. [Vinsertf] lists its destination among the reads as well
    (untouched lanes are preserved), so def/use analyses — the verifier's
    definedness pass and {!Compile}'s known-constant scan — see the
    partial write for what it is. *)

val verify :
  ?width:int ->
  ?n_threads:int ->
  ?lengths:(string * int) list ->
  Isa.program ->
  issue list
(** [verify ~width ~n_threads ~lengths p] returns all issues found, in
    program order (deterministic). [lengths] gives element counts per
    buffer name; buffers without an entry are skipped by the bounds
    check. Defaults: [width = 4], [n_threads = 4], [lengths = []].
    Never raises. A location is formatted only for an issue actually
    reported, with the phase context of the statement where it was
    found, so a clean program costs no strings. *)

val check_flat : Decode.t -> issue list
(** Structural linter for decoded op arrays (meant for hand-built or
    deliberately broken ones): register indices within the program's
    declared counts, jump targets within [[0, len]] (len = one past the
    end, a legal halt), [Dfor]/[Dforback] ids below [n_fors], and
    pre-classified op classes consistent with {!Isa.classify}.
    Deterministic order; never raises. A {!Decode.decode} result always
    checks clean for a {!Isa.validate}-clean program. *)
