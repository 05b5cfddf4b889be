(** Bytecode optimizer: a pass pipeline over {!Decode}'s flat op arrays.

    The optimizer speeds up the {e host} executor, never the
    {e simulated} machine: every pass preserves the per-class instruction
    counts, the total dynamic instruction count, the {!Trace} event
    stream (order included), the memory event stream, traps (messages
    and positions), final memory contents and the final register files
    bit-for-bit against the unoptimized decoded program — so timing
    reports round-trip unchanged and the ops/s gain is pure wall-clock.
    Rewrites therefore stay within an op class and keep every op's
    effect: no pass removes an op.

    Each pass is independently correct on any valid decoded array, so
    passes compose in every order and the full pipeline is idempotent
    (property-tested in test/test_optimize.ml: Tree vs
    [Compiled config] per pass, for pairwise shuffles, for every order
    of all passes and for the full pipeline). *)

(** One optimization pass:

    - [Moves]: copy propagation — reads of a register known to mirror
      another are renamed to the source (register contents never change).
    - [Imm]: immediate-operand specialization in the [ropAddI] style —
      [Ibin] with one known-constant operand becomes
      [Daddi]/[Dmuli]; scalar loads/stores at a known non-negative index
      become the [D*_at] forms.
    - [Peephole]: adjacent scalar/vector multiply-then-dependent-add
      pairs fuse into {!Decode.Dsmuladd}/{!Decode.Dvmuladd}. *)
type pass = Moves | Imm | Peephole

type config = { passes : pass list }
(** Which passes to run, in order. A pass may appear more than once. *)

val all_passes : pass list
(** Every pass, in the canonical pipeline order [Moves; Imm; Peephole]. *)

val default : config
(** All passes in canonical order. *)

val none : config
(** The empty pipeline: [run ~config:none] copies the program verbatim. *)

val pass_name : pass -> string
(** Stable lowercase name ("moves", "imm", "peephole") — the opt-report
    label. *)

val tag : config -> string
(** Canonical string form of a config ("moves,imm,peephole") —
    embedded into persistent-store cache keys so optimized results can
    never alias differently-optimized (or unoptimized) entries. *)

type pass_stats = { ps_pass : pass; ps_stats : (string * int) list }
(** Per-pass rewrite counters, summed across phases. Keys are fixed per
    pass (moves: "rewritten"; imm: "specialized"; peephole: "fused") and
    reported in a deterministic order. *)

type report = {
  r_prog : string;  (** program name *)
  r_ops : int;  (** static decoded ops across phases *)
  r_passes : pass_stats list;  (** one entry per configured pass, in order *)
}

val run : ?config:config -> Decode.t -> Decode.t
(** [run d] applies the configured passes (default: {!default}) to every
    phase of [d] and returns the optimized program. [d] itself is never
    mutated (op arrays are copied first). The result executes with
    observables bit-identical to [d] and always passes
    {!Verify.check_flat} clean when [d] does. *)

val run_report : ?config:config -> Decode.t -> Decode.t * report
(** Like {!run}, also returning per-pass rewrite statistics. *)

val pp_report : report Fmt.t
(** Render in the {!Optreport} style: a ["opt-report for program %s"]
    header followed by one indented line per pass and a total.
    Deterministic — the golden transcript byte-compares it. *)
