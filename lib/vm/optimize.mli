(** Bytecode optimizer: a pass pipeline over {!Decode}'s flat op arrays.

    The optimizer speeds up the {e host} executor, never the
    {e simulated} machine: every pass preserves the per-class instruction
    counts, the total dynamic instruction count, the {!Trace} event
    stream (order included), the memory event stream, traps (messages
    and positions), final memory contents and the final register files
    bit-for-bit against the unoptimized decoded program — so timing
    reports round-trip unchanged and the ops/s gain is pure wall-clock.
    Rewrites therefore stay within an op class ([Ibin] folds to
    [Iconst], both Salu; [Fdiv]/[Fsqrt]/[Fexp]/[Flog] are never folded),
    dead defs become count-preserving {!Decode.Dphantom}s, and
    constant-condition branches become branch-counting {!Decode.Dgoto}s.

    Each pass is independently correct on any valid decoded array, so
    passes compose in every order and the full pipeline is idempotent
    (property-tested in test/test_optimize.ml: Tree vs
    [Compiled config] per pass, for pairwise shuffles and for the full
    pipeline). *)

(** One optimization pass:

    - [Fold]: constant folding and propagation of scalar int/float
      constants within straight-line blocks; constant-condition
      [Dif]/[Dwhile] become [Dgoto].
    - [Moves]: copy propagation — reads of a register known to mirror
      another are renamed to the source (register contents never change).
    - [Imm]: immediate-operand specialization in the [ropAddI] style —
      [Ibin] with one known-constant operand becomes
      [Daddi]/[Dmuli]; scalar loads/stores at a known non-negative index
      become the [D*_at] forms.
    - [Dce]: defs provably overwritten before any read become
      {!Decode.Dphantom}s (adjacent same-class phantoms coalesce into
      one multi-count phantom); ops unreachable after branch folding are
      neutralized.
    - [Peephole]: adjacent scalar/vector multiply-then-dependent-add
      pairs fuse into {!Decode.Dsmuladd}/{!Decode.Dvmuladd}. *)
type pass = Fold | Moves | Imm | Dce | Peephole

type config = { passes : pass list }
(** Which passes to run, in order. A pass may appear more than once. *)

val all_passes : pass list
(** Every pass, in the canonical pipeline order
    [Fold; Moves; Imm; Dce; Peephole]. *)

val default : config
(** All passes in canonical order. *)

val none : config
(** The empty pipeline: [run ~config:none] copies the program verbatim. *)

val pass_name : pass -> string
(** Stable lowercase name ("fold", "moves", "imm", "dce", "peephole") —
    the [--passes] syntax and the opt-report label. *)

val pass_of_name : string -> pass option
(** Inverse of {!pass_name}. *)

val parse_passes : string -> (config, string) result
(** Parse a comma-separated pass list ("fold,dce"). ["all"] is
    {!default}; [""] and ["none"] are {!none}. Unknown names produce a
    human-readable [Error]. *)

val tag : config -> string
(** Canonical string form of a config ("fold,moves,imm,dce,peephole") —
    embedded into persistent-store cache keys so optimized results can
    never alias differently-optimized (or unoptimized) entries. *)

type pass_stats = { ps_pass : pass; ps_stats : (string * int) list }
(** Per-pass rewrite counters, summed across phases. Keys are fixed per
    pass (fold: "folded"/"branches"; moves: "rewritten"; imm:
    "specialized"; dce: "dead"/"unreachable"/"coalesced"; peephole:
    "fused") and reported in a deterministic order. *)

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

val total_rewrites : report -> int
(** Sum of every counter in the report. *)

val pp_report : report Fmt.t
(** Render in the {!Optreport} style: a ["opt-report for program %s"]
    header followed by one indented line per pass and a total.
    Deterministic — the golden transcript byte-compares it. *)
