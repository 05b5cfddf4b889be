(** ComPar-style auto-tuning compiler driver: the "tuned" ladder rung.

    Per benchmark and machine, the tuner enumerates per-loop optimization
    strategies over the registered Cee sources — compiler flags
    (vectorize on/off, parallelize on/off, dependence-proven automatic
    [pragma parallel] insertion) crossed with source transformations from
    {!Ninja_lang.Transform.menu} (loop interchange, unroll by a small
    fixed factor) — prunes the space with the dependence engine's
    legality facts so only provably legal transforms are compiled,
    rejects anything the compiler or the static ISA verifier refuses,
    deduplicates candidates by their decoded-program fingerprint, and
    evaluates every survivor {e by simulated time} through the existing
    pipeline (codegen → verify → decode → optimize → interp). The winner
    (strict cycle minimum, earliest-enumerated on ties) is additionally
    validated functionally against the benchmark's reference output;
    a winner that fails validation is rejected and the next-best
    candidate wins.

    Evaluation runs in two stages. Stage 1 simulates every candidate
    compiled with threading in full; the slowest of them sets the cap.
    Stage 2 simulates every other candidate under
    {!Ninja_arch.Timing.simulate}'s [max_cycles] at that cap, so a
    candidate that provably models more cycles stops early and is marked
    {!Cut}: it loses to every stage-1 candidate. Only when every
    candidate within the cap fails validation are the cut ones
    simulated in full and the pick continues among them, so the winner
    is always the one exhaustive evaluation would pick. The cap depends
    on neither [-j] nor evaluation order.

    Everything is deterministic: candidates are enumerated in a fixed
    order, evaluated results are position-stable under
    {!Ninja_util.Pool.map_list}, and no wall-clock quantity enters the
    result, so the winner and its JSON export are byte-identical across
    domain counts and cold/warm store states. Candidate evaluations are
    memoized in the persistent {!Store} under the ["tuned"] step tag
    (stage-2 outcomes as derived entries of kind {!bound_kind}), and
    the winners' validation verdicts as derived entries of kind
    {!check_kind} under the same keys, so a warm tuning run executes
    nothing. *)

(** Final verdict on one candidate. [Legal] appears only in {!plan}
    output (statically admissible, not yet simulated). *)
type status =
  | Legal  (** compiles and verifies; awaiting simulation ({!plan} only) *)
  | Winner  (** the chosen candidate *)
  | Evaluated  (** simulated, but beaten by the winner *)
  | Duplicate of int
      (** identical decoded program to the earlier candidate with this
          index; never simulated separately *)
  | Rejected of string * string
      (** stable reason code ([TUNE_NOT_APPLICABLE] /
          [TUNE_COMPILE_ERROR] / [TUNE_VERIFY_FAILED] /
          [TUNE_CHECK_FAILED]) and a human-readable detail *)
  | Cut of float
      (** simulated under this cycle cap — the slowest threaded
          candidate's cycles — and found to model more: stopped as soon
          as that was provable, or run to completion above it. Slower
          than every threaded candidate, so never the winner unless every
          candidate within the cap fails validation. [c_cycles] is
          [None]. *)

type candidate = {
  c_index : int;  (** position in the fixed enumeration order *)
  c_variant : string;  (** source variant ("naive" / "algo") *)
  c_vectorize : bool;  (** compiled with the auto-vectorizer on *)
  c_parallelize : bool;  (** compiled with threading on *)
  c_autopar : bool;
      (** dependence-proven [pragma parallel] insertion applied *)
  c_transform : string;  (** {!Ninja_lang.Transform.name} of the rewrite *)
  c_status : status;
  c_cycles : float option;  (** simulated cycles when evaluated *)
}

val candidate_name : candidate -> string
(** Compact stable spelling ["variant/flags/transform"], e.g.
    ["algo/vec+par/none"] — used in tables, reports and JSON. *)

type decision = {
  d_loop : string;  (** loop label, matching vec-report/deps labels *)
  d_vectorized : bool;
  d_parallelized : bool;  (** top-level loop compiled into a [Par] phase *)
}

type t = {
  t_bench : string;
  t_machine : string;
  t_scale : int;
  t_candidates : candidate list;  (** enumeration order, final statuses *)
  t_winner : candidate;
  t_report : Ninja_arch.Timing.report;  (** the winner's simulation *)
  t_naive : Ninja_arch.Timing.report;  (** the "naive serial" rung *)
  t_ninja : Ninja_arch.Timing.report;  (** the "ninja" rung *)
  t_decisions : decision list;  (** per-loop choices in the winner *)
  t_simulated : int;
      (** simulations this session actually executed ([0] when every
          evaluation was served by the store — a fully warm run). The
          only cache-state-dependent field; deliberately excluded from
          {!to_json} and {!pp}. The experiment layer uses it to account
          a warm ["tuned"] grid job as a store hit. *)
}

val tune :
  ?domains:int ->
  ?store:Store.t ->
  ?run_rung:(string -> Ninja_arch.Timing.report) ->
  machine:Ninja_arch.Machine.t ->
  scale:int ->
  steps:Ninja_kernels.Driver.step list ->
  Ninja_kernels.Driver.benchmark ->
  t
(** Tune one benchmark on one machine. [steps] is the benchmark's ladder
    at [scale] (candidates clone the matching rung's
    shapes, bindings, launch count, per-run preparation and output check);
    [domains] (default [1] = serial) sizes the work-stealing pool the
    candidate search runs on; [store], when given, memoizes candidate
    evaluations under the ["tuned"] step tag, the validation verdict of
    each candidate [pick] checks under that candidate's key
    ({!check_kind}), and the baseline rungs under their own step names.
    Its [costs.json] then gets the session's wall time under ["tuned"]
    (what {!Jobs.schedule_order} reads as a tuned job's cost) and each
    simulated candidate's under ["tuned candidate"]; a session the store
    served entirely records nothing. [run_rung], when given, supplies the
    "naive serial" and "ninja" baseline reports (the experiment grid
    passes its memoized {!Experiments.run_step_cached}); the default
    simulates them through [store]. The result is independent of
    [domains] and of store temperature. *)

val check_kind : string
(** ["check/v1"], the {!Store.derived} kind of a candidate's validation
    verdict. The payload is [{"ok": true}] or
    [{"ok": false, "error": <message>}]; an [Error] verdict marks the
    candidate [TUNE_CHECK_FAILED] with that message. Bump it whenever a
    benchmark's output check or dataset changes. *)

val bound_kind : string
(** ["bound/v1"], the {!Store.derived} kind of a stage-2 candidate's
    outcome, under its ["tuned"] key. The payload is
    [{"cut_above": c}] (the candidate models more than [c] cycles) or
    [{"report": <report>}] (its full report, when it fit under the cap).
    A cut candidate simulated in full, after every candidate within the
    cap failed validation, is stored as an ordinary report under the same
    key. An entry whose [c] is below the session's cap proves too little
    and counts as corrupt: the bounded run is redone and the entry
    overwritten. *)

val plan :
  machine:Ninja_arch.Machine.t ->
  steps:Ninja_kernels.Driver.step list ->
  Ninja_kernels.Driver.benchmark ->
  candidate list
(** The static half of {!tune}: enumeration, legality pruning,
    compilation, verification and fingerprint dedup — zero simulations,
    so goldens can pin the search space cheaply. Surviving candidates
    carry status [Legal]. *)

val candidate_steps :
  machine:Ninja_arch.Machine.t ->
  steps:Ninja_kernels.Driver.step list ->
  Ninja_kernels.Driver.benchmark ->
  (candidate * Ninja_kernels.Driver.step option) list
(** {!plan} with the ladder step {!tune} simulates for each surviving
    candidate (its program is the step's [make]); [None] for rejected and
    duplicate candidates. For tests that evaluate the space exhaustively. *)

val speedup_vs_naive : t -> float
(** Modeled-seconds ratio naive/tuned (how much faster tuned is). *)

val ratio_vs_ninja : t -> float
(** Modeled-seconds ratio tuned/ninja ([1.0] = ninja parity, bigger is
    further from ninja). *)

val gap_closed : t -> float
(** Fraction of the naive-to-ninja simulated-time gap the tuned variant
    closes, [(naive - tuned) / (naive - ninja)] clamped to [[0, 1]]
    ([1.0] when ninja is not faster than naive). *)

val counts : t -> int * int * int * int
(** [(enumerated, evaluated, duplicates, rejected)] candidate totals;
    [evaluated] includes the winner and every {!Cut} candidate. *)

val to_json : t -> Ninja_report.Json.t
(** The stable export, schema ["ninja-tune/v1"]: benchmark, machine,
    scale, winner (variant/flags/transform + cycles), baseline cycles,
    speedups and gap closed, per-loop decisions, candidate counts, and
    every rejected candidate with its reason code. Deterministic — no
    wall-clock or cache-state field, so warm and cold runs export
    byte-identical documents. *)

val pp : t Fmt.t
(** Opt-report-style human rendering: the winner and its per-loop
    decisions, candidate counts (with how many evaluated candidates were
    cut, and at which cap, e.g. [10 evaluated (6 cut above 0.232
    Mcycles)]), and each rejected candidate's reason. Deterministic. *)

val pp_plan : candidate list Fmt.t
(** Human rendering of {!plan} output (one line per candidate).
    Deterministic; used by the opt-report golden. *)
