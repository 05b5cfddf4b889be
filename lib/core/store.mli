(** Persistent content-addressed result store for simulation reports.

    Simulations are pure functions of (compiled program, machine
    configuration, step, simulator version), so their
    {!Ninja_arch.Timing.report}s are cached on disk (default
    [_ninja_cache/]) across processes: a warm rerun of the full
    experiment grid executes zero simulations. Keys are digests over the
    {e decoded} program ({!Ninja_vm.Decode.fingerprint}), a canonical
    fingerprint of every machine parameter (including the issue-cost
    vector), the step name, and a version salt; values are full reports
    serialized via {!Ninja_report.Json}, whose shortest-round-trip
    number printing makes reloaded reports bit-identical to freshly
    simulated ones — warm tables render byte-for-byte the same.

    Writes are atomic (unique temp file + rename), so concurrent writers
    of one key are safe. Loads re-verify the key digest and a payload
    checksum; {e any} corruption, truncation or version skew makes
    {!load} return [None] and the caller re-simulates — the store can
    miss, but never return wrong data.

    Beside each report the store can keep {e derived products}: values
    computed from the same simulated program that are just as
    deterministic (T4's profile summary, a tuning winner's validation
    verdict), so a warm grid re-executes no kernel at all. See
    {!derived}.

    The store also aggregates per-ladder-step simulation costs
    ([costs.json]) that {!Jobs.prefill} uses to seed the work-stealing
    scheduler longest-expected-first. *)

type t

type stats = {
  hits : int;  (** entries loaded and verified (reports and derived) *)
  misses : int;  (** lookups that fell through to recomputation *)
  errors : int;  (** corrupt/stale entries dropped (subset of misses) *)
  writes : int;  (** entries written (reports and derived) *)
}

val version_salt : string
(** The simulator-version salt mixed into every key. Bump it whenever
    the timing model or interpreter semantics change in a way the
    program/machine fingerprints cannot see; old entries then miss and
    are re-simulated. *)

val default_dir : string
(** ["_ninja_cache"], the CLI default for [--cache-dir]. *)

val open_ : ?salt:string -> dir:string -> unit -> t
(** Open (creating directories as needed) a store rooted at [dir].
    [salt] defaults to {!version_salt}; tests override it to prove that
    a salt bump invalidates old entries. *)

val dir : t -> string

val scratch : ?salt:string -> unit -> t
(** A throwaway store in a fresh unique directory under the system temp
    dir — guaranteed cold. For smoke gates and load tests; pair with
    {!destroy}. *)

val destroy : t -> unit
(** Recursively delete the store's directory. For {!scratch} stores;
    the handle must not be used afterwards. *)

val key :
  ?backend:string ->
  t -> machine:Ninja_arch.Machine.t -> step_name:string ->
  Ninja_vm.Isa.program -> string
(** The content address of one simulation: a hex digest over the store's
    salt, the machine fingerprint, [step_name], the decoded program's
    fingerprint, and [backend] — the {!Ninja_vm.Interp.strategy_tag} of
    the execution backend that produced the report, pass list included
    (default [""]). Because the program fingerprint always hashes the
    unoptimized decode, the tag is what keeps tree-walker entries and
    entries compiled under different pass lists from aliasing. *)

val key_of_fingerprint :
  ?backend:string ->
  t -> machine:Ninja_arch.Machine.t -> step_name:string -> string -> string
(** [key_of_fingerprint t ~machine ~step_name fp] is {!key} for a program
    whose {!Ninja_vm.Decode.fingerprint} of the unoptimized decode is
    [fp] — for callers that already hold it, so the program is not
    decoded twice. *)

val load :
  t -> key:string -> machine:Ninja_arch.Machine.t ->
  Ninja_arch.Timing.report option
(** Look [key] up. [Some report] only when the entry exists, its stored
    key and payload checksum verify, and its machine name matches
    [machine] (the returned report carries the caller's [machine] value);
    every failure mode is a silent [None]. *)

val save :
  t -> key:string -> machine:Ninja_arch.Machine.t -> step_name:string ->
  cost_s:float -> Ninja_arch.Timing.report -> unit
(** Write one entry atomically and fold [cost_s] (the measured
    simulation wall time) into the pending per-step cost estimates
    (flushed by {!flush_costs}). *)

val record_cost : t -> step_name:string -> cost_s:float -> unit
(** Fold one measured cost into [step_name]'s pending estimate without
    writing an entry ({!save} does this for every report). For job
    classes whose cost is not one simulation's, such as a whole tuning
    session. *)

val entry_cost : t -> key:string -> float option
(** The stored per-key simulation cost, without deserializing the whole
    report; [None] on any missing or unreadable entry. *)

val step_costs : t -> (string * float) list
(** Per-ladder-step mean simulation seconds from [costs.json], recorded
    by prior runs — the scheduler's cost estimates. Empty when the store
    is fresh or the file is unreadable. *)

val flush_costs : t -> unit
(** Blend the costs accumulated by {!save} since the last flush into
    [costs.json] (atomic replace; 50/50 exponential blend with the
    previous estimate). *)

val stats : t -> stats

(** {1 Derived products}

    A derived entry maps a report key (from {!key}) plus a versioned
    [kind] such as ["t4-summary/v1"] to a JSON payload. It is stored
    beside the report entry as [<aa>/<key>.<kind>.json], with each ['/']
    in [kind] written as ['-']. Writes are atomic like {!save}'s; loads
    verify the stored key, kind and payload checksum and parse strictly.
    Hits, misses, writes and dropped corruptions count in {!stats} like
    report entries.

    The key covers the salt, machine, step and program, so everything
    that invalidates the report invalidates its derived products. A
    change the key cannot see — the profiler's attribution, a
    benchmark's output check or its dataset — must bump the kind's
    version, the same rule {!version_salt} follows for reports. *)

val derived :
  t ->
  key:string ->
  kind:string ->
  encode:('a -> Ninja_report.Json.t) ->
  decode:(Ninja_report.Json.t -> 'a) ->
  (unit -> 'a) ->
  'a
(** [derived t ~key ~kind ~encode ~decode compute]: the stored value when
    the entry verifies and [decode] accepts its payload (any exception
    from [decode] counts as corruption); otherwise [compute ()], written
    back through [encode] (overwriting a corrupt entry). *)

val derived_save :
  t -> key:string -> kind:string -> Ninja_report.Json.t -> unit
(** Write one derived entry atomically, replacing any previous one. *)

(** {1 Report serialization}

    Exposed for the round-trip property tests; {!save}/{!load} are the
    production path. *)

val report_to_json : Ninja_arch.Timing.report -> Ninja_report.Json.t

val report_of_json :
  machine:Ninja_arch.Machine.t -> Ninja_report.Json.t ->
  Ninja_arch.Timing.report
(** Strict: raises [Failure] on any missing field, shape violation, or
    machine-name mismatch. *)
