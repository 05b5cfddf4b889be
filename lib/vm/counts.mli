(** Per-thread dynamic instruction counts by {!Isa.op_class}. The timing
    model prices these with per-machine issue costs; the analysis library
    derives floating-point operation totals from them. *)

type t

val create : int -> t
(** [create n_threads] with all counts zero. *)

val add : t -> thread:int -> Isa.op_class -> int -> unit
(** [add t ~thread cls n] bumps one thread's count of [cls] by [n]. *)

val thread_row : t -> thread:int -> int array
(** One thread's mutable count row, indexed by {!Isa.op_class_index} —
    the compiled backend counts directly into it, skipping
    the per-instruction class-to-index translation. Writes through the row
    are equivalent to {!add}. *)

val thread_count : t -> thread:int -> Isa.op_class -> int
(** Count of one class on one thread. *)

val total : t -> Isa.op_class -> int
(** Count of one class summed over threads. *)

val grand_total : t -> int
(** All instructions, all threads. *)

val per_thread_total : t -> thread:int -> int
(** All instructions executed by one thread. *)

val clear : t -> unit
(** Reset every count to zero, keeping the arrays — a reusable
    interpreter session zeroes its counts at each launch. *)

val copy : t -> t
(** Deep copy — a session's launch result snapshots its counts so the
    next launch's {!clear} cannot disturb a retained report. *)

val merge_into : dst:t -> t -> unit
(** Accumulate [src] into [dst] (equal thread counts required) — used when
    a measurement spans several kernel launches. *)

val pp : t Fmt.t
(** One line per non-zero class. *)
