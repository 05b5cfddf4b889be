(** Memory-access events emitted by the interpreter and consumed by the
    timing model's cache hierarchy. *)

type kind = Read | Write

type t = {
  thread : int;
  addr : int;  (** modeled byte address (see {!Memory.address}) *)
  bytes : int;  (** may span several cache lines for vector accesses *)
  kind : kind;
  chain : bool;
      (** the address depended on a previous load (pointer chasing): miss
          latency cannot be hidden by memory-level parallelism *)
  nt : bool;  (** non-temporal store: bypasses the cache hierarchy *)
}

type sink = t -> unit
(** Consumer of access events (the cache hierarchy walker). *)

type port =
  thread:int -> addr:int -> bytes:int -> write:bool -> chain:bool -> nt:bool -> unit
(** The same access, handed over field by field: no [t] record is built,
    so a hot consumer (the timing model's untraced path) allocates
    nothing per access. [write] is [kind = Write]. *)

val pp : t Fmt.t
(** Debug rendering of one access event. *)
