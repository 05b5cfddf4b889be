(** The chip's memory system: per-core L1/L2 with a stride prefetcher, a
    shared last-level cache, and DRAM traffic accounting. Consumes the
    interpreter's address stream; classifies each access by the deepest
    level it had to reach and whether an established prefetch stream covered
    it. *)

type t

type level = L1 | L2 | LLC | Dram

type result = {
  level : level;  (** deepest level reached by any line of the access *)
  covered : bool;  (** all missing lines were prefetch-covered *)
}

val create : Machine.t -> t
(** A cold hierarchy shaped by the machine's cache configurations: per
    core an L1, an L2 and a 32-stream {!Prefetch} table, and one shared
    LLC. *)

val access :
  t -> core:int -> addr:int -> bytes:int -> write:bool -> nt:bool -> result
(** Route one access through core [core]'s private caches and the shared
    LLC. Non-temporal writes ([nt]) bypass the hierarchy entirely and count
    as DRAM write traffic. *)

val hit_port : t -> Ninja_vm.Event.port -> Ninja_vm.Event.port
(** [hit_port t rest] is an access port that counts a single-line
    access hitting its core's L1 as predicted ({!Cache.try_hit}) as an
    L1 access and does nothing else: no other cache, counter or
    prefetcher is touched. Every other access goes to [rest], which is
    expected to pass it to {!access} (core = thread). *)

val drain_writebacks : t -> unit
(** Count still-resident dirty lines as DRAM write traffic (end-of-run
    steady-state accounting). *)

val dram_read_bytes : t -> int
(** Bytes fetched from DRAM so far (line fills + uncached reads). *)

val dram_write_bytes : t -> int
(** Bytes written to DRAM so far (writebacks + non-temporal stores). *)

val accesses : t -> level -> int
(** Number of accesses whose deepest level was [level]. *)

val reset : t -> unit
(** Invalidate all caches and zero all traffic counters. *)

val level_name : level -> string
(** ["L1"], ["L2"], ["LLC"] or ["DRAM"]. *)
