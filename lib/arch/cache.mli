(** A single set-associative, write-back, write-allocate cache with LRU
    replacement, operating on line addresses. Used as a building block for
    the per-core L1/L2 and the shared LLC in {!Hierarchy}. *)

type t

type cfg = Machine.cache_cfg

(** Result of a lookup-with-fill. *)
type outcome = {
  hit : bool;
  evicted_dirty : int option;
      (** line address of a dirty line displaced by the fill, if any *)
}

val create : ?fast_path:bool -> cfg -> t
(** An empty cache with the configuration's geometry.

    @param fast_path enable the MRU fast-hit path (default [true]): a
      repeat access to the line touched by the immediately preceding
      access is serviced without the way scan. Behaviour (outcomes, LRU
      order, statistics) is bit-identical either way — the most recently
      touched line holds the newest LRU stamp so it cannot have been
      evicted; [false] exists for differential testing. *)

val line_bytes : t -> int
(** Line size in bytes. *)

val sets : t -> int
(** Number of sets. *)

val assoc : t -> int
(** Ways per set. *)

val access : t -> line_addr:int -> write:bool -> outcome
(** Probe for [line_addr]; on a miss, fill it (possibly evicting). [write]
    marks the (resulting) line dirty. *)

val try_hit : t -> line_addr:int -> write:bool -> bool
(** [try_hit t ~line_addr ~write] services the access if it hits and
    says whether it did: a hit makes exactly {!access}'s updates (LRU
    stamp, dirty bit, statistics); a miss changes nothing. {!access} is
    [try_hit], then {!fill} on a miss. A cache created without the fast
    path always answers [false]. *)

val fill : t -> line_addr:int -> write:bool -> outcome
(** The rest of {!access} after {!try_hit} answered [false]: fill the
    line, possibly evicting. Calling it otherwise is unspecified. *)

val probe : t -> line_addr:int -> bool
(** Non-destructive hit test (no fill, no LRU update). *)

val invalidate_all : t -> unit
(** Drop every line (dirty contents are discarded, not written back). *)

val dirty_lines : t -> int
(** Number of valid dirty lines currently held (for end-of-run write-back
    draining). *)

val stats_hits : t -> int
(** Hits since creation / the last {!reset_stats}. *)

val stats_misses : t -> int
(** Misses since creation / the last {!reset_stats}. *)

val reset_stats : t -> unit
(** Zero the hit/miss counters (contents untouched). *)
