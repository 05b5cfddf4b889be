(** A single set-associative, write-back, write-allocate cache with LRU
    replacement, operating on line addresses. Used as a building block for
    the per-core L1/L2 and the shared LLC in {!Hierarchy}.

    A fill takes the set's first invalid way, else the first way with
    the oldest access (LRU). Each set's ways are stored together, one
    pass finds a hit or the victim, and a way predictor behind
    {!try_hit} makes a predicted hit one tag compare. *)

type t

type cfg = Machine.cache_cfg

(** Result of a lookup-with-fill. *)
type outcome = {
  hit : bool;
  evicted_dirty : int option;
      (** line address of a dirty line displaced by the fill, if any *)
}

val create : cfg -> t
(** An empty cache with the configuration's geometry. Raises
    [Invalid_argument] when it holds fewer lines than ways or the line
    size is not a power of two. *)

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
(** [try_hit t ~line_addr ~write] services the access if the way
    predictor finds the line (one tag compare at the way that last held
    a line with the same hash of its address) and says whether it did: a
    hit makes exactly {!access}'s updates (LRU stamp, dirty bit,
    statistics). [false] changes nothing and does not mean a miss: the
    line may sit in another way, so follow it with {!access}. *)

val hit_port : t array -> hits:int array -> Ninja_vm.Event.port -> Ninja_vm.Event.port
(** [hit_port l1s ~hits rest] is the L1 stage of an access port, one
    cache per thread, all with the line size of [l1s.(0)]: an access
    that spans one line, is not a non-temporal store and is serviced by
    {!try_hit} on [l1s.(thread)] only adds one to [hits.(0)]; any other
    access is passed on to [rest] untouched. It lives in this unit so
    that the hit probe is a direct call. *)

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
