(** Per-core hardware stride prefetcher model.

    The detector tracks a small number of access streams at cache-line
    granularity. Once a stream has shown the same line stride twice, further
    accesses that continue the stream are reported as [covered]: the timing
    model then hides their miss latency (the prefetcher fetched them ahead
    of use) while the cache simulation still accounts for their DRAM
    traffic. This is the standard behaviour of the L2 streamer on the
    paper's machines: streaming code becomes bandwidth-bound, not
    latency-bound. *)

type t

val create : streams:int -> unit -> t
(** [streams] is the table capacity (typically 16). An access matches
    the first stream, in table order, whose head is within 8 lines of
    it; with no match it replaces the least recently touched stream
    (never-touched streams first, in table order). A miss is O(1): an
    occupancy filter over the stream heads skips the table scan when no
    head is near the line, and an LRU list names the victim. *)

val observe : t -> line_addr:int -> bool
(** Feed one access; returns [true] if the access was covered by an
    established stream. Also trains the table. *)

val reset : t -> unit
(** Forget every stream (an empty table, as after {!create}). *)

val consistent : t -> bool
(** Whether the side structures agree with the stream table: each
    occupancy-filter count is the number of live stream heads in its
    bucket, and the LRU list links every stream exactly once. Always
    [true]; exposed for the model-based tests. *)
