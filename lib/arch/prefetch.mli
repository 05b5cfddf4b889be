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

val create : ?fast_path:bool -> streams:int -> unit -> t
(** [streams] is the table capacity (typically 16). [fast_path] (default
    [true]) selects the packed layout, whose miss is O(1): an occupancy
    filter over the stream heads skips the table scan when no head is
    near the line, and an LRU list names the victim. Both layouts make
    identical training decisions; the reference walk exists as the
    honest pre-optimization baseline for the self-benchmark
    ({!Hierarchy.create} forwards its own [?fast_path]). *)

val observe : t -> line_addr:int -> bool
(** Feed one access; returns [true] if the access was covered by an
    established stream. Also trains the table. *)

val reset : t -> unit
(** Forget every stream (an empty table, as after {!create}). *)

val consistent : t -> bool
(** Whether the fast layout's side structures agree with its stream
    table: each occupancy-filter count is the number of live stream
    heads in its bucket, and the LRU list links every stream exactly
    once. Always [true] (and trivially so for the reference layout);
    exposed for the differential tests. *)
