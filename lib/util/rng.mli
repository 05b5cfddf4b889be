(** Deterministic pseudo-random number generation.

    Every workload in the repository is generated from an explicit seed so
    that simulated cycle counts are bit-reproducible across runs. The
    generator is SplitMix64 (Steele et al., OOPSLA 2014): a tiny, fast,
    statistically solid 64-bit generator that needs no warm-up. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator; equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val bits53 : t -> int
(** [bits53 t] is the next draw's 53 high bits, uniform in [\[0, 2^53)]:
    the draw behind {!float} and {!float_range}. *)

val of_bits53 : float -> float -> int -> float
(** [of_bits53 lo hi b] maps a 53-bit draw [b] to [\[lo, hi)] exactly as
    {!float_range} does, so [float_range t lo hi = of_bits53 lo hi (bits53 t)].
    For [lo < hi] it is monotone in [b]: sorting draws sorts their images. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)]. Requires [lo < hi]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** Derive an independent generator (for per-thread streams). *)
