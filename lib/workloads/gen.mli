(** Deterministic synthetic input generators for the benchmark suite.

    All generators are pure functions of their [seed]; the benchmark harness
    uses fixed seeds so modeled cycle counts are reproducible run to run. *)

val floats : seed:int -> ?lo:float -> ?hi:float -> int -> float array
(** [n] uniform floats in [\[lo, hi)] (default [\[0, 1)]). *)

val ints : seed:int -> bound:int -> int -> int array
(** [n] uniform ints in [\[0, bound)]. *)

val permutation : seed:int -> int -> int array
(** A uniform random permutation of [0..n-1]. *)

val interleave2 : float array -> float array -> float array
(** [interleave2 a b] is the AoS layout [a0; b0; a1; b1; ...]. The two
    arrays must have equal length. *)

val interleave : float array list -> float array
(** Generalized AoS packing of equal-length field arrays. *)

val grid3d : seed:int -> nx:int -> ny:int -> nz:int -> float array
(** A 3-D field in x-major layout (index [x + nx * (y + ny * z)]) with
    smooth-ish random contents. *)

val bst_level_order : seed:int -> depth:int -> float array
(** Keys of a perfect binary search tree of [depth] levels (2^depth - 1
    keys), laid out in level order: node [i]'s children are [2i+1] and
    [2i+2]. Keys are strictly increasing in in-order traversal.

    The keys are [2^depth - 1] draws of [Rng.float_range] over [\[0, 1000)]
    in sorted order, each nudged up by [1e-3] past its predecessor when not
    larger. The draws are radix-sorted as raw 53-bit integers, with the
    result array as the sort's scratch half, so memory stays at two
    [n]-word arrays. Raises [Invalid_argument] unless [1 <= depth <= 30]. *)
