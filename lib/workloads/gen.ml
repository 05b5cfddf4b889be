module Rng = Ninja_util.Rng

let floats ~seed ?(lo = 0.) ?(hi = 1.) n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Rng.float_range rng lo hi)

let ints ~seed ~bound n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Rng.int rng bound)

let permutation ~seed n =
  let rng = Rng.create seed in
  let a = Array.init n Fun.id in
  Rng.shuffle rng a;
  a

let interleave fields =
  match fields with
  | [] -> [||]
  | first :: rest ->
      let n = Array.length first in
      List.iter
        (fun f ->
          if Array.length f <> n then invalid_arg "Gen.interleave: ragged fields")
        rest;
      let k = List.length fields in
      let out = Array.make (n * k) 0. in
      List.iteri
        (fun j f -> Array.iteri (fun i x -> out.((i * k) + j) <- x) f)
        fields;
      out

let interleave2 a b = interleave [ a; b ]

let grid3d ~seed ~nx ~ny ~nz =
  let rng = Rng.create seed in
  let g = Array.make (nx * ny * nz) 0. in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        (* smooth base field plus noise: stencils and rendering behave like
           they do on physical data rather than white noise *)
        let fx = float_of_int x /. float_of_int nx in
        let fy = float_of_int y /. float_of_int ny in
        let fz = float_of_int z /. float_of_int nz in
        let base = sin (6.28 *. fx) *. cos (6.28 *. fy) +. fz in
        g.(x + (nx * (y + (ny * z)))) <- base +. Rng.float rng 0.1
      done
    done
  done;
  g

(* LSD radix sort of 53-bit draws: four stable 14-bit counting passes that
   ping-pong between [draws] and [scratch] (holding each draw as an exact
   [float_of_int], since draws are below 2^53), ending sorted in [draws]. *)
let radix_bits = 14
let radix_mask = (1 lsl radix_bits) - 1

(* Turn [count] (digit histogram) into each digit's first output slot. *)
let exclusive_prefix count =
  let sum = ref 0 in
  for d = 0 to radix_mask do
    let c = count.(d) in
    count.(d) <- !sum;
    sum := !sum + c
  done

let pass_to_floats count shift (src : int array) (dst : float array) =
  Array.fill count 0 (radix_mask + 1) 0;
  for i = 0 to Array.length src - 1 do
    let d = (src.(i) lsr shift) land radix_mask in
    count.(d) <- count.(d) + 1
  done;
  exclusive_prefix count;
  for i = 0 to Array.length src - 1 do
    let v = src.(i) in
    let d = (v lsr shift) land radix_mask in
    dst.(count.(d)) <- float_of_int v;
    count.(d) <- count.(d) + 1
  done

let pass_to_ints count shift (src : float array) (dst : int array) =
  Array.fill count 0 (radix_mask + 1) 0;
  for i = 0 to Array.length src - 1 do
    let d = (int_of_float src.(i) lsr shift) land radix_mask in
    count.(d) <- count.(d) + 1
  done;
  exclusive_prefix count;
  for i = 0 to Array.length src - 1 do
    let v = int_of_float src.(i) in
    let d = (v lsr shift) land radix_mask in
    dst.(count.(d)) <- v;
    count.(d) <- count.(d) + 1
  done

let radix_sort_bits53 draws ~scratch =
  let count = Array.make (radix_mask + 1) 0 in
  pass_to_floats count 0 draws scratch;
  pass_to_ints count radix_bits scratch draws;
  pass_to_floats count (2 * radix_bits) draws scratch;
  pass_to_ints count (3 * radix_bits) scratch draws

let bst_level_order ~seed ~depth =
  if depth < 1 || depth > 30 then invalid_arg "Gen.bst_level_order: bad depth";
  let n = (1 lsl depth) - 1 in
  let lo = 0. and hi = 1000. in
  (* The keys are [Rng.float_range rng lo hi] draws in sorted order. That
     map is monotone in the raw draw, so sort the draws as ints and map
     each one as it is placed: same keys, bit for bit, as sorting floats. *)
  let rng = Rng.create seed in
  let draws = Array.init n (fun _ -> Rng.bits53 rng) in
  let tree = Array.make n 0. in
  radix_sort_bits53 draws ~scratch:tree;
  (* Node [i]'s children are [2i+1] and [2i+2], so the in-order walk of
     the perfect tree visits ranks 0..n-1 in increasing order. *)
  let rank = ref 0 and prev = ref neg_infinity in
  let rec fill node =
    if node < n then begin
      fill ((2 * node) + 1);
      let k = Rng.of_bits53 lo hi draws.(!rank) in
      (* ensure strict increase so searches have unique answers *)
      let k = if k <= !prev then !prev +. 1e-3 else k in
      tree.(node) <- k;
      prev := k;
      incr rank;
      fill ((2 * node) + 2)
    end
  in
  fill 0;
  assert (!rank = n);
  tree
