type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: add the gamma, then mix with two
   xor-shift-multiply rounds (constants from Vigna's reference code). *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

(* The 53 high-quality bits of one draw. *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* [b / 2^53] is exact in [0,1), so the map is monotone in [b]. *)
let of_bits53 lo hi b = lo +. (float_of_int b /. 9007199254740992.0 *. (hi -. lo))

let float t bound =
  assert (bound > 0.);
  of_bits53 0. bound (bits53 t)

let float_range t lo hi =
  assert (lo < hi);
  of_bits53 lo hi (bits53 t)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = { state = next_int64 t }
