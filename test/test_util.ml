(* Unit and property tests for ninja_util. *)

module Rng = Ninja_util.Rng
module Stats = Ninja_util.Stats
module Pool = Ninja_util.Pool

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_float_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float_range r (-2.) 3. in
    Alcotest.(check bool) "in range" true (v >= -2. && v < 3.)
  done

(* [draw] and [mapped] must agree bit for bit on copies of one stream. *)
let check_same_stream label draw mapped =
  let a = Rng.create 11 in
  let b = Rng.copy a in
  for _ = 1 to 1000 do
    Alcotest.(check int64) label
      (Int64.bits_of_float (draw a))
      (Int64.bits_of_float (mapped b))
  done

let test_float_range_is_of_bits53 () =
  List.iter
    (fun (lo, hi) ->
      check_same_stream
        (Fmt.str "float_range %g %g" lo hi)
        (fun r -> Rng.float_range r lo hi)
        (fun r -> Rng.of_bits53 lo hi (Rng.bits53 r)))
    [ (0., 1000.); (-2., 3.); (1e-3, 1e-3 +. 1e-9) ];
  check_same_stream "float 0.1"
    (fun r -> Rng.float r 0.1)
    (fun r -> Rng.of_bits53 0. 0.1 (Rng.bits53 r))

(* Existing streams must not move: the first outputs of [float_range] and
   [float] for two seeds, as computed by the original SplitMix64 mapping. *)
let test_float_streams_pinned () =
  let r = Rng.create 71 in
  List.iter
    (fun want -> Alcotest.(check string) "float_range 0 1000" want
        (Printf.sprintf "%h" (Rng.float_range r 0. 1000.)))
    [ "0x1.979b0dfe021adp+9"; "0x1.bd7306bf9826bp+8"; "0x1.3c5002065ed4ap+9" ];
  let r = Rng.create 4 in
  List.iter
    (fun want -> Alcotest.(check string) "float 0.1" want
        (Printf.sprintf "%h" (Rng.float r 0.1)))
    [ "0x1.6172d7d6070b5p-5"; "0x1.6d87a3dd45c12p-4"; "0x1.5fe4f660e3f8dp-4" ]

(* Draw pairs are often adjacent, where rounding could break monotonicity. *)
let prop_of_bits53_monotone =
  let bits53 = QCheck.Gen.map (fun x -> x land ((1 lsl 53) - 1)) QCheck.Gen.int in
  QCheck.Test.make ~name:"of_bits53 monotone in the draw" ~count:1000
    QCheck.(
      make
        Gen.(
          quad (float_range (-1e6) 1e6) (float_range 1e-9 1e6) bits53
            (oneof [ int_range 0 4; int_bound 1_000_000; bits53 ])))
    (fun (lo, width, b, delta) ->
      let hi = lo +. width in
      let b1 = min b (((1 lsl 53) - 1) - delta) in
      let b2 = min ((1 lsl 53) - 1) (b1 + delta) in
      QCheck.assume (lo < hi);
      Rng.of_bits53 lo hi b1 <= Rng.of_bits53 lo hi b2)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean of equal" 4. (Stats.geomean [ 4.; 4.; 4. ]);
  Alcotest.(check (float 1e-9)) "geomean 1,4" 2. (Stats.geomean [ 1.; 4. ])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

let test_mean () = Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_minmax () =
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "max" 3. (Stats.maximum [ 3.; 1.; 2. ])

let test_percentile () =
  let xs = [ 10.; 20.; 30.; 40.; 50. ] in
  Alcotest.(check (float 1e-9)) "p0" 10. (Stats.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p50" 30. (Stats.percentile 0.5 xs);
  Alcotest.(check (float 1e-9)) "p100" 50. (Stats.percentile 1. xs)

let test_ratio_zero () =
  Alcotest.check_raises "zero divisor" (Invalid_argument "Stats.ratio: zero divisor")
    (fun () -> ignore (Stats.ratio 1. 0.))

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let r = Rng.create seed in
      Rng.shuffle r a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let prop_geomean_between =
  QCheck.Test.make ~name:"geomean between min and max" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (float_range 0.001 1000.))
    (fun xs ->
      let g = Stats.geomean xs in
      g >= Stats.minimum xs -. 1e-9 && g <= Stats.maximum xs +. 1e-9)

(* ---- domain pool ---- *)

let test_pool_map_order () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Fmt.str "matches List.map at %d domains" domains)
        (List.map f xs)
        (Pool.map_list ~domains f xs))
    [ 1; 2; 4; 8 ]

let test_pool_runs_all_tasks () =
  let n = 200 in
  let hit = Array.make n 0 in
  let p = Pool.create ~domains:4 in
  for i = 0 to n - 1 do
    Pool.submit p (fun () -> hit.(i) <- hit.(i) + 1)
  done;
  Pool.wait p;
  Pool.shutdown p;
  Alcotest.(check int) "every task ran exactly once" n
    (Array.fold_left ( + ) 0 hit)

let test_pool_reusable_after_wait () =
  let p = Pool.create ~domains:2 in
  let a = ref 0 and b = ref 0 in
  Pool.submit p (fun () -> a := 1);
  Pool.wait p;
  Pool.submit p (fun () -> b := 1);
  Pool.wait p;
  Pool.shutdown p;
  Alcotest.(check (pair int int)) "both batches ran" (1, 1) (!a, !b)

let test_pool_exception_propagates () =
  Alcotest.check_raises "first task exception re-raised" (Failure "boom")
    (fun () ->
      ignore
        (Pool.map_list ~domains:4
           (fun x -> if x = 13 then failwith "boom" else x)
           (List.init 50 (fun i -> i))))

let test_pool_size () =
  let p = Pool.create ~domains:3 in
  Alcotest.(check int) "three workers" 3 (Pool.size p);
  Pool.shutdown p;
  Alcotest.check_raises "create rejects 0 domains"
    (Invalid_argument "Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0))

let suite =
  ( "util",
    [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "pool map order" `Quick test_pool_map_order;
      Alcotest.test_case "pool runs all tasks" `Quick test_pool_runs_all_tasks;
      Alcotest.test_case "pool reusable after wait" `Quick test_pool_reusable_after_wait;
      Alcotest.test_case "pool exception" `Quick test_pool_exception_propagates;
      Alcotest.test_case "pool size" `Quick test_pool_size;
      Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
      Alcotest.test_case "rng copy" `Quick test_rng_copy;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "float bounds" `Quick test_float_bounds;
      Alcotest.test_case "float_range is of_bits53 of bits53" `Quick
        test_float_range_is_of_bits53;
      Alcotest.test_case "float streams pinned" `Quick test_float_streams_pinned;
      Alcotest.test_case "geomean" `Quick test_geomean;
      Alcotest.test_case "geomean rejects" `Quick test_geomean_rejects_nonpositive;
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "min/max" `Quick test_minmax;
      Alcotest.test_case "percentile" `Quick test_percentile;
      Alcotest.test_case "ratio zero" `Quick test_ratio_zero;
      QCheck_alcotest.to_alcotest prop_shuffle_permutation;
      QCheck_alcotest.to_alcotest prop_geomean_between;
      QCheck_alcotest.to_alcotest prop_of_bits53_monotone ] )
