(* Tests for ninja_workloads' generators. *)

module Gen = Ninja_workloads.Gen
module Rng = Ninja_util.Rng

(* The float-sorting construction [Gen.bst_level_order] replaced: draw the
   keys, heap-sort them as floats, force strict increase, then place the
   median of each range at its level-order node. *)
let reference_bst ~seed ~depth =
  let n = (1 lsl depth) - 1 in
  let rng = Rng.create seed in
  let sorted = Array.init n (fun _ -> Rng.float_range rng 0. 1000.) in
  Array.sort Float.compare sorted;
  for i = 1 to n - 1 do
    if sorted.(i) <= sorted.(i - 1) then sorted.(i) <- sorted.(i - 1) +. 1e-3
  done;
  let tree = Array.make n 0. in
  let rec fill node lo hi =
    if node < n && lo < hi then begin
      let mid = (lo + hi) / 2 in
      tree.(node) <- sorted.(mid);
      fill ((2 * node) + 1) lo mid;
      fill ((2 * node) + 2) (mid + 1) hi
    end
  in
  fill 0 0 n;
  tree

let bits tree = Array.map Int64.bits_of_float tree

let prop_bst_matches_reference =
  QCheck.Test.make ~name:"bst_level_order bit-equal to float-sort reference"
    ~count:60
    QCheck.(pair int (int_range 1 16))
    (fun (seed, depth) ->
      bits (Gen.bst_level_order ~seed ~depth) = bits (reference_bst ~seed ~depth))

let in_order tree =
  let n = Array.length tree in
  let rec walk node acc =
    if node >= n then acc
    else walk ((2 * node) + 1) (tree.(node) :: walk ((2 * node) + 2) acc)
  in
  walk 0 []

let test_bst_in_order_increasing () =
  List.iter
    (fun depth ->
      let keys = in_order (Gen.bst_level_order ~seed:5 ~depth) in
      Alcotest.(check int)
        (Fmt.str "depth %d visits 2^depth-1 keys" depth)
        ((1 lsl depth) - 1) (List.length keys);
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) (Fmt.str "depth %d strictly increasing" depth) true
        (increasing keys))
    [ 1; 2; 3; 10; 17 ]

let test_bst_bad_depth () =
  List.iter
    (fun depth ->
      Alcotest.check_raises (Fmt.str "depth %d" depth)
        (Invalid_argument "Gen.bst_level_order: bad depth") (fun () ->
          ignore (Gen.bst_level_order ~seed:1 ~depth)))
    [ 0; 31 ]

(* MD5 of the keys printed as ["%h;"] and concatenated, streamed through a
   pipe so the ~190 MB text of an 8.4M-key tree is never held at once. *)
let md5_of_keys tree =
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr w in
        Array.iter (fun x -> output_string oc (Printf.sprintf "%h;" x)) tree;
        close_out oc)
      ()
  in
  let ic = Unix.in_channel_of_descr r in
  let d = Digest.channel ic (-1) in
  Thread.join writer;
  close_in ic;
  Digest.to_hex d

(* TreeSearch's dataset (depth 23, seed 71), pinned to the digest of the
   float-sort construction's output. *)
let test_treesearch_tree_pinned () =
  Alcotest.(check string) "depth 23, seed 71" "5e404db681e0a5561b816067af534ed8"
    (md5_of_keys (Gen.bst_level_order ~seed:71 ~depth:23))

let suite =
  ( "workloads",
    [ QCheck_alcotest.to_alcotest prop_bst_matches_reference;
      Alcotest.test_case "bst in-order strictly increasing" `Quick
        test_bst_in_order_increasing;
      Alcotest.test_case "bst rejects bad depth" `Quick test_bst_bad_depth;
      Alcotest.test_case "TreeSearch tree pinned" `Slow test_treesearch_tree_pinned ] )
