(* Table rendering and JSON number printing tests. *)

module Table = Ninja_report.Table
module Json = Ninja_report.Json

let test_render_alignment () =
  let t = Table.create ~title:"T" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-name"; "123" ];
  let s = Fmt.str "%a" Table.render t in
  Alcotest.(check bool) "contains rows" true (Astring_contains.contains s "long-name");
  Alcotest.(check bool) "has separator" true (Astring_contains.contains s "---")

let test_row_arity_checked () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Failure "arity") (fun () ->
      try Table.add_row t [ "only one" ] with Invalid_argument _ -> raise (Failure "arity"))

let test_csv () =
  let t = Table.create ~title:"T" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "a,b"; "1" ];
  let csv = Table.to_csv t in
  Alcotest.(check bool) "quoted comma" true (Astring_contains.contains csv "\"a,b\"");
  Alcotest.(check bool) "header" true (Astring_contains.contains csv "name,value")

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f ~decimals:2 3.14159);
  Alcotest.(check string) "gap" "24.00x" (Table.cell_x 24.)

(* ---- Json.number_to_string ---- *)

(* The printer before its integer fast path: the model the fast path must
   match byte for byte. *)
let model_number_to_string x =
  if Float.is_nan x || Float.abs x = Float.infinity then
    invalid_arg "Json: non-finite number"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let same_as_model x =
  Alcotest.(check string)
    (Printf.sprintf "%h" x) (model_number_to_string x) (Json.number_to_string x)

let test_number_integers_match_model () =
  let magnitudes =
    [ 0.; 1.; 1e15 -. 1.; 1e15; 1e15 +. 1.; 999_999_999_999_999.5 ]
    @ List.init 64 (fun k -> Float.ldexp 1. k)
    @ List.init 63 (fun k -> Float.ldexp 1. k -. 1.)
  in
  List.iter (fun x -> same_as_model x; same_as_model (-.x)) magnitudes;
  Alcotest.(check string) "negative zero" "-0" (Json.number_to_string (-0.))

(* Integral floats of every magnitude up to 2^60, on both sides of 1e15. *)
let prop_number_integers_match_model =
  QCheck.Test.make ~name:"integral numbers print as the %.0f model" ~count:2000
    QCheck.(make Gen.(pair (int_range 0 60) int))
    (fun (bits, n) ->
      let x = float_of_int (n asr (62 - bits)) in
      Json.number_to_string x = model_number_to_string x)

(* Any finite non-integer (drawn from its bit pattern) prints as the
   model does and parses back to the same bits. *)
let prop_number_fractions_round_trip =
  QCheck.Test.make ~name:"non-integral numbers round-trip bit-identically" ~count:2000
    QCheck.(make Gen.(map Int64.float_of_bits int64))
    (fun x ->
      QCheck.assume (Float.is_finite x && not (Float.is_integer x));
      let s = Json.number_to_string x in
      s = model_number_to_string x
      &&
      match Json.parse s with
      | Json.Num y -> Int64.bits_of_float y = Int64.bits_of_float x
      | _ -> false)

let suite =
  ( "report",
    [ Alcotest.test_case "render" `Quick test_render_alignment;
      Alcotest.test_case "row arity" `Quick test_row_arity_checked;
      Alcotest.test_case "csv" `Quick test_csv;
      Alcotest.test_case "cells" `Quick test_cells;
      Alcotest.test_case "integral numbers match the model" `Quick
        test_number_integers_match_model;
      QCheck_alcotest.to_alcotest prop_number_integers_match_model;
      QCheck_alcotest.to_alcotest prop_number_fractions_round_trip ] )
