(* Structured-diagnostic tests: stable reason codes, source spans, the
   per-loop opt-report, the pragma race checker, and the rejection-label
   format the vec-report surfaces. *)

open Ninja_lang

let first_loop src =
  let rec find_for = function
    | [] -> Alcotest.fail "no loop in kernel body"
    | Ast.For loop :: _ -> loop
    | _ :: rest -> find_for rest
  in
  find_for (Ast.fold_block (Parser.parse_kernel src).body)

(* Reason code of the top-level loop's vectorization rejection. *)
let reject_code src =
  match Analysis.vectorize_diag ~force:false (first_loop src) with
  | Ok _ -> Alcotest.fail "expected a vectorization rejection"
  | Error d -> Diag.code_name d.code

let codes_of (report : Optreport.t) =
  List.concat_map
    (fun (l : Optreport.loop_report) ->
      List.map (fun (d : Diag.t) -> Diag.code_name d.code) l.diags)
    report.loops

(* ---- code names and rendering ---- *)

let test_code_names () =
  List.iter
    (fun (code, name) ->
      Alcotest.(check string) name name (Diag.code_name code))
    [ (Diag.Aos_layout, "AOS_LAYOUT"); (Diag.Non_unit_stride, "NON_UNIT_STRIDE");
      (Diag.Loop_carried_dep, "LOOP_CARRIED_DEP"); (Diag.Scalar_cycle, "SCALAR_CYCLE");
      (Diag.Gather_required, "GATHER_REQUIRED"); (Diag.Inner_loop, "INNER_LOOP");
      (Diag.Race, "RACE"); (Diag.Syntax, "SYNTAX") ]

let test_pp_with_span_and_hint () =
  let d =
    Diag.v ~span:(Diag.lines 9 4) ~hint:"do the thing" Diag.Error
      Diag.Aos_layout "bad layout"
  in
  Alcotest.(check string) "rendered"
    "lines 4-9: error AOS_LAYOUT: bad layout\n  hint: do the thing"
    (Diag.to_string d);
  Alcotest.(check string) "label" "AOS_LAYOUT: bad layout" (Diag.label d)

(* ---- parser / checker diagnostics ---- *)

let test_parse_error_has_span () =
  match Parser.parse_kernel_diag "kernel f(a : float[]) {\n  a[0] = ;\n}" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error d ->
      Alcotest.(check string) "code" "SYNTAX" (Diag.code_name d.code);
      Alcotest.(check int) "line" 2 d.span.first_line

let test_type_error_diag () =
  let k = Parser.parse_kernel "kernel f(a : float[], i : int) { i = a; }" in
  match Check.check_kernel_diag k with
  | Ok () -> Alcotest.fail "expected a type error"
  | Error d -> Alcotest.(check string) "code" "TYPE" (Diag.code_name d.code)

(* ---- rejection reason codes (the negative-path fixtures) ---- *)

let test_stride2_recurrence_is_non_unit_stride () =
  Alcotest.(check string) "code" "NON_UNIT_STRIDE"
    (reject_code
       "kernel f(a : float[], n : int) { var i : int; for (i = 1; i < n; i \
        = i + 1) { a[2 * i] = a[2 * i - 2] + 1.0; } }")

let test_multi_residue_is_aos_layout () =
  Alcotest.(check string) "code" "AOS_LAYOUT"
    (reject_code
       "kernel f(z : float[], n : int) { var i : int; for (i = 1; i < n; i \
        = i + 1) { z[2 * i] = z[2 * i - 2] + z[2 * i + 1]; } }")

let test_scatter_store_is_gather_required () =
  Alcotest.(check string) "code" "GATHER_REQUIRED"
    (reject_code
       "kernel f(out : float[], idx : int[], n : int) { var i : int; for (i \
        = 0; i < n; i = i + 1) { out[idx[i]] = 1.0; } }")

let test_scalar_cycle_code () =
  Alcotest.(check string) "code" "SCALAR_CYCLE"
    (reject_code
       "kernel f(a : float[], n : int, s : float) { var i : int; for (i = \
        0; i < n; i = i + 1) { a[i] = s; s = a[i] * 2.0; } }")

let test_rejection_carries_loop_span () =
  let loop =
    first_loop
      "kernel f(out : float[], idx : int[], n : int) {\n\
      \  var i : int;\n\
      \  for (i = 0; i < n; i = i + 1) {\n\
      \    out[idx[i]] = 1.0;\n\
      \  }\n\
       }"
  in
  match Analysis.vectorize_diag ~force:false loop with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error d ->
      Alcotest.(check int) "first line" 3 d.span.first_line;
      Alcotest.(check int) "last line" 5 d.span.last_line

(* ---- the opt-report pass ---- *)

let test_optreport_short_trip_and_force () =
  let report =
    Optreport.analyze_src
      "kernel f(a : float[]) { var i : int; for (i = 0; i < 4; i = i + 1) { \
       a[i] = a[i] * 2.0; } }"
  in
  (match report.loops with
  | [ l ] ->
      Alcotest.(check bool) "stays scalar" false l.vectorized;
      Alcotest.(check (list string)) "short-trip remark" [ "SHORT_TRIP" ]
        (codes_of report)
  | _ -> Alcotest.fail "expected one loop");
  let forced =
    Optreport.analyze_src
      "kernel f(a : float[]) { var i : int; pragma simd for (i = 0; i < 4; \
       i = i + 1) { a[i] = a[i] * 2.0; } }"
  in
  match forced.loops with
  | [ l ] -> Alcotest.(check bool) "pragma simd overrides" true l.vectorized
  | _ -> Alcotest.fail "expected one loop"

let test_optreport_parse_error () =
  let report = Optreport.analyze_src ~name:"broken" "kernel f( {" in
  Alcotest.(check string) "name kept" "broken" report.kernel_name;
  Alcotest.(check int) "no loops" 0 (List.length report.loops);
  match report.errors with
  | [ d ] -> Alcotest.(check string) "syntax" "SYNTAX" (Diag.code_name d.code)
  | _ -> Alcotest.fail "expected exactly one error"

let test_optreport_aos_remark_on_vectorized_loop () =
  (* BlackScholes naive: AoS layout vectorizes via strided ops, so the
     report must say VECTORIZED *and* carry the AOS_LAYOUT remark *)
  let report = Optreport.analyze_src Ninja_kernels.Blackscholes.naive_src in
  match report.loops with
  | [ l ] ->
      Alcotest.(check bool) "vectorized" true l.vectorized;
      Alcotest.(check bool) "parallelized" true l.parallelized;
      Alcotest.(check bool) "AoS remark present" true
        (List.exists (fun (d : Diag.t) -> d.code = Diag.Aos_layout) l.diags)
  | _ -> Alcotest.fail "expected one loop"

(* ---- the pragma race checker ---- *)

let race_codes src =
  Optreport.analyze_src src |> codes_of |> List.filter (( = ) "RACE")

let test_race_invariant_store () =
  Alcotest.(check (list string)) "one RACE" [ "RACE" ]
    (race_codes
       "kernel f(a : float[], n : int) { var i : int; pragma parallel for \
        (i = 0; i < n; i = i + 1) { a[0] = a[0] + 1.0; } }")

let test_race_constant_distance () =
  Alcotest.(check (list string)) "one RACE" [ "RACE" ]
    (race_codes
       "kernel f(a : float[], n : int) { var i : int; pragma parallel for \
        (i = 0; i < n - 1; i = i + 1) { a[i] = a[i + 1] * 2.0; } }")

let test_race_checker_quiet_on_suite () =
  (* every pragma in the benchmark suite is a legitimate assertion: the
     checker must not second-guess any of them *)
  List.iter
    (fun (b : Ninja_kernels.Driver.benchmark) ->
      List.iter
        (fun (vname, src) ->
          Alcotest.(check (list string))
            (Fmt.str "%s/%s has no RACE" b.b_name vname)
            [] (race_codes src))
        b.b_sources)
    Ninja_kernels.Registry.all

(* ---- rejection labels (the vec-report surface) ---- *)

let test_rejection_label_has_code () =
  match
    Analysis.vectorize_diag ~force:false
      (first_loop
         "kernel f(a : float[], n : int) { var i : int; for (i = 1; i < n; \
          i = i + 1) { a[2 * i] = a[2 * i - 2] + 1.0; } }")
  with
  | Ok _ -> Alcotest.fail "expected a rejection"
  | Error d ->
      let msg = Diag.label d in
      Alcotest.(check bool)
        (Fmt.str "label %S carries the reason code" msg)
        true
        (String.length msg > 16 && String.sub msg 0 16 = "NON_UNIT_STRIDE:")

(* Golden opt-report: the per-loop source opt-reports for every
   benchmark Cee source, then the auto-tuner's static plans, rendered
   exactly as tools/gen_opt_golden.ml renders them and byte-compared
   against the checked-in transcript. An opt-report diagnostic (code,
   span, blocking-dependence remark) that changes for any benchmark fails
   here. The tune-plan section pins the auto-tuner's static search space
   (fixed enumeration, legality / compile / verify pruning, fingerprint
   dedup) on the reference machine, with zero simulations. Regenerate
   with `dune exec tools/gen_opt_golden.exe > test/golden_opt_report.txt`. *)

let render_golden_source_reports () =
  Ninja_kernels.Registry.all
  |> List.concat_map (fun (b : Ninja_kernels.Driver.benchmark) ->
         b.Ninja_kernels.Driver.b_sources
         |> List.map (fun (vname, src) ->
                let name = b.Ninja_kernels.Driver.b_name ^ "/" ^ vname in
                Fmt.str "# opt-report %s@.%a" name Optreport.pp
                  (Optreport.analyze_src ~name src)))
  |> String.concat "\n"

let render_golden_tune_plans () =
  let machine = Ninja_arch.Machine.westmere in
  Ninja_kernels.Registry.all
  |> List.map (fun (b : Ninja_kernels.Driver.benchmark) ->
         let steps = b.steps ~scale:1 in
         Fmt.str "# tune-plan %s@.%a" b.Ninja_kernels.Driver.b_name
           Ninja_core.Tuner.pp_plan
           (Ninja_core.Tuner.plan ~machine ~steps b))
  |> String.concat "\n"

let test_golden_opt_report () =
  let got = render_golden_source_reports () ^ "\n" ^ render_golden_tune_plans () in
  let path =
    if Sys.file_exists "golden_opt_report.txt" then "golden_opt_report.txt"
    else Filename.concat "test" "golden_opt_report.txt"
  in
  let ic = open_in_bin path in
  let want =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check bool) "opt-reports and tune plans match the golden byte-for-byte"
    true (want = got);
  if want <> got then Alcotest.(check string) "diff" want got

let suite =
  ( "diag",
    [ Alcotest.test_case "code names stable" `Quick test_code_names;
      Alcotest.test_case "pp span + hint" `Quick test_pp_with_span_and_hint;
      Alcotest.test_case "parse error has span" `Quick test_parse_error_has_span;
      Alcotest.test_case "type error diag" `Quick test_type_error_diag;
      Alcotest.test_case "stride-2 recurrence -> NON_UNIT_STRIDE" `Quick
        test_stride2_recurrence_is_non_unit_stride;
      Alcotest.test_case "multi-residue -> AOS_LAYOUT" `Quick
        test_multi_residue_is_aos_layout;
      Alcotest.test_case "scatter store -> GATHER_REQUIRED" `Quick
        test_scatter_store_is_gather_required;
      Alcotest.test_case "scalar cycle -> SCALAR_CYCLE" `Quick
        test_scalar_cycle_code;
      Alcotest.test_case "rejection carries loop span" `Quick
        test_rejection_carries_loop_span;
      Alcotest.test_case "opt-report short trip + pragma simd" `Quick
        test_optreport_short_trip_and_force;
      Alcotest.test_case "opt-report parse error" `Quick test_optreport_parse_error;
      Alcotest.test_case "opt-report AoS remark on vectorized loop" `Quick
        test_optreport_aos_remark_on_vectorized_loop;
      Alcotest.test_case "race: invariant store" `Quick test_race_invariant_store;
      Alcotest.test_case "race: constant distance" `Quick test_race_constant_distance;
      Alcotest.test_case "race checker quiet on the suite" `Quick
        test_race_checker_quiet_on_suite;
      Alcotest.test_case "rejection label has code" `Quick
        test_rejection_label_has_code;
      Alcotest.test_case "golden opt-report" `Slow test_golden_opt_report ] )
