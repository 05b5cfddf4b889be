(* ISA verifier tests: the full benchmark suite (every ladder step,
   compiler output and hand-built Ninja programs, on both machines) must
   verify clean, and seeded defects must be caught. *)

open Ninja_vm
module Driver = Ninja_kernels.Driver
module Machine = Ninja_arch.Machine

let issue_list = Alcotest.testable Verify.pp_issue ( = )

(* ---- the clean sweep (acceptance: 10 benchmarks x full ladder) ---- *)

let test_suite_verifies () =
  List.iter
    (fun machine ->
      List.iter
        (fun (b : Driver.benchmark) ->
          List.iter
            (fun (step : Driver.step) ->
              Alcotest.(check (list issue_list))
                (Fmt.str "%s / %s / %s" machine.Machine.name b.b_name
                   step.step_name)
                []
                (Driver.verify_step ~machine step))
            (b.steps ~scale:1))
        Ninja_kernels.Registry.all)
    [ Machine.westmere; Machine.knights_ferry ]

(* ---- seeded defects ---- *)

let regs = { Isa.si = 8; sf = 4; vf = 4; vi = 4; vm = 4 }

let prog ?(buffers = [| { Isa.buf_name = "a"; elt = Isa.F32 } |]) phases =
  { Isa.prog_name = "seeded"; buffers; phases; regs }

let expect_issue ~what_contains issues =
  Alcotest.(check bool)
    (Fmt.str "some issue mentions %S in %a" what_contains
       Fmt.(list ~sep:(any "; ") Verify.pp_issue)
       issues)
    true
    (List.exists
       (fun (i : Verify.issue) -> Astring_contains.contains i.what what_contains)
       issues)

(* The full text of every issue, location included, in order. *)
let exact name expected issues =
  Alcotest.(check (list (pair string string)))
    name expected
    (List.map (fun (i : Verify.issue) -> (i.where, i.what)) issues)

let test_oob_store_detected () =
  let p =
    prog
      [ Isa.Seq
          [ I (Iconst (Si 3, 10));
            I (Fconst (Sf 0, 1.0));
            I (Storef { buf = Buf 0; idx = Si 3; src = Sf 0 }) ] ]
  in
  exact "exact index"
    [ ( "phase 0 (sequential): storef @a[i3], f0",
        "access to a is out of bounds: touches element 10 of 4" ) ]
    (Verify.verify ~lengths:[ ("a", 4) ] p)

let test_oob_vector_store_detected_unmasked_only () =
  (* constant base index 2 with width 4 runs off a 4-element buffer -- but
     only when unmasked; a masked store is how remainders stay in bounds *)
  let store mask =
    prog
      [ Isa.Seq
          [ I (Iconst (Si 3, 2));
            I (Fconst (Sf 0, 0.0));
            I (Vbroadcastf (Vf 0, Sf 0));
            I (Iconst (Si 4, 2));
            I (Mfirst (Vm 0, Si 4));
            I (Vstoref { buf = Buf 0; idx = Si 3; src = Vf 0; mask }) ] ]
  in
  expect_issue ~what_contains:"out of bounds"
    (Verify.verify ~width:4 ~lengths:[ ("a", 4) ] (store None));
  Alcotest.(check (list issue_list)) "masked store is fine" []
    (Verify.verify ~width:4 ~lengths:[ ("a", 4) ] (store (Some (Vm 0))))

let test_undefined_read_detected () =
  let p = prog [ Isa.Seq [ I (Fbin (Fadd, Sf 1, Sf 0, Sf 0)) ] ] in
  exact "undefined read, reported once"
    [ ("phase 0 (sequential): fadd f1, f0, f0", "read of undefined register f0") ]
    (Verify.verify p)

let seq_define_par_read =
  "register i3 was last written in a sequential phase and holds its value \
   on thread 0 only; route it through a buffer"

let test_seq_register_read_from_par_detected () =
  let p =
    prog
      [ Isa.Seq [ I (Iconst (Si 3, 5)) ];
        Isa.Par [ I (Imov (Si 4, Si 3)) ] ]
  in
  exact "Seq-defined register read in a Par phase"
    [ ("phase 1 (parallel): imov i4, i3", seq_define_par_read) ]
    (Verify.verify p)

let test_par_register_persists () =
  (* defined in a Par phase -> valid on every thread in later phases *)
  let p =
    prog
      [ Isa.Par [ I (Iconst (Si 3, 5)) ];
        Isa.Par [ I (Imov (Si 4, Si 3)) ] ]
  in
  Alcotest.(check (list issue_list)) "clean" [] (Verify.verify p)

let test_reserved_register_write_detected () =
  let p = prog [ Isa.Par [ I (Iconst (Si 0, 7)) ] ] in
  exact "reserved register write"
    [ ("phase 0 (parallel): iconst i0, 7", "write to reserved register i0") ]
    (Verify.verify p)

let test_structural_failure_reported () =
  (* register out of range: Isa.validate's exception becomes an issue *)
  let p = prog [ Isa.Seq [ I (Iconst (Si 99, 0)) ] ] in
  exact "structure" [ ("structure", "si reg 99 out of range") ] (Verify.verify p)

let test_duplicate_buffer_detected () =
  let buffers =
    [| { Isa.buf_name = "a"; elt = Isa.F32 };
       { Isa.buf_name = "a"; elt = Isa.I32 } |]
  in
  exact "duplicate buffer"
    [ ("buffers", "duplicate buffer name a") ]
    (Verify.verify (prog ~buffers []))

let test_blend_into_fresh_register_allowed () =
  (* the code generator's if-conversion blends into a not-yet-defined
     destination: Vselectf (r, m, x, r) must not count as a read of r *)
  let p =
    prog
      [ Isa.Seq
          [ I (Fconst (Sf 0, 1.0));
            I (Vbroadcastf (Vf 1, Sf 0));
            I (Mconst (Vm 0, true));
            I (Vselectf (Vf 0, Vm 0, Vf 1, Vf 0)) ] ]
  in
  Alcotest.(check (list issue_list)) "clean" [] (Verify.verify p)

let test_loop_index_interval_bounds_access () =
  (* a[i] for i in [lo, hi) is provably fine when the range lies inside
     the buffer; shift the whole range past either end and the interval
     analysis proves every iteration out of bounds *)
  let mk lo hi =
    prog
      [ Isa.Seq
          [ I (Iconst (Si 3, hi));
            I (Iconst (Si 5, lo));
            I (Iconst (Si 6, 1));
            I (Fconst (Sf 0, 0.0));
            For
              { idx = Si 4; lo = Si 5; hi = Si 3; step = Si 6;
                body = [ I (Storef { buf = Buf 0; idx = Si 4; src = Sf 0 }) ] }
          ] ]
  in
  Alcotest.(check (list issue_list)) "in-bounds loop is clean" []
    (Verify.verify ~lengths:[ ("a", 16) ] (mk 0 16));
  exact "always past the end"
    [ ( "phase 0 (sequential): storef @a[i4], f0",
        "access to a is always out of bounds: index is at least 8 but the \
         buffer has 8 elements" ) ]
    (Verify.verify ~lengths:[ ("a", 8) ] (mk 8 16));
  exact "always negative"
    [ ( "phase 0 (sequential): storef @a[i4], f0",
        "access to a is always out of bounds: index is negative" ) ]
    (Verify.verify ~lengths:[ ("a", 8) ] (mk (-8) (-4)))

let test_issue_at_loop_and_branch_headers () =
  exact "for header"
    [ ("phase 0 (sequential): for i4 = i5 to i3", "read of undefined register i5") ]
    (Verify.verify
       (prog
          [ Isa.Seq
              [ I (Iconst (Si 3, 4));
                I (Iconst (Si 6, 1));
                For { idx = Si 4; lo = Si 5; hi = Si 3; step = Si 6; body = [] } ] ]));
  exact "while header"
    [ ("phase 0 (parallel): while i5", "read of undefined register i5") ]
    (Verify.verify (prog [ Isa.Par [ While { cond_block = []; cond = Si 5; body = [] } ] ]));
  exact "if header"
    [ ("phase 0 (sequential): if i5", "read of undefined register i5") ]
    (Verify.verify (prog [ Isa.Seq [ If { cond = Si 5; then_ = []; else_ = [] } ] ]))

(* Each issue carries the context of the phase it was found in, not the
   one the walk ended in. *)
let test_issue_phase_context () =
  exact "two phases"
    [ ("phase 0 (sequential): fadd f1, f0, f0", "read of undefined register f0");
      ("phase 1 (parallel): imov i4, i3", seq_define_par_read);
      ("phase 1 (parallel): iconst i1, 2", "write to reserved register i1") ]
    (Verify.verify
       (prog
          [ Isa.Seq [ I (Iconst (Si 3, 5)); I (Fbin (Fadd, Sf 1, Sf 0, Sf 0)) ];
            Isa.Par [ I (Imov (Si 4, Si 3)); I (Iconst (Si 1, 2)) ] ]))

let suite =
  ( "verify",
    [ Alcotest.test_case "whole suite verifies clean" `Quick test_suite_verifies;
      Alcotest.test_case "OOB store detected" `Quick test_oob_store_detected;
      Alcotest.test_case "OOB vector store (unmasked only)" `Quick
        test_oob_vector_store_detected_unmasked_only;
      Alcotest.test_case "undefined read detected" `Quick
        test_undefined_read_detected;
      Alcotest.test_case "Seq register read from Par detected" `Quick
        test_seq_register_read_from_par_detected;
      Alcotest.test_case "Par register persists across phases" `Quick
        test_par_register_persists;
      Alcotest.test_case "reserved register write detected" `Quick
        test_reserved_register_write_detected;
      Alcotest.test_case "structural failure reported" `Quick
        test_structural_failure_reported;
      Alcotest.test_case "duplicate buffer detected" `Quick
        test_duplicate_buffer_detected;
      Alcotest.test_case "blend into fresh register allowed" `Quick
        test_blend_into_fresh_register_allowed;
      Alcotest.test_case "loop index interval bounds accesses" `Quick
        test_loop_index_interval_bounds_access;
      Alcotest.test_case "issues at loop and branch headers" `Quick
        test_issue_at_loop_and_branch_headers;
      Alcotest.test_case "issue phase context" `Quick test_issue_phase_context ] )
