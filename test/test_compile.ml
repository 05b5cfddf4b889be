(* Differential pinning for the closure-compiling backend (lib/vm/compile.ml).

   The compiler's contract is total observational equivalence: for any
   verifier-clean program, [Compiled config] must agree with [Tree] on
   every observable — final register files, memory contents, per-thread
   count rows, total instructions, the memory-access event stream, the
   profiling trace, and trap messages (including the memory state at the
   fault, which pins the batched-bookkeeping fuel semantics). The
   strategy-level random-program differential lives in test_fastpath.ml
   (no passes) and test_optimize.ml (every pass list); this suite runs it
   through the supplied-array entry point ([Interp.run ~decoded]) the
   mutations use, adds trap differentials over optimized arrays, and a
   dozen hand-seeded mutations of compiled-input op arrays — each simulating a distinct compiler-bug
   class (wrong immediate, dropped def, inflated or misattributed
   bookkeeping, swapped operands, wrong operator, flipped dependence
   chain, dropped store, wrong loop bound, perturbed constant, dropped
   trace scope) — that the observation differential must refute when
   executed through the compiled executor. *)

open Ninja_vm
module F = Test_fastpath

(* ------------------------------------------------------------------ *)
(* Random programs through the supplied-array entry point: clean arrays,
   plain or optimized, handed to [Interp.run ~decoded] must agree with
   the tree walker, so a mutation below is refuted for the mutation and
   not for the path it is run through. *)

let supplied_vs_tree ~name ~count config =
  QCheck.Test.make ~count ~name F.seed_arb (fun seed ->
      let prog, n_threads, width = F.build_program seed in
      let decoded = Optimize.run ~config (Decode.decode prog) in
      List.for_all
        (fun tracing ->
          let t = F.observe ~strategy:Interp.Tree ~tracing ~n_threads ~width prog in
          let c = F.observe ~decoded ~tracing ~n_threads ~width prog in
          match F.diff_observations t c with
          | None -> true
          | Some what ->
              QCheck.Test.fail_reportf
                "Tree vs supplied Compiled(%s) arrays diverge (tracing=%b) on: %s"
                (Optimize.tag config) tracing what)
        [ false; true ])

let prop_supplied_optimized =
  supplied_vs_tree ~count:100
    ~name:"random programs: Tree = Compiled on supplied optimized arrays (all passes)"
    Optimize.default

let prop_supplied_plain =
  supplied_vs_tree ~count:60
    ~name:"random programs: compiled plain decoded arrays preserve all observables"
    Optimize.none

(* ------------------------------------------------------------------ *)
(* Deterministic trap differentials over optimized arrays: Tree and
   Compiled must fault identically — same message, same memory state at
   the fault — under the full pipeline and under each pass alone. The
   compiled backend batches instruction/fuel bookkeeping per
   straight-line segment; the fuel cases pin that a batch never moves a
   trap across an observable effect. *)

let trap_configs =
  Optimize.default
  :: List.map (fun p -> { Optimize.passes = [ p ] }) Optimize.all_passes

let trap_pair ?fuel build args = F.trap_pair ?fuel ~configs:trap_configs build args

let test_trap_fuel_exhausted () =
  let msg =
    trap_pair ~fuel:500
      (fun b ->
        Builder.seq_phase b (fun () ->
            let one = Builder.iconst b 1 in
            Builder.while_ b
              ~cond:(fun () -> one)
              (fun () -> ignore (Builder.iconst b 0 : Isa.si_reg))))
      (fun () -> [])
  in
  Alcotest.(check bool) "fuel in message" true
    (Astring_contains.contains msg "fuel")

let test_trap_fuel_before_store () =
  (* fuel runs out mid-segment, after pure ops but before a store: the
     batched charge must trap without executing the store *)
  let msg =
    trap_pair ~fuel:6
      (fun b ->
        let buf = Builder.buffer_f b "buf" in
        Builder.seq_phase b (fun () ->
            let x = Builder.fconst b 1. in
            let y = Builder.fconst b 2. in
            let z = Builder.sf b in
            Builder.emit b (Fbin (Fadd, z, x, y));
            Builder.emit b (Fbin (Fmul, z, z, z));
            let i = Builder.iconst b 0 in
            Builder.emit b (Storef { buf; idx = i; src = z });
            Builder.emit b (Storef { buf; idx = i; src = z })))
      (fun () -> [ ("buf", Memory.Fbuf (Array.make 4 0.)) ])
  in
  Alcotest.(check bool) "fuel in message" true
    (Astring_contains.contains msg "fuel")

let test_trap_div_by_zero () =
  let msg =
    trap_pair
      (fun b ->
        Builder.seq_phase b (fun () ->
            let z = Builder.iconst b 0 in
            let x = Builder.iconst b 7 in
            ignore (Builder.ibin b Idiv x z : Isa.si_reg)))
      (fun () -> [])
  in
  Alcotest.(check bool) "division in message" true
    (Astring_contains.contains msg "division by zero")

let test_trap_oob_vector_store () =
  let msg =
    trap_pair
      (fun b ->
        let buf = Builder.buffer_f b "buf" in
        Builder.seq_phase b (fun () ->
            let sf = Builder.fconst b 9. in
            let v = Builder.vf b in
            Builder.emit b (Vbroadcastf (v, sf));
            let base = Builder.iconst b 6 in
            Builder.emit b (Vstoref { buf; idx = base; src = v; mask = None })))
      (fun () -> [ ("buf", Memory.Fbuf (Array.make 8 0.)) ])
  in
  Alcotest.(check bool) "oob in message" true
    (Astring_contains.contains msg "out-of-bounds")

let test_trap_nonpositive_step () =
  let msg =
    trap_pair
      (fun b ->
        Builder.seq_phase b (fun () ->
            let lo = Builder.iconst b 0 in
            let hi = Builder.iconst b 4 in
            let step = Builder.iconst b 0 in
            Builder.for_ b ~lo ~hi ~step (fun _ -> ())))
      (fun () -> [])
  in
  Alcotest.(check bool) "step in message" true
    (Astring_contains.contains msg "step")

(* ------------------------------------------------------------------ *)
(* Hand-seeded compiler mutations: execute deliberately broken op arrays
   through the compiled executor via [Interp.run ~decoded] and assert the
   observation differential refutes each one against a clean tree-walker
   run. Each mutation stands in for a distinct class of compiler bug; a
   compiled executor with any of them could not pass this suite. *)

let mutate = F.mutate

(* One program with a site for every mutation class: a Daddi (runtime x +
   const), a runtime Isub and Iadd, a dead def the DCE phantomizes, a
   chained Loadf, scalar stores to both buffers, a counted For loop, a
   runtime If, and a profiled region. *)
let mutation_program () =
  let b = Builder.create ~name:"compile-mutation" in
  let data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  Builder.seq_phase b (fun () ->
      let x = Builder.si b in
      Builder.emit b (Imov (x, Isa.thread_id_reg));
      let three = Builder.iconst b 3 in
      let z = Builder.ibin b Iadd x three in
      (* both operands runtime-unknown, so Isub survives as Dinstr *)
      let w = Builder.ibin b Isub z x in
      let zero = Builder.iconst b 0 in
      let one = Builder.iconst b 1 in
      Builder.emit b (Storei { buf = idxs; idx = zero; src = w });
      (* dead def: overwritten before its only store — DCE phantomizes *)
      let r = Builder.si b in
      Builder.emit b (Iconst (r, 5));
      Builder.emit b (Iconst (r, 6));
      Builder.emit b (Storei { buf = idxs; idx = one; src = r });
      let f = Builder.sf b in
      Builder.emit b (Loadf { dst = f; buf = data; idx = one; chain = true });
      let g = Builder.fconst b 2.5 in
      let h = Builder.sf b in
      Builder.emit b (Fbin (Fmul, h, f, g));
      Builder.emit b (Storef { buf = data; idx = zero; src = h });
      let lo = Builder.iconst b 0 in
      let hi = Builder.iconst b 4 in
      let step = Builder.iconst b 1 in
      Builder.for_ b ~lo ~hi ~step (fun i ->
          let acc = Builder.ibin b Iadd i w in
          Builder.emit b (Storei { buf = idxs; idx = one; src = acc }));
      Builder.if_ b ~cond:x
        ~else_:(fun () -> Builder.emit b (Fconst (h, 0.25)))
        (fun () -> Builder.emit b (Fconst (h, 0.75)));
      Builder.region b "mutation-region" (fun () ->
          Builder.emit b (Storef { buf = data; idx = one; src = h })));
  Builder.finish b

(* Refute one mutation: the mutated arrays, executed through the
   compiled backend, must diverge from the clean reference run. Trace
   -only mutations (dropped scopes) only show under tracing, so each
   case declares the tracing modes that must catch it. *)
let assert_refuted ?(tracing_modes = [ false; true ]) ~what prog mutated =
  List.iter
    (fun tracing ->
      let good =
        F.observe ~strategy:Interp.Tree ~tracing ~n_threads:1 ~width:4 prog
      in
      let bad = F.observe ~decoded:mutated ~tracing ~n_threads:1 ~width:4 prog in
      match F.diff_observations good bad with
      | Some _ -> ()
      | None ->
          Alcotest.fail
            (Fmt.str "compiled differential failed to refute %s (tracing=%b)"
               what tracing))
    tracing_modes

let optimized_arrays prog = Optimize.run (Decode.decode prog)

let test_compiled_clean_arrays_agree () =
  (* sanity for the harness itself: the *unmutated* optimized arrays,
     executed through the compiled backend, match the reference *)
  let prog = mutation_program () in
  let opt = optimized_arrays prog in
  List.iter
    (fun tracing ->
      let good =
        F.observe ~strategy:Interp.Tree ~tracing ~n_threads:1 ~width:4 prog
      in
      let compiled = F.observe ~decoded:opt ~tracing ~n_threads:1 ~width:4 prog in
      match F.diff_observations good compiled with
      | None -> ()
      | Some what ->
          Alcotest.fail
            (Fmt.str "clean compiled arrays diverge (tracing=%b) on: %s" tracing
               what))
    [ false; true ]

let mutation_case ~what f =
  Alcotest.test_case ("mutation: " ^ what ^ " is refuted") `Quick (fun () ->
      let prog = mutation_program () in
      let opt = optimized_arrays prog in
      f ~prog ~opt)

let mutations =
  [
    mutation_case ~what:"an off-by-one immediate" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Daddi d -> Some (Decode.Daddi { d with imm = d.imm + 1 })
            | _ -> None)
        in
        assert_refuted ~what:"an off-by-one immediate" prog broken);
    mutation_case ~what:"a dropped live def" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dinstr { i = Isa.Iconst (_, 6); cls; cls_idx } ->
                Some (Decode.Dphantom { cls; cls_idx; n = 1 })
            | _ -> None)
        in
        assert_refuted ~what:"a dropped live def" prog broken);
    mutation_case ~what:"inflated batched bookkeeping" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dphantom p -> Some (Decode.Dphantom { p with n = p.n + 1 })
            | _ -> None)
        in
        assert_refuted ~what:"inflated batched bookkeeping" prog broken);
    mutation_case ~what:"a misattributed phantom class" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dphantom p when p.cls <> Isa.Branch ->
                Some
                  (Decode.Dphantom
                     { p with
                       cls = Isa.Branch;
                       cls_idx = Isa.op_class_index Isa.Branch })
            | _ -> None)
        in
        assert_refuted ~what:"a misattributed phantom class" prog broken);
    mutation_case ~what:"swapped subtraction operands" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dinstr { i = Isa.Ibin (Isa.Isub, d, a, b); cls; cls_idx } ->
                Some
                  (Decode.Dinstr { i = Isa.Ibin (Isa.Isub, d, b, a); cls; cls_idx })
            | _ -> None)
        in
        assert_refuted ~what:"swapped subtraction operands" prog broken);
    mutation_case ~what:"a wrong operator selection" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dinstr { i = Isa.Ibin (Isa.Iadd, d, a, b); cls; cls_idx } ->
                Some
                  (Decode.Dinstr { i = Isa.Ibin (Isa.Isub, d, a, b); cls; cls_idx })
            | _ -> None)
        in
        assert_refuted ~what:"a wrong operator selection" prog broken);
    mutation_case ~what:"a flipped dependence-chain flag" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dinstr { i = Isa.Loadf l; cls; cls_idx } ->
                Some
                  (Decode.Dinstr
                     { i = Isa.Loadf { l with chain = not l.chain }; cls; cls_idx })
            | Decode.Dloadf_at l ->
                Some (Decode.Dloadf_at { l with chain = not l.chain })
            | _ -> None)
        in
        assert_refuted ~what:"a flipped dependence-chain flag" prog broken);
    mutation_case ~what:"a dropped store" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dinstr { i = Isa.Storef _; cls; cls_idx } ->
                Some (Decode.Dphantom { cls; cls_idx; n = 1 })
            | Decode.Dstoref_at _ ->
                Some
                  (Decode.Dphantom
                     { cls = Isa.Sstore;
                       cls_idx = Isa.op_class_index Isa.Sstore;
                       n = 1 })
            | _ -> None)
        in
        assert_refuted ~what:"a dropped store" prog broken);
    mutation_case ~what:"a wrong loop bound" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dfor d when d.hi <> d.lo ->
                Some (Decode.Dfor { d with hi = d.lo })
            | _ -> None)
        in
        assert_refuted ~what:"a wrong loop bound" prog broken);
    mutation_case ~what:"a perturbed float constant" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dinstr { i = Isa.Fconst (d, 2.5); cls; cls_idx } ->
                Some (Decode.Dinstr { i = Isa.Fconst (d, 2.75); cls; cls_idx })
            | _ -> None)
        in
        assert_refuted ~what:"a perturbed float constant" prog broken);
    mutation_case ~what:"a dropped profiling scope" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Denter _ ->
                Some
                  (Decode.Dphantom
                     { cls = Isa.Salu;
                       cls_idx = Isa.op_class_index Isa.Salu;
                       n = 0 })
            | _ -> None)
        in
        (* scopes are trace-only observables *)
        assert_refuted ~tracing_modes:[ true ] ~what:"a dropped profiling scope"
          prog broken);
    mutation_case ~what:"a misattributed count class" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dinstr { i = Isa.Ibin (Isa.Iadd, _, _, _) as i; _ } ->
                Some
                  (Decode.Dinstr
                     { i; cls = Isa.Sfp; cls_idx = Isa.op_class_index Isa.Sfp })
            | _ -> None)
        in
        assert_refuted ~what:"a misattributed count class" prog broken);
  ]

let suite =
  ( "compile",
    List.concat
      [
        [
          QCheck_alcotest.to_alcotest prop_supplied_optimized;
          QCheck_alcotest.to_alcotest prop_supplied_plain;
          Alcotest.test_case "trap: fuel exhaustion" `Quick test_trap_fuel_exhausted;
          Alcotest.test_case "trap: fuel runs out before a store" `Quick
            test_trap_fuel_before_store;
          Alcotest.test_case "trap: integer division by zero" `Quick
            test_trap_div_by_zero;
          Alcotest.test_case "trap: partial oob vector store" `Quick
            test_trap_oob_vector_store;
          Alcotest.test_case "trap: non-positive loop step" `Quick
            test_trap_nonpositive_step;
          Alcotest.test_case "clean compiled arrays match the reference" `Quick
            test_compiled_clean_arrays_agree;
        ];
        mutations;
      ] )
