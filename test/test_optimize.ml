(* Differential pinning for the bytecode optimizer (lib/vm/optimize.ml).

   The optimizer's contract is total observational equivalence: for any
   verifier-clean program, [Compiled config] must agree with [Tree] on
   every observable — final register files, memory contents, per-thread
   count rows, total instructions, the memory-access event stream, the
   profiling trace, and trap messages — whatever pass list [config]
   names. This suite pins that contract per pass, for the full pipeline,
   and for pairwise-shuffled pass orders, through the backend
   differential of test_fastpath.ml; plus hand-written fixtures per pass,
   a pipeline-idempotence property, and mutation tests that execute
   deliberately broken optimized arrays and assert the differential
   harness catches them (so a wrong pass could not slip through). *)

open Ninja_vm
module F = Test_fastpath

(* ------------------------------------------------------------------ *)
(* Tree vs Compiled(config), for every pass configuration.             *)

let prop_full_pipeline =
  F.tree_vs_compiled ~count:120
    ~name:"random programs: Tree = Compiled(all passes)"
    Optimize.default

let props_each_pass_alone =
  List.map
    (fun p ->
      F.tree_vs_compiled ~count:40
        ~name:(Fmt.str "random programs: pass %s alone preserves all observables"
                 (Optimize.pass_name p))
        { Optimize.passes = [ p ] })
    Optimize.all_passes

(* Every ordered pair: passes must compose in any order. *)
let props_pairwise =
  List.concat_map
    (fun p1 ->
      List.filter_map
        (fun p2 ->
          if p1 = p2 then None
          else
            Some
              (F.tree_vs_compiled ~count:10
                 ~name:(Fmt.str "random programs: pass order %s,%s preserves all observables"
                          (Optimize.pass_name p1) (Optimize.pass_name p2))
                 { Optimize.passes = [ p1; p2 ] }))
        Optimize.all_passes)
    Optimize.all_passes

(* ------------------------------------------------------------------ *)
(* Pipeline idempotence: a second run rewrites nothing.                *)

let prop_idempotent =
  QCheck.Test.make ~count:100 ~name:"optimizer pipeline is idempotent"
    F.seed_arb (fun seed ->
      let prog, _, _ = F.build_program seed in
      let once = Optimize.run (Decode.decode prog) in
      let twice = Optimize.run once in
      (* [compare], not [=]: folded Frsqrt of a negative constant is NaN *)
      if compare once.Decode.phases twice.Decode.phases = 0 then true
      else QCheck.Test.fail_reportf "second pipeline run changed the op arrays")

(* ------------------------------------------------------------------ *)
(* Hand-written fixtures: each pass does its one job on a tiny program. *)

let fixture config build =
  let b = Builder.create ~name:"opt-fixture" in
  build b;
  let prog = Builder.finish b in
  Optimize.run_report ~config (Decode.decode prog)

let has_op (d : Decode.t) pred =
  Array.exists (fun (ph : Decode.phase) -> Array.exists pred ph.Decode.code) d.Decode.phases

let stat report pass key =
  List.fold_left
    (fun acc (ps : Optimize.pass_stats) ->
      if ps.ps_pass = pass then acc + (List.assoc key ps.ps_stats) else acc)
    0 report.Optimize.r_passes

let test_fold_known_constants () =
  let d, r =
    fixture { Optimize.passes = [ Optimize.Fold ] } (fun b ->
        Builder.seq_phase b (fun () ->
            let x = Builder.iconst b 2 in
            let y = Builder.iconst b 3 in
            ignore (Builder.ibin b Iadd x y : Isa.si_reg)))
  in
  Alcotest.(check bool) "2 + 3 folded to Iconst 5" true
    (has_op d (function
      | Decode.Dinstr { i = Isa.Iconst (_, 5); _ } -> true
      | _ -> false));
  Alcotest.(check bool) "fold stat counted" true (stat r Optimize.Fold "folded" >= 1)

let test_fold_constant_branch () =
  let d, r =
    fixture { Optimize.passes = [ Optimize.Fold ] } (fun b ->
        Builder.seq_phase b (fun () ->
            let c = Builder.iconst b 1 in
            Builder.if_ b ~cond:c (fun () ->
                ignore (Builder.iconst b 9 : Isa.si_reg))))
  in
  Alcotest.(check bool) "constant If became Dgoto" true
    (has_op d (function Decode.Dgoto _ -> true | _ -> false));
  Alcotest.(check bool) "branch stat counted" true (stat r Optimize.Fold "branches" >= 1)

let test_imm_specializes_add () =
  let d, r =
    fixture { Optimize.passes = [ Optimize.Imm ] } (fun b ->
        Builder.seq_phase b (fun () ->
            (* x is runtime-unknown (thread id), 3 is a known constant:
               x + 3 must become Daddi { imm = 3 } *)
            let x = Builder.si b in
            Builder.emit b (Imov (x, Isa.thread_id_reg));
            let three = Builder.iconst b 3 in
            ignore (Builder.ibin b Iadd x three : Isa.si_reg)))
  in
  Alcotest.(check bool) "x + 3 became Daddi imm=3" true
    (has_op d (function Decode.Daddi { imm = 3; _ } -> true | _ -> false));
  Alcotest.(check bool) "imm stat counted" true (stat r Optimize.Imm "specialized" >= 1)

let test_dce_dead_store () =
  let d, r =
    fixture { Optimize.passes = [ Optimize.Dce ] } (fun b ->
        let idxs = Builder.buffer_i b "idxs" in
        Builder.seq_phase b (fun () ->
            let r = Builder.si b in
            Builder.emit b (Iconst (r, 1)); (* dead: overwritten below *)
            Builder.emit b (Iconst (r, 2));
            let zero = Builder.iconst b 0 in
            Builder.emit b (Storei { buf = idxs; idx = zero; src = r })))
  in
  Alcotest.(check bool) "dead def became Dphantom" true
    (has_op d (function Decode.Dphantom _ -> true | _ -> false));
  Alcotest.(check int) "exactly one dead def" 1 (stat r Optimize.Dce "dead")

let test_moves_rewrites_copies () =
  let _, r =
    fixture { Optimize.passes = [ Optimize.Moves ] } (fun b ->
        Builder.seq_phase b (fun () ->
            let a = Builder.iconst b 7 in
            let c = Builder.si b in
            Builder.emit b (Imov (c, a));
            ignore (Builder.ibin b Iadd c c : Isa.si_reg)))
  in
  Alcotest.(check int) "both reads of the copy rewritten" 2
    (stat r Optimize.Moves "rewritten")

let test_peephole_fuses_muladd () =
  let d, r =
    fixture { Optimize.passes = [ Optimize.Peephole ] } (fun b ->
        Builder.seq_phase b (fun () ->
            let x = Builder.fconst b 2. in
            let y = Builder.fconst b 3. in
            let z = Builder.fconst b 4. in
            let t = Builder.sf b in
            let acc = Builder.sf b in
            Builder.emit b (Fbin (Fmul, t, x, y));
            Builder.emit b (Fbin (Fadd, acc, t, z));
            let v = Builder.vf b in
            let w = Builder.vf b in
            Builder.emit b (Vbroadcastf (v, x));
            Builder.emit b (Vbroadcastf (w, y));
            let vt = Builder.vf b in
            let vacc = Builder.vf b in
            Builder.emit b (Vfbin (Fmul, vt, v, w));
            Builder.emit b (Vfbin (Fadd, vacc, vt, v))))
  in
  Alcotest.(check bool) "scalar pair became Dsmuladd" true
    (has_op d (function Decode.Dsmuladd _ -> true | _ -> false));
  Alcotest.(check bool) "vector pair became Dvmuladd" true
    (has_op d (function Decode.Dvmuladd _ -> true | _ -> false));
  Alcotest.(check int) "two fusions" 2 (stat r Optimize.Peephole "fused")

(* ------------------------------------------------------------------ *)
(* Mutation tests: execute deliberately broken optimized arrays via
   [Interp.run ~decoded] (through the compiled backend) and assert the
   observation differential against the tree walker catches each
   breakage. This is what makes the per-pass properties trustworthy: a
   pass with one of these bugs could not pass the suite. *)

let mutate = F.mutate

let mutation_program () =
  let b = Builder.create ~name:"mutation" in
  let _data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  Builder.seq_phase b (fun () ->
      (* x + 3 with unknown x specializes to Daddi; the Iconst 5 feeding a
         store is a live def a broken DCE might drop *)
      let x = Builder.si b in
      Builder.emit b (Imov (x, Isa.thread_id_reg));
      let three = Builder.iconst b 3 in
      let z = Builder.ibin b Iadd x three in
      let zero = Builder.iconst b 0 in
      Builder.emit b (Storei { buf = idxs; idx = zero; src = z });
      let r = Builder.si b in
      Builder.emit b (Iconst (r, 5));
      let one = Builder.iconst b 1 in
      Builder.emit b (Storei { buf = idxs; idx = one; src = r }));
  Builder.finish b

let assert_caught ~what prog mutated =
  let good =
    F.observe ~strategy:Interp.Tree ~tracing:false ~n_threads:1 ~width:4 prog
  in
  let bad = F.observe ~decoded:mutated ~tracing:false ~n_threads:1 ~width:4 prog in
  match F.diff_observations good bad with
  | Some _ -> ()
  | None -> Alcotest.fail ("differential failed to catch " ^ what)

let test_mutation_off_by_one_imm () =
  let prog = mutation_program () in
  let opt = Optimize.run (Decode.decode prog) in
  let broken =
    mutate opt (function
      | Decode.Daddi d -> Some (Decode.Daddi { d with imm = d.imm + 1 })
      | _ -> None)
  in
  assert_caught ~what:"an off-by-one immediate" prog broken

let test_mutation_dropped_def () =
  let prog = mutation_program () in
  let opt = Optimize.run (Decode.decode prog) in
  let broken =
    mutate opt (function
      | Decode.Dinstr { i = Isa.Iconst (_, 5); cls; cls_idx } ->
          (* a buggy DCE phantomizing a live def: counts stay identical,
             so only the value differential can catch it *)
          Some (Decode.Dphantom { cls; cls_idx; n = 1 })
      | _ -> None)
  in
  assert_caught ~what:"a dropped live def" prog broken

let test_check_flat_catches_bad_reg () =
  let prog = mutation_program () in
  let opt = Optimize.run (Decode.decode prog) in
  let nregs = prog.Isa.regs.si in
  let broken =
    mutate opt (function
      | Decode.Daddi d -> Some (Decode.Daddi { d with d = nregs + 10 })
      | _ -> None)
  in
  Alcotest.(check bool) "check_flat flags out-of-range register" true
    (Verify.check_flat broken <> [])

(* ------------------------------------------------------------------ *)
(* Golden opt-report: the per-pass rewrite statistics over the whole
   benchmark registry's ladders on both evaluation machines, plus the
   per-loop source opt-reports for every benchmark Cee source, rendered
   exactly as tools/gen_opt_golden.ml renders them and byte-compared
   against the checked-in transcript. Pins the pipeline's static
   behavior: a pass that starts rewriting more, fewer, or different ops
   fails here even while the differentials stay green — and an opt-report
   diagnostic (code, span, blocking-dependence remark) that changes for
   any benchmark fails the same way. The tune-plan section pins the
   auto-tuner's static search space (fixed enumeration, legality /
   compile / verify pruning, fingerprint dedup) on the reference
   machine, with zero simulations.
   Regenerate with
   `dune exec tools/gen_opt_golden.exe > test/golden_opt_report.txt`. *)

let render_golden_opt_report () =
  let machines =
    [ Ninja_arch.Machine.westmere; Ninja_arch.Machine.knights_ferry ]
  in
  Ninja_kernels.Registry.all
  |> List.concat_map (fun (b : Ninja_kernels.Driver.benchmark) ->
         let steps = b.steps ~scale:1 in
         machines
         |> List.concat_map (fun (m : Ninja_arch.Machine.t) ->
                steps
                |> List.map (fun (s : Ninja_kernels.Driver.step) ->
                       let d = Decode.decode (s.make ~machine:m) in
                       let _, rep = Optimize.run_report d in
                       Fmt.str "# %s / %s / %s@.%a"
                         b.Ninja_kernels.Driver.b_name m.Ninja_arch.Machine.name
                         s.Ninja_kernels.Driver.step_name Optimize.pp_report rep)))
  |> String.concat "\n"

let render_golden_source_reports () =
  Ninja_kernels.Registry.all
  |> List.concat_map (fun (b : Ninja_kernels.Driver.benchmark) ->
         b.Ninja_kernels.Driver.b_sources
         |> List.map (fun (vname, src) ->
                let name = b.Ninja_kernels.Driver.b_name ^ "/" ^ vname in
                Fmt.str "# opt-report %s@.%a" name Ninja_lang.Optreport.pp
                  (Ninja_lang.Optreport.analyze_src ~name src)))
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
  let got =
    render_golden_opt_report () ^ "\n" ^ render_golden_source_reports () ^ "\n"
    ^ render_golden_tune_plans ()
  in
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
  Alcotest.(check bool) "per-pass stats match the golden byte-for-byte" true
    (want = got);
  if want <> got then Alcotest.(check string) "diff" want got

let suite =
  ( "optimize",
    List.concat
      [
        [ QCheck_alcotest.to_alcotest prop_full_pipeline ];
        List.map QCheck_alcotest.to_alcotest props_each_pass_alone;
        List.map QCheck_alcotest.to_alcotest props_pairwise;
        [
          QCheck_alcotest.to_alcotest prop_idempotent;
          Alcotest.test_case "fold: known constants" `Quick test_fold_known_constants;
          Alcotest.test_case "fold: constant branch" `Quick test_fold_constant_branch;
          Alcotest.test_case "imm: x + 3 specializes" `Quick test_imm_specializes_add;
          Alcotest.test_case "dce: dead store" `Quick test_dce_dead_store;
          Alcotest.test_case "moves: copy reads rewritten" `Quick test_moves_rewrites_copies;
          Alcotest.test_case "peephole: muladd fusion" `Quick test_peephole_fuses_muladd;
          Alcotest.test_case "mutation: off-by-one immediate is caught" `Quick
            test_mutation_off_by_one_imm;
          Alcotest.test_case "mutation: dropped def is caught" `Quick
            test_mutation_dropped_def;
          Alcotest.test_case "mutation: check_flat flags bad register" `Quick
            test_check_flat_catches_bad_reg;
          Alcotest.test_case "golden opt-report" `Slow test_golden_opt_report;
        ];
      ] )
