(* Differential pinning for the bytecode optimizer (lib/vm/optimize.ml).

   The optimizer's contract is total observational equivalence: for any
   verifier-clean program, [Compiled config] must agree with [Tree] on
   every observable — final register files, memory contents, per-thread
   count rows, total instructions, the memory-access event stream, the
   profiling trace, and trap messages — whatever pass list [config]
   names. This suite pins that contract per pass, for the full pipeline,
   for pairwise-shuffled pass orders and for every order of all three
   passes, through the backend differential of test_fastpath.ml; plus
   hand-written fixtures per pass, pipeline and per-pass idempotence
   properties, mutation tests that execute deliberately broken optimized
   arrays and assert the differential harness catches them (so a wrong
   pass could not slip through), and [Verify.check_flat] lint checks. *)

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

(* Every ordering of the whole pipeline: no pass relies on running after
   another. *)
let props_orders =
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun p -> List.map (List.cons p) (perms (List.filter (( <> ) p) l))) l
  in
  List.map
    (fun passes ->
      F.tree_vs_compiled ~count:10
        ~name:(Fmt.str "random programs: pass order %s preserves all observables"
                 (Optimize.tag { Optimize.passes }))
        { Optimize.passes })
    (perms Optimize.all_passes)

(* ------------------------------------------------------------------ *)
(* Pipeline idempotence: a second run rewrites nothing.                *)

let prop_idempotent =
  QCheck.Test.make ~count:100 ~name:"optimizer pipeline is idempotent"
    F.seed_arb (fun seed ->
      let prog, _, _ = F.build_program seed in
      let once = Optimize.run (Decode.decode prog) in
      let twice = Optimize.run once in
      (* [compare], not [=]: a float constant may be NaN *)
      if compare once.Decode.phases twice.Decode.phases = 0 then true
      else QCheck.Test.fail_reportf "second pipeline run changed the op arrays")

(* Each pass alone is idempotent too: its second run finds nothing left
   to rewrite, so the pipeline's idempotence is not an accident of
   pass order. *)
let props_each_pass_idempotent =
  List.map
    (fun p ->
      let config = { Optimize.passes = [ p ] } in
      QCheck.Test.make ~count:50
        ~name:(Fmt.str "pass %s alone is idempotent" (Optimize.pass_name p))
        F.seed_arb (fun seed ->
          let prog, _, _ = F.build_program seed in
          let once = Optimize.run ~config (Decode.decode prog) in
          let twice, r = Optimize.run_report ~config once in
          let rewrites =
            List.fold_left
              (fun acc (ps : Optimize.pass_stats) ->
                List.fold_left (fun a (_, n) -> a + n) acc ps.ps_stats)
              0 r.Optimize.r_passes
          in
          if rewrites = 0 && compare once.Decode.phases twice.Decode.phases = 0
          then true
          else
            QCheck.Test.fail_reportf "second %s run rewrote %d ops"
              (Optimize.pass_name p) rewrites))
    Optimize.all_passes

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

let test_imm_leaves_constant_pairs () =
  (* both operands known: the guard leaves the pair an [Ibin] (no pass
     evaluates it), so imm rewrites nothing *)
  let d, r =
    fixture { Optimize.passes = [ Optimize.Imm ] } (fun b ->
        Builder.seq_phase b (fun () ->
            let x = Builder.iconst b 2 in
            let y = Builder.iconst b 3 in
            ignore (Builder.ibin b Iadd x y : Isa.si_reg)))
  in
  Alcotest.(check bool) "2 + 3 stayed an Ibin" true
    (has_op d (function
      | Decode.Dinstr { i = Isa.Ibin (Isa.Iadd, _, _, _); _ } -> true
      | _ -> false));
  Alcotest.(check int) "nothing specialized" 0 (stat r Optimize.Imm "specialized")

let test_imm_specializes_mul_and_access () =
  let d, r =
    fixture { Optimize.passes = [ Optimize.Imm ] } (fun b ->
        let data = Builder.buffer_f b "data" in
        let idxs = Builder.buffer_i b "idxs" in
        Builder.seq_phase b (fun () ->
            let x = Builder.si b in
            Builder.emit b (Imov (x, Isa.thread_id_reg));
            let four = Builder.iconst b 4 in
            let y = Builder.ibin b Imul four x in
            let two = Builder.iconst b 2 in
            let f = Builder.sf b in
            Builder.emit b (Loadf { dst = f; buf = data; idx = two; chain = false });
            Builder.emit b (Storei { buf = idxs; idx = two; src = y })))
  in
  Alcotest.(check bool) "4 * x became Dmuli imm=4" true
    (has_op d (function Decode.Dmuli { imm = 4; _ } -> true | _ -> false));
  Alcotest.(check bool) "load at 2 became Dloadf_at" true
    (has_op d (function Decode.Dloadf_at { imm = 2; _ } -> true | _ -> false));
  Alcotest.(check bool) "store at 2 became Dstorei_at" true
    (has_op d (function Decode.Dstorei_at { imm = 2; _ } -> true | _ -> false));
  Alcotest.(check int) "three specializations" 3 (stat r Optimize.Imm "specialized")

let test_moves_stops_at_redefinition () =
  (* c copies a, then a is redefined: c's read must not become a *)
  let copy = ref (Isa.Si (-1)) in
  let d, r =
    fixture { Optimize.passes = [ Optimize.Moves ] } (fun b ->
        Builder.seq_phase b (fun () ->
            let a = Builder.iconst b 7 in
            let c = Builder.si b in
            copy := c;
            Builder.emit b (Imov (c, a));
            Builder.emit b (Iconst (a, 8));
            ignore (Builder.ibin b Iadd c c : Isa.si_reg)))
  in
  Alcotest.(check int) "no read rewritten" 0 (stat r Optimize.Moves "rewritten");
  Alcotest.(check bool) "the add still reads the copy" true
    (has_op d (function
      | Decode.Dinstr { i = Isa.Ibin (Isa.Iadd, _, a, b); _ } -> a = !copy && b = !copy
      | _ -> false))

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

let test_peephole_needs_the_product () =
  (* the add reads neither the product nor sits next to the mul *)
  let _, r =
    fixture { Optimize.passes = [ Optimize.Peephole ] } (fun b ->
        Builder.seq_phase b (fun () ->
            let x = Builder.fconst b 2. in
            let y = Builder.fconst b 3. in
            let t = Builder.sf b in
            let acc = Builder.sf b in
            Builder.emit b (Fbin (Fmul, t, x, y));
            Builder.emit b (Fbin (Fadd, acc, x, y));
            Builder.emit b (Fbin (Fmul, t, x, y));
            Builder.emit b (Fconst (acc, 1.));
            Builder.emit b (Fbin (Fadd, acc, t, y))))
  in
  Alcotest.(check int) "nothing fused" 0 (stat r Optimize.Peephole "fused")

(* Programs the removed fold and dce passes used to rewrite — a branch on
   a known condition, a def overwritten before it is read — must still
   run identically through the full pipeline. *)
let agrees_with_tree build =
  let b = Builder.create ~name:"opt-agree" in
  let data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  build b ~data ~idxs;
  let prog = Builder.finish b in
  List.iter
    (fun tracing ->
      let t = F.observe ~strategy:Interp.Tree ~tracing ~n_threads:2 ~width:4 prog in
      let c =
        F.observe ~strategy:(Interp.Compiled Optimize.default) ~tracing ~n_threads:2
          ~width:4 prog
      in
      match F.diff_observations t c with
      | None -> ()
      | Some what -> Alcotest.failf "Tree vs Compiled diverge (tracing=%b) on %s" tracing what)
    [ false; true ];
  prog

let test_constant_branches_agree () =
  ignore
    (agrees_with_tree (fun b ~data:_ ~idxs ->
         Builder.seq_phase b (fun () ->
             List.iter
               (fun k ->
                 let c = Builder.iconst b k in
                 let slot = Builder.iconst b (k + 1) in
                 let v = Builder.si b in
                 Builder.if_ b ~cond:c
                   ~else_:(fun () -> Builder.emit b (Iconst (v, 20 + k)))
                   (fun () -> Builder.emit b (Iconst (v, 10 + k)));
                 Builder.emit b (Storei { buf = idxs; idx = slot; src = v }))
               [ 0; 1 ]))
     : Isa.program)

let test_overwritten_def_agrees () =
  let prog =
    agrees_with_tree (fun b ~data:_ ~idxs ->
        Builder.seq_phase b (fun () ->
            let r = Builder.si b in
            Builder.emit b (Iconst (r, 1));
            Builder.emit b (Iconst (r, 2));
            let zero = Builder.iconst b 0 in
            Builder.emit b (Storei { buf = idxs; idx = zero; src = r })))
  in
  let d = Decode.decode prog in
  let opt = Optimize.run d in
  Alcotest.(check int) "no op removed" (Decode.size d) (Decode.size opt);
  Alcotest.(check bool) "the overwritten def is still executed" true
    (has_op opt (function
      | Decode.Dinstr { i = Isa.Iconst (_, 1); _ } -> true
      | _ -> false))

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
         store is a live def a broken pass might drop *)
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
      | Decode.Dinstr { i = Isa.Iconst (d, 5); cls; cls_idx } ->
          (* a live def dropped for a same-class self-move: counts stay
             identical, so only the value differential can catch it *)
          Some (Decode.Dinstr { i = Isa.Imov (d, d); cls; cls_idx })
      | _ -> None)
  in
  assert_caught ~what:"a dropped live def" prog broken

(* A site for each specialized form imm and peephole produce: Dmuli,
   Dloadi_at, Dstorei_at and a scalar Dsmuladd whose sum is stored. *)
let specialized_program () =
  let b = Builder.create ~name:"mutation-specialized" in
  let data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  Builder.seq_phase b (fun () ->
      let x = Builder.si b in
      Builder.emit b (Imov (x, Isa.thread_id_reg));
      (* x + 1 is non-zero on thread 0, so a wrong multiplier shows *)
      let one = Builder.iconst b 1 in
      let x1 = Builder.ibin b Iadd x one in
      let five = Builder.iconst b 5 in
      let y = Builder.ibin b Imul x1 five in
      let two = Builder.iconst b 2 in
      let z = Builder.si b in
      Builder.emit b (Loadi { dst = z; buf = idxs; idx = two; chain = false });
      let s = Builder.ibin b Iadd y z in
      let three = Builder.iconst b 3 in
      Builder.emit b (Storei { buf = idxs; idx = three; src = s });
      let f = Builder.sf b in
      Builder.emit b (Loadf { dst = f; buf = data; idx = x; chain = false });
      let g = Builder.fconst b 1.5 in
      let t = Builder.sf b in
      let acc = Builder.sf b in
      Builder.emit b (Fbin (Fmul, t, f, g));
      Builder.emit b (Fbin (Fadd, acc, t, g));
      Builder.emit b (Storef { buf = data; idx = x; src = acc }));
  Builder.finish b

let specialized_mutation ~what f () =
  let prog = specialized_program () in
  let opt = Optimize.run (Decode.decode prog) in
  let broken = mutate opt f in
  Alcotest.(check bool) "the mutation found its site" true
    (compare broken.Decode.phases opt.Decode.phases <> 0);
  assert_caught ~what prog broken

let test_mutation_off_by_one_mul =
  specialized_mutation ~what:"an off-by-one multiply immediate" (function
    | Decode.Dmuli d -> Some (Decode.Dmuli { d with imm = d.imm + 1 })
    | _ -> None)

let test_mutation_load_index =
  specialized_mutation ~what:"a specialized load at the wrong index" (function
    | Decode.Dloadi_at l -> Some (Decode.Dloadi_at { l with imm = l.imm + 1 })
    | _ -> None)

let test_mutation_store_index =
  specialized_mutation ~what:"a specialized store at the wrong index" (function
    | Decode.Dstorei_at s -> Some (Decode.Dstorei_at { s with imm = s.imm + 1 })
    | _ -> None)

let test_mutation_fused_addend =
  (* still reads its product, so check_flat passes: only the value
     differential sees the wrong addend *)
  specialized_mutation ~what:"a fused add with the wrong addend" (function
    | Decode.Dsmuladd m when m.x = m.t -> Some (Decode.Dsmuladd { m with y = m.a })
    | Decode.Dsmuladd m -> Some (Decode.Dsmuladd { m with x = m.a })
    | _ -> None)

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

let check_flat_flags ~what f () =
  let opt = Optimize.run (Decode.decode (specialized_program ())) in
  let broken = mutate opt f in
  Alcotest.(check bool) "the clean array lints clean" true (Verify.check_flat opt = []);
  Alcotest.(check bool) ("check_flat flags " ^ what) true (Verify.check_flat broken <> [])

let test_check_flat_catches_bad_target =
  check_flat_flags ~what:"a jump past the end" (function
    | Decode.Djmp k -> Some (Decode.Djmp (k + 100))
    | _ -> None)

let test_check_flat_catches_stale_class =
  check_flat_flags ~what:"a stale op class" (function
    | Decode.Dinstr ({ cls = Isa.Salu; _ } as d) ->
        Some (Decode.Dinstr { d with cls = Isa.Sfp })
    | _ -> None)

let test_check_flat_catches_unread_product =
  check_flat_flags ~what:"a muladd that ignores its product" (function
    | Decode.Dsmuladd m -> Some (Decode.Dsmuladd { m with x = m.a; y = m.b })
    | _ -> None)

let test_check_flat_catches_negative_index =
  check_flat_flags ~what:"a negative specialized index" (function
    | Decode.Dstorei_at s -> Some (Decode.Dstorei_at { s with imm = -1 })
    | _ -> None)

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
        List.map QCheck_alcotest.to_alcotest props_orders;
        [ QCheck_alcotest.to_alcotest prop_idempotent ];
        List.map QCheck_alcotest.to_alcotest props_each_pass_idempotent;
        [
          Alcotest.test_case "imm: x + 3 specializes" `Quick test_imm_specializes_add;
          Alcotest.test_case "imm: a fully constant pair is left alone" `Quick
            test_imm_leaves_constant_pairs;
          Alcotest.test_case "imm: multiply, load and store specialize" `Quick
            test_imm_specializes_mul_and_access;
          Alcotest.test_case "moves: copy reads rewritten" `Quick test_moves_rewrites_copies;
          Alcotest.test_case "moves: a redefined source stops the rewrite" `Quick
            test_moves_stops_at_redefinition;
          Alcotest.test_case "peephole: muladd fusion" `Quick test_peephole_fuses_muladd;
          Alcotest.test_case "peephole: an add without the product is not fused" `Quick
            test_peephole_needs_the_product;
          Alcotest.test_case "pipeline: constant branches agree with the tree walker" `Quick
            test_constant_branches_agree;
          Alcotest.test_case "pipeline: an overwritten def agrees with the tree walker"
            `Quick test_overwritten_def_agrees;
          Alcotest.test_case "mutation: off-by-one immediate is caught" `Quick
            test_mutation_off_by_one_imm;
          Alcotest.test_case "mutation: dropped def is caught" `Quick
            test_mutation_dropped_def;
          Alcotest.test_case "mutation: off-by-one multiply immediate is caught" `Quick
            test_mutation_off_by_one_mul;
          Alcotest.test_case "mutation: specialized load index is caught" `Quick
            test_mutation_load_index;
          Alcotest.test_case "mutation: specialized store index is caught" `Quick
            test_mutation_store_index;
          Alcotest.test_case "mutation: wrong fused addend is caught" `Quick
            test_mutation_fused_addend;
          Alcotest.test_case "mutation: check_flat flags bad register" `Quick
            test_check_flat_catches_bad_reg;
          Alcotest.test_case "mutation: check_flat flags bad jump target" `Quick
            test_check_flat_catches_bad_target;
          Alcotest.test_case "mutation: check_flat flags stale op class" `Quick
            test_check_flat_catches_stale_class;
          Alcotest.test_case "mutation: check_flat flags unread product" `Quick
            test_check_flat_catches_unread_product;
          Alcotest.test_case "mutation: check_flat flags negative index" `Quick
            test_check_flat_catches_negative_index;
          Alcotest.test_case "golden opt-report" `Slow test_golden_opt_report;
        ];
      ] )
