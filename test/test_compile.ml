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
   dozen hand-seeded mutations of compiled-input op arrays — each
   simulating a distinct compiler-bug class (wrong immediate, dropped
   def, misattributed bookkeeping, swapped operands, wrong operator,
   flipped dependence chain, dropped store, wrong loop bound, perturbed
   constant, dropped trace scope, retargeted branch, wrong store index) —
   that the observation differential must refute when executed through
   the compiled executor. *)

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
   const), a runtime Isub and Iadd, a def overwritten before it is read, a
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
      (* dead def: overwritten before its only store *)
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
            | Decode.Dinstr { i = Isa.Iconst (d, 6); cls; cls_idx } ->
                (* same-class self-move: only the value is lost *)
                Some (Decode.Dinstr { i = Isa.Imov (d, d); cls; cls_idx })
            | _ -> None)
        in
        assert_refuted ~what:"a dropped live def" prog broken);
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
            (* the store's count kept on a self-move of its source: only
               memory and the event stream lose the store *)
            | Decode.Dinstr { i = Isa.Storef { src; _ }; cls; cls_idx } ->
                Some (Decode.Dinstr { i = Isa.Fmov (src, src); cls; cls_idx })
            | Decode.Dstoref_at { src; _ } ->
                Some
                  (Decode.Dinstr
                     { i = Isa.Fmov (Isa.Sf src, Isa.Sf src);
                       cls = Isa.Sstore;
                       cls_idx = Isa.op_class_index Isa.Sstore })
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
        (* a jump to the next op costs and runs nothing *)
        let broken =
          { opt with
            Decode.phases =
              Array.map
                (fun (ph : Decode.phase) ->
                  { ph with
                    Decode.code =
                      Array.mapi
                        (fun k (op : Decode.dop) ->
                          match op with Denter _ -> Decode.Djmp (k + 1) | op -> op)
                        ph.code })
                opt.phases }
        in
        (* scopes are trace-only observables *)
        assert_refuted ~tracing_modes:[ true ] ~what:"a dropped profiling scope"
          prog broken);
    mutation_case ~what:"a retargeted branch" (fun ~prog ~opt ->
        (* the else target moved onto the then-block: both arms of the
           runtime If now run the then-block *)
        let broken =
          { opt with
            Decode.phases =
              Array.map
                (fun (ph : Decode.phase) ->
                  { ph with
                    Decode.code =
                      Array.mapi
                        (fun k (op : Decode.dop) ->
                          match op with
                          | Dif b -> Decode.Dif { b with else_ = k + 1 }
                          | op -> op)
                        ph.code })
                opt.phases }
        in
        assert_refuted ~what:"a retargeted branch" prog broken);
    mutation_case ~what:"an off-by-one store index" (fun ~prog ~opt ->
        let broken =
          mutate opt (function
            | Decode.Dstorei_at s -> Some (Decode.Dstorei_at { s with imm = s.imm + 1 })
            | _ -> None)
        in
        assert_refuted ~what:"an off-by-one store index" prog broken);
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

(* ------------------------------------------------------------------ *)
(* Fuel sweeps. A block with more than one bookkeeping segment runs a
   merged form (one charge for the whole block) when the fuel covers the
   block, and the exact per-segment form otherwise. Sweeping every fuel
   budget from 0 to the total plus 1 puts the fuel trap at every op
   boundary, where the fallback must reproduce the tree walker's memory
   and event prefix, and ends with budgets the merged form serves. The
   programs carry loads, stores and an integer division in one block and
   in a fused innermost loop (the mul+add pair's placeholder jump is
   threaded away, so the loop body is one block); [idxs] holds a single
   0, at element 25, so the division traps exactly when a program reads
   it. *)

let zero_at = 25

let sweep_program ~looped ~trapping =
  let b = Builder.create ~name:"sweep" in
  let data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  Builder.seq_phase b (fun () ->
      let seven = Builder.iconst b 7 in
      let body i =
        let x = Builder.sf b in
        Builder.emit b (Loadf { dst = x; buf = data; idx = i; chain = false });
        let y = Builder.fbin b Fmul x x in
        let z = Builder.fbin b Fadd y x in
        Builder.emit b (Storef { buf = data; idx = i; src = z });
        let k = Builder.si b in
        Builder.emit b (Loadi { dst = k; buf = idxs; idx = i; chain = true });
        let q = Builder.ibin b Idiv seven k in
        Builder.emit b (Storei { buf = idxs; idx = i; src = q });
        Builder.emit b (Storef { buf = data; idx = q; src = y })
      in
      if looped then
        let lo = Builder.iconst b (if trapping then zero_at - 5 else 0) in
        let hi = Builder.iconst b (if trapping then zero_at + 5 else 12) in
        let step = Builder.iconst b 1 in
        Builder.for_ b ~lo ~hi ~step body
      else begin
        body (Builder.iconst b 3);
        body (Builder.iconst b (if trapping then zero_at else 4))
      end);
  Builder.finish b

let fuel_sweep ~looped ~trapping () =
  let prog = sweep_program ~looped ~trapping in
  let fuel_trap (o : F.observation) =
    match o.o_outcome with
    | Error m -> Astring_contains.contains m "fuel"
    | Ok _ -> false
  in
  let check fuel =
    List.iter
      (fun tracing ->
        let obs strategy =
          F.observe ~strategy ~fuel ~tracing ~n_threads:1 ~width:4 prog
        in
        let t = obs Interp.Tree in
        List.iter
          (fun config ->
            match F.diff_observations t (obs (Interp.Compiled config)) with
            | None -> ()
            | Some what ->
                Alcotest.failf
                  "fuel %d (tracing=%b): Tree and Compiled(%s) differ on %s"
                  fuel tracing (Optimize.tag config) what)
          [ Optimize.none; Optimize.default ])
      [ false; true ];
    F.observe ~strategy:Interp.Tree ~fuel ~tracing:false ~n_threads:1 ~width:4
      prog
  in
  (* the first budget that is not a fuel trap is the program's total *)
  let rec sweep fuel = if fuel_trap (check fuel) then sweep (fuel + 1) else fuel in
  let total = sweep 0 in
  let last = check (total + 1) in
  Alcotest.(check bool) "swept past several ops" true (total > 10);
  Alcotest.(check bool) "outcome as designed" trapping
    (match last.o_outcome with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Bounded timing: [Timing.simulate ~max_cycles] stops a run once it has
   used more than floor(max_cycles * issue_width * n_threads)
   instructions over all launches. It must be sound both ways: a bound at
   or above the true cycles changes nothing (bit for bit), and a cut
   means the true cycles exceed the bound. A trap is a cut only when the
   shared budget is what ran out. *)

module Timing = Ninja_arch.Timing
module Machine = Ninja_arch.Machine
module Driver = Ninja_kernels.Driver

let report_bits r = Ninja_report.Json.to_string (Ninja_core.Store.report_to_json r)

type bounded = Report of string | Cut | Trapped of string

(* The run under [bound], classified; [run] takes [?max_cycles]. *)
let bounded run bound =
  match run ~max_cycles:bound with
  | r -> Report (report_bits r)
  | exception Timing.Exceeds -> Cut
  | exception Memory.Trap m -> Trapped m

(* Checks one run against its unbounded report under the five bounds
   {0, cycles/2, pred cycles, cycles, inf}; returns how many were cut. *)
let check_bounds ~what run (full : Timing.report) =
  let bits = report_bits full and c = full.cycles in
  List.fold_left
    (fun cuts bound ->
      match bounded run bound with
      | Report b ->
          if b <> bits then Alcotest.failf "%s: bound %h changed the report" what bound;
          cuts
      | Cut ->
          if not (c > bound) then
            Alcotest.failf "%s: cut at %h but the run models %h cycles" what bound c;
          cuts + 1
      | Trapped m -> Alcotest.failf "%s: bound %h trapped: %s" what bound m)
    0
    [ 0.; c /. 2.; Float.pred c; c; Float.infinity ]

let test_bounded_ladder () =
  let cuts = ref 0 and threaded_cuts = ref 0 and multi = ref [] in
  List.iter
    (fun (bench : Driver.benchmark) ->
      let steps = bench.steps ~scale:1 in
      List.iter
        (fun (m : Machine.t) ->
          List.iter
            (fun (s : Driver.step) ->
              if s.runs m > 1 then multi := (bench.b_name ^ " " ^ s.step_name) :: !multi;
              List.iter
                (fun strategy ->
                  let what =
                    Fmt.str "%s / %s / %s / %s" bench.b_name m.name s.step_name
                      (Interp.strategy_tag strategy)
                  in
                  let run ~max_cycles = Driver.run_step ~strategy ~max_cycles ~machine:m s in
                  let full = Driver.run_step ~strategy ~machine:m s in
                  let n = check_bounds ~what run full in
                  cuts := !cuts + n;
                  if s.parallel then threaded_cuts := !threaded_cuts + n)
                [ Interp.Tree; Interp.Compiled Optimize.default ])
            steps)
        [ Machine.westmere; Machine.knights_ferry ])
    Ninja_kernels.Registry.all;
  List.iter
    (fun step ->
      Alcotest.(check bool) (step ^ " is multi-launch") true (List.mem step !multi))
    [ "MergeSort naive serial"; "TreeSearch +algorithmic"; "VolumeRender +algorithmic" ];
  Alcotest.(check bool) "bounds below the cycles cut runs" true (!cuts > 0);
  Alcotest.(check bool) "threaded runs were cut too" true (!threaded_cuts > 0)

(* Random verifier-clean programs: bounds around the cycles of those that
   complete; a trapping one keeps its message under any budget that
   reaches the trap, and a budget of zero stops it first. *)
let prop_bounded_random =
  QCheck.Test.make ~count:100 ~name:"random programs: bounded timing is sound"
    F.seed_arb (fun seed ->
      let prog, n_threads, width = F.build_program seed in
      let machine = { Machine.westmere with simd_width = width } in
      List.for_all
        (fun strategy ->
          let run ?max_cycles () =
            let mem =
              Memory.create prog
                [ ("data", Memory.Fbuf (Array.copy F.fdata_init));
                  ("idxs", Memory.Ibuf (Array.copy F.idata_init)) ]
            in
            Timing.simulate ~machine ~n_threads ~strategy ?max_cycles prog mem
          in
          let what = Interp.strategy_tag strategy in
          (match run () with
          | full -> ignore (check_bounds ~what (fun ~max_cycles -> run ~max_cycles ()) full : int)
          | exception Memory.Trap m ->
              List.iter
                (fun bound ->
                  match bounded (fun ~max_cycles -> run ~max_cycles ()) bound with
                  | Trapped m' when m' = m -> ()
                  | Cut when bound = 0. -> ()
                  | _ -> QCheck.Test.fail_reportf "%s: trap %S not kept under bound %h" what m bound)
                [ 0.; 1e9; Float.infinity ]);
          true)
        [ Interp.Tree; Interp.Compiled Optimize.default ])

(* Every budget B from 0 to past the total, over the sweep programs (one
   block and a fused loop, with and without the division trap) launched
   [runs] times: the bounded run is cut exactly when a plain run of the
   same launches with B fuel in all would exhaust it, and otherwise
   returns the unbounded outcome — the division trap's message, or the
   report. With [max_cycles] = B / issue_width on one thread the budget
   is exactly B. *)
let bounded_sweep ~looped ~trapping ~runs () =
  let prog = sweep_program ~looped ~trapping in
  let machine = Machine.westmere in
  let w = float_of_int machine.issue_width in
  let memory () =
    Memory.create prog
      [ ("data", Memory.Fbuf (Array.copy F.fdata_init));
        ("idxs", Memory.Ibuf (Array.copy F.idata_init)) ]
  in
  (* every launch starts from the same divisors (a launch zeroes some) *)
  let prepare _ mem =
    match Memory.find mem "idxs" with
    | _, Memory.Ibuf a -> Array.blit F.idata_init 0 a 0 (Array.length a)
    | _, Memory.Fbuf _ -> assert false
  in
  List.iter
    (fun strategy ->
      let timing ?max_cycles () =
        Timing.simulate ~machine ~runs ~prepare ~strategy ?max_cycles prog (memory ())
      in
      (* fuel exhaustion of the same launches under one shared budget *)
      let exhausts budget =
        let mem = memory () in
        let left = ref budget in
        let launch = Interp.session ~width:machine.simd_width ~fuel:left ~strategy prog mem in
        match
          for run = 0 to runs - 1 do
            prepare run mem;
            ignore (launch () : Interp.result)
          done
        with
        | () -> false
        | exception Memory.Trap _ -> !left < 0
      in
      let unbounded =
        match timing () with
        | r -> Report (report_bits r)
        | exception Memory.Trap m -> Trapped m
      in
      let rec sweep budget =
        let got = bounded (fun ~max_cycles -> timing ~max_cycles ()) (float_of_int budget /. w) in
        let what = Fmt.str "%s, budget %d" (Interp.strategy_tag strategy) budget in
        if exhausts budget then begin
          if got <> Cut then Alcotest.failf "%s: fuel runs out but the run was not cut" what;
          sweep (budget + 1)
        end
        else if got <> unbounded then Alcotest.failf "%s: outcome differs from the unbounded run" what
        else budget
      in
      let enough = sweep 0 in
      Alcotest.(check bool) "swept past several ops" true (enough > 10);
      List.iter
        (fun budget ->
          if bounded (fun ~max_cycles -> timing ~max_cycles ()) (float_of_int budget /. w) <> unbounded
          then Alcotest.failf "budget %d: outcome differs from the unbounded run" budget)
        [ enough + 1; 100 * enough ];
      Alcotest.(check bool) "outcome as designed" trapping
        (match unbounded with Trapped _ -> true | _ -> false))
    [ Interp.Tree; Interp.Compiled Optimize.none; Interp.Compiled Optimize.default ]

(* ------------------------------------------------------------------ *)
(* Placeholder threading over every ladder program. *)

let control_targets (code : Decode.dop array) =
  let t = Array.make (Array.length code + 1) false in
  Array.iter
    (fun (op : Decode.dop) ->
      match op with
      | Dfor { exit = k; _ } | Dwhile { exit = k; _ } | Dforback { body = k; _ }
      | Dif { else_ = k; _ } | Djmp k -> t.(k) <- true
      | _ -> ())
    code;
  t

(* a forward jump whose skipped slots nothing targets *)
let droppable code =
  let t = control_targets code in
  let found = ref None in
  Array.iteri
    (fun i (op : Decode.dop) ->
      match op with
      | Djmp k when k > i && !found = None ->
          let free = ref true in
          for j = i + 1 to k - 1 do if t.(j) then free := false done;
          if !free then found := Some i
      | _ -> ())
    code;
  !found

let test_thread_ladder () =
  let dropped = ref 0 in
  let fingerprint (r : Ninja_arch.Timing.report) =
    ( r.instructions, Printf.sprintf "%h" r.cycles, r.dram_read_bytes,
      r.dram_write_bytes, r.level_accesses )
  in
  List.iter
    (fun (bench : Ninja_kernels.Driver.benchmark) ->
      let steps = bench.steps ~scale:1 in
      List.iter
        (fun (m : Ninja_arch.Machine.t) ->
          List.iter
            (fun (s : Ninja_kernels.Driver.step) ->
              let what = Fmt.str "%s / %s / %s" bench.b_name m.name s.step_name in
              let d = Optimize.run (Decode.decode (s.make ~machine:m)) in
              Array.iter
                (fun (ph : Decode.phase) ->
                  let th = Compile.thread ph.code in
                  dropped := !dropped + Array.length ph.code - Array.length th;
                  (match droppable th with
                  | Some i -> Alcotest.failf "%s: droppable jump left at %d" what i
                  | None -> ());
                  if compare (Compile.thread th) th <> 0 then
                    Alcotest.failf "%s: threading twice changed the array" what)
                d.phases;
              let tree =
                Ninja_kernels.Driver.run_step ~strategy:Interp.Tree ~machine:m s
              in
              let compiled = Ninja_kernels.Driver.run_step ~machine:m s in
              if compare (fingerprint tree) (fingerprint compiled) <> 0 then
                Alcotest.failf "%s: Compiled differs from Tree" what)
            steps)
        [ Ninja_arch.Machine.westmere; Ninja_arch.Machine.knights_ferry ])
    Ninja_kernels.Registry.all;
  Alcotest.(check bool) "placeholder jumps were dropped" true (!dropped > 0)

let test_thread_shapes () =
  let nop =
    Decode.Dinstr
      { i = Isa.Iconst (Isa.Si 0, 0); cls = Isa.Salu;
        cls_idx = Isa.op_class_index Isa.Salu }
  in
  let threads what (code : Decode.dop array) (want : Decode.dop array) =
    Alcotest.(check bool) what true (compare (Compile.thread code) want = 0);
    Alcotest.(check bool) (what ^ ", idempotent") true
      (compare (Compile.thread want) want = 0)
  in
  threads "a chain is retargeted, a skip over a target is kept"
    [| Dif { cond = 0; else_ = 3 };
       Djmp 2; (* placeholder chain 1 -> 2 -> 5 -> 7 *)
       Djmp 5; (* skips 3 and 4, but 3 is the Dif's target: kept *)
       nop; nop;
       Djmp 7; (* skips 6, which nothing targets: dropped *)
       nop; nop |]
    [| Dif { cond = 0; else_ = 3 }; Djmp 5; Djmp 5; nop; nop; nop |];
  threads "retargeting frees a region"
    [| Dif { cond = 0; else_ = 2 }; Djmp 4; Djmp 4; nop; nop |]
    [| Dif { cond = 0; else_ = 1 }; nop |];
  threads "a jump cycle stays a cycle" [| Djmp 1; Djmp 0 |] [| Djmp 0 |];
  threads "out-of-range targets are left alone" [| Djmp 5; nop |] [| Djmp 5; nop |]

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
          Alcotest.test_case "fuel sweep: one block" `Quick
            (fuel_sweep ~looped:false ~trapping:false);
          Alcotest.test_case "fuel sweep: one block, division traps" `Quick
            (fuel_sweep ~looped:false ~trapping:true);
          Alcotest.test_case "fuel sweep: fused loop" `Quick
            (fuel_sweep ~looped:true ~trapping:false);
          Alcotest.test_case "fuel sweep: fused loop, division traps" `Quick
            (fuel_sweep ~looped:true ~trapping:true);
          Alcotest.test_case "bounded timing: every ladder step" `Quick
            test_bounded_ladder;
          QCheck_alcotest.to_alcotest prop_bounded_random;
          Alcotest.test_case "bounded sweep: one block" `Quick
            (bounded_sweep ~looped:false ~trapping:false ~runs:1);
          Alcotest.test_case "bounded sweep: fused loop, division traps" `Quick
            (bounded_sweep ~looped:true ~trapping:true ~runs:1);
          Alcotest.test_case "bounded sweep: three launches share the budget" `Quick
            (bounded_sweep ~looped:true ~trapping:false ~runs:3);
          Alcotest.test_case "bounded sweep: one block, division traps, two launches" `Quick
            (bounded_sweep ~looped:false ~trapping:true ~runs:2);
          Alcotest.test_case "threading: hand-built shapes" `Quick
            test_thread_shapes;
          Alcotest.test_case "threading: every ladder program" `Quick
            test_thread_ladder;
        ];
        mutations;
      ] )
