(* The dependence engine's correctness gate (lib/lang/deps.ml).

   The centerpiece is the *permutation oracle*: iteration independence is
   a claim about execution — a loop the engine marks
   [iteration_independent] must produce bit-identical memory when its
   iterations run in reversed order. The qcheck property below generates
   random single-loop kernels from dependence-shaped statement templates,
   compiles the forward and index-reversed sources at plain -O2 (scalar
   code, so loop order is execution order), runs both on identical
   deterministic buffers, and compares every output buffer with
   polymorphic [compare] (NaN-safe). The engine never has to be precise —
   only conservative — and the oracle is exactly that contract.

   Mutation tests then seed engine bugs through {!Deps.relegalize}
   (dropped alias deps, dropped anti deps, dropped output deps, cleared
   carried flags): each mutant flips a correctly-rejected loop to
   "independent", and the same forward-vs-reversed execution shows the
   claim is wrong — so a real regression of that shape cannot slip past
   the suite. Deterministic fixtures pin the vectors themselves. *)

open Ninja_lang
module Driver = Ninja_kernels.Driver
module Interp = Ninja_vm.Interp

(* ---- harness: parse, analyze, compile, run ---- *)

let parse_exn src =
  match Parser.parse_kernel_diag src with
  | Ok k -> k
  | Error d -> Alcotest.failf "fixture does not parse: %s" (Diag.label d)

(* the single top-level loop of a fixture kernel, constant-folded as the
   engine sees it *)
let only_loop src =
  let k = parse_exn src in
  let body = Ast.fold_block k.Ast.body in
  let rec find = function
    | [] -> Alcotest.fail "fixture has no for loop"
    | Ast.For l :: _ -> l
    | _ :: tl -> find tl
  in
  find body

let facts ?noalias src = Deps.analyze_loop ?noalias (only_loop src)

(* deterministic, name-dependent buffers: [a] and [b] hold different data
   so a read from the wrong array cannot accidentally match *)
let bindings (prog : Ninja_vm.Isa.program) =
  Array.to_list prog.Ninja_vm.Isa.buffers
  |> List.filter_map (fun (b : Ninja_vm.Isa.buffer_decl) ->
         let name = b.Ninja_vm.Isa.buf_name in
         if String.length name >= 2 && String.sub name 0 2 = "__" then None
         else
           let salt = (Hashtbl.hash name mod 11) + 1 in
           Some
             ( name,
               match b.Ninja_vm.Isa.elt with
               | Ninja_vm.Isa.F32 ->
                   Driver.Farr
                     (Array.init 64 (fun j ->
                          float_of_int (((j * 31) + (salt * 17)) mod 101) /. 16.))
               | Ninja_vm.Isa.I32 ->
                   Driver.Iarr (Array.init 64 (fun j -> (j + salt) mod 64)) ))

(* compile at plain -O2 (scalar code: program order = iteration order),
   run serially, and return every visible output buffer by name *)
let run_scalar src =
  let k = parse_exn src in
  let prog = (Codegen.compile ~flags:Codegen.o2 k).Codegen.program in
  let mem = Driver.memory_for prog (bindings prog) in
  let _ = Interp.run ~fuel:1_000_000 prog mem in
  bindings prog
  |> List.filter_map (fun (name, arg) ->
         match arg with
         | Driver.Farr _ -> Some (name, Driver.output_f mem name)
         | _ -> None)

let subst ~idx stmts =
  List.map
    (fun s ->
      String.concat idx (String.split_on_char '#' s)
      (* '#' is the index placeholder in templates *))
    stmts

let perm_kernel ~idx stmts =
  Fmt.str
    {|kernel perm(a : float[], b : float[]) {
  var i : int;
  var s : float = 0.0;
  for (i = 0; i < 16; i = i + 1) {
    %s
  }
}|}
    (String.concat "\n    " (subst ~idx stmts))

let forward stmts = perm_kernel ~idx:"i" stmts
let reversed stmts = perm_kernel ~idx:"(15 - i)" stmts

(* ---- the permutation oracle ---- *)

(* dependence-shaped statement templates over '#' (the loop index):
   a mix of provably independent shapes, carried array dependences,
   loop-invariant stores, and a scalar recurrence *)
let template seed k =
  let pick = if Array.length seed = 0 then 0 else seed.(k mod Array.length seed) in
  let ofs = 1 + (pick mod 3) in
  match pick mod 6 with
  | 0 -> "a[#] = b[#] + 1.0;"
  | 1 -> "a[#] = a[#] * 0.5 + b[#];"
  | 2 -> Fmt.str "a[# + %d] = b[#] * 0.5;" ofs
  | 3 -> Fmt.str "a[#] = a[# + %d] + 1.0;" ofs
  | 4 -> "a[0] = b[#];"
  | _ -> "s = s + a[#]; b[#] = s + 1.0;"

let build_stmts seed =
  let n = if Array.length seed = 0 then 1 else 1 + (seed.(0) mod 3) in
  List.init n (fun k -> template seed (k + 1))

let seed_arb =
  QCheck.make
    ~print:(fun seed -> forward (build_stmts seed))
    ~shrink:QCheck.Shrink.array
    QCheck.Gen.(array_size (2 -- 8) (int_bound 1_000_000))

let prop_permutation_oracle =
  QCheck.Test.make ~count:300 ~name:"permutation oracle: independent loops reverse bit-identically"
    seed_arb (fun seed ->
      let stmts = build_stmts seed in
      let f = facts (forward stmts) in
      if Deps.iteration_independent f then begin
        let fwd = run_scalar (forward stmts) and rev = run_scalar (reversed stmts) in
        if compare fwd rev <> 0 then
          QCheck.Test.fail_reportf
            "engine claims iteration independence but reversal changed memory:@.%s"
            (forward stmts)
      end;
      true)

let test_oracle_not_vacuous () =
  (* the property must exercise real runs: the template mix makes
     independent loops common, so a generator or engine change that
     silences the oracle fails here. The count comes from this test's own
     fixed-seed sample of the property's generator, so it does not depend
     on the property having run first: the property is slow-only, this check
     is quick. *)
  let rand = Random.State.make [| 42 |] in
  let independent_loops = ref 0 in
  for _ = 1 to 300 do
    let seed = QCheck.Gen.generate1 ~rand (QCheck.get_gen seed_arb) in
    if Deps.iteration_independent (facts (forward (build_stmts seed))) then
      incr independent_loops
  done;
  Alcotest.(check bool)
    (Fmt.str "oracle ran on %d independent loops" !independent_loops)
    true
    (!independent_loops > 20)

(* ---- hand-seeded engine mutations ----

   Each mutation drops (or falsifies) one class of facts via
   [Deps.relegalize], exactly what a real engine bug would do. The real
   engine rejects each fixture; the mutant accepts it; and executing the
   fixture forward vs reversed shows memory differs — the oracle's
   refutation of the mutant's claim. *)

let assert_caught ~name ~mutant_facts ~fwd_src ~rev_src =
  Alcotest.(check bool)
    (name ^ ": mutant engine now (wrongly) claims independence")
    true
    (Deps.iteration_independent mutant_facts);
  let fwd = run_scalar fwd_src and rev = run_scalar rev_src in
  Alcotest.(check bool)
    (name ^ ": reversal changes memory, so the oracle catches the mutant")
    true
    (compare fwd rev <> 0)

(* M1: dropped alias check. Under may-alias the engine must keep the
   conservative cross-array dependence; the mutant filters aliased deps
   out. Executing the *aliased* semantics (b textually collapsed onto a)
   refutes the claim. *)
let test_mutation_dropped_alias () =
  let src = forward [ "a[#] = b[# + 1] + 1.0;" ] in
  let f = facts ~noalias:false src in
  Alcotest.(check bool) "real engine: not independent under may-alias" false
    (Deps.iteration_independent f);
  let mutant =
    Deps.relegalize f
      ~deps:(List.filter (fun (d : Deps.dep) -> not d.Deps.aliased) f.Deps.deps)
  in
  assert_caught ~name:"dropped-alias" ~mutant_facts:mutant
    ~fwd_src:(forward [ "a[#] = a[# + 1] + 1.0;" ])
    ~rev_src:(reversed [ "a[#] = a[# + 1] + 1.0;" ])

(* M2: dropped anti dependences. *)
let test_mutation_dropped_anti () =
  let stmts = [ "a[#] = a[# + 1] + 1.0;" ] in
  let f = facts (forward stmts) in
  Alcotest.(check bool) "real engine: carried anti dep blocks independence" false
    (Deps.iteration_independent f);
  let mutant =
    Deps.relegalize f
      ~deps:(List.filter (fun (d : Deps.dep) -> d.Deps.kind <> Deps.Anti) f.Deps.deps)
  in
  assert_caught ~name:"dropped-anti" ~mutant_facts:mutant
    ~fwd_src:(forward stmts) ~rev_src:(reversed stmts)

(* M3: dropped output dependences (the loop-invariant store). *)
let test_mutation_dropped_output () =
  let stmts = [ "a[0] = b[#];" ] in
  let f = facts (forward stmts) in
  Alcotest.(check bool) "real engine: invariant store blocks independence" false
    (Deps.iteration_independent f);
  let mutant =
    Deps.relegalize f
      ~deps:
        (List.filter (fun (d : Deps.dep) -> d.Deps.kind <> Deps.Output) f.Deps.deps)
  in
  assert_caught ~name:"dropped-output" ~mutant_facts:mutant
    ~fwd_src:(forward stmts) ~rev_src:(reversed stmts)

(* M4: cleared carried flags — the distance computed, then thrown away. *)
let test_mutation_cleared_carried () =
  let stmts = [ "a[#] = a[# + 2] + 1.0;" ] in
  let f = facts (forward stmts) in
  Alcotest.(check bool) "real engine: carried dep blocks independence" false
    (Deps.iteration_independent f);
  let mutant =
    Deps.relegalize f
      ~deps:
        (List.map
           (fun (d : Deps.dep) -> { d with Deps.carried = false; distance = Some 0 })
           f.Deps.deps)
  in
  assert_caught ~name:"cleared-carried" ~mutant_facts:mutant
    ~fwd_src:(forward stmts) ~rev_src:(reversed stmts)

(* ---- deterministic fixtures: the vectors themselves ---- *)

let test_anti_dep_vector () =
  let f = facts (forward [ "a[#] = a[# + 1] + 1.0;" ]) in
  match List.filter (fun (d : Deps.dep) -> d.Deps.kind = Deps.Anti) f.Deps.deps with
  | [ d ] ->
      Alcotest.(check bool) "carried" true d.Deps.carried;
      Alcotest.(check bool) "constant distance" true (d.Deps.distance <> None);
      Alcotest.(check bool) "not vectorizable" false f.Deps.legality.Deps.vectorizable;
      Alcotest.(check bool) "not parallelizable" false
        f.Deps.legality.Deps.parallelizable;
      Alcotest.(check bool) "peelable (distance known)" true
        f.Deps.legality.Deps.peelable;
      Alcotest.(check bool) "blocking dep named" true
        (f.Deps.legality.Deps.blocking_dep <> None)
  | deps -> Alcotest.failf "expected exactly one anti dep, got %d" (List.length deps)

let test_invariant_store_vector () =
  let f = facts (forward [ "a[0] = b[#];" ]) in
  Alcotest.(check bool) "has output self-dep" true
    (List.exists (fun (d : Deps.dep) -> d.Deps.kind = Deps.Output) f.Deps.deps);
  Alcotest.(check bool) "not peelable (unknown distance)" false
    f.Deps.legality.Deps.peelable;
  Alcotest.(check bool) "not parallelizable" false f.Deps.legality.Deps.parallelizable

let test_noalias_note_is_load_bearing () =
  let src = forward [ "a[#] = b[# + 1] + 1.0;" ] in
  let f = facts src in
  Alcotest.(check bool) "vectorizable under the driver convention" true
    f.Deps.legality.Deps.vectorizable;
  Alcotest.(check bool) "MAY_ALIAS note present" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = Diag.May_alias) f.Deps.notes);
  let g = facts ~noalias:false src in
  Alcotest.(check bool) "not parallelizable under may-alias" false
    g.Deps.legality.Deps.parallelizable

let test_interchange_fact () =
  let src =
    {|kernel nest(inp : float[], out : float[], w : int, h : int) {
  var y : int;
  var x : int;
  for (y = 0; y < h; y = y + 1) {
    for (x = 0; x < w; x = x + 1) {
      out[y * w + x] = inp[y * w + x] * 2.0;
    }
  }
}|}
  in
  let f = facts src in
  Alcotest.(check bool) "perfect row-major nest is interchangeable" true
    f.Deps.legality.Deps.interchangeable

let test_reduction_not_independent () =
  let src =
    {|kernel red(a : float[], out : float[]) {
  var i : int;
  var s : float = 0.0;
  for (i = 0; i < 16; i = i + 1) {
    s = s + a[i];
  }
  out[0] = s;
}|}
  in
  let f = facts src in
  Alcotest.(check bool) "reduction loop is parallelizable" true
    f.Deps.legality.Deps.parallelizable;
  Alcotest.(check bool) "but not iteration independent (FP reassociation)" false
    (Deps.iteration_independent f)

(* totality over the whole registry, both alias modes: a verdict or a
   structured error for every benchmark source, never an exception *)
let test_registry_total () =
  List.iter
    (fun (b : Driver.benchmark) ->
      List.iter
        (fun (vname, src) ->
          List.iter
            (fun noalias ->
              let t = Deps.analyze_src ~noalias ~name:(b.Driver.b_name ^ "/" ^ vname) src in
              Alcotest.(check bool)
                (Fmt.str "%s/%s: loops analyzed" b.Driver.b_name vname)
                true
                (t.Deps.errors <> [] || t.Deps.loops <> []))
            [ true; false ])
        b.Driver.b_sources)
    Ninja_kernels.Registry.all

let suite =
  ( "deps",
    [ QCheck_alcotest.to_alcotest prop_permutation_oracle;
      Alcotest.test_case "oracle is not vacuous" `Quick test_oracle_not_vacuous;
      Alcotest.test_case "mutation: dropped alias check is caught" `Quick
        test_mutation_dropped_alias;
      Alcotest.test_case "mutation: dropped anti deps are caught" `Quick
        test_mutation_dropped_anti;
      Alcotest.test_case "mutation: dropped output deps are caught" `Quick
        test_mutation_dropped_output;
      Alcotest.test_case "mutation: cleared carried flags are caught" `Quick
        test_mutation_cleared_carried;
      Alcotest.test_case "anti dependence vector" `Quick test_anti_dep_vector;
      Alcotest.test_case "invariant store vector" `Quick test_invariant_store_vector;
      Alcotest.test_case "may-alias note is load-bearing" `Quick
        test_noalias_note_is_load_bearing;
      Alcotest.test_case "interchange fact" `Quick test_interchange_fact;
      Alcotest.test_case "reduction is not iteration independent" `Quick
        test_reduction_not_independent;
      Alcotest.test_case "registry totality, both alias modes" `Quick
        test_registry_total ] )
