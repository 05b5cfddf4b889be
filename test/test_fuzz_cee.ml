(* Fuzzing the Cee front end with token-level mutations of the real
   benchmark sources.

   Every mutant of every registry source must flow through the structured
   pipeline — [Parser.parse_kernel_diag], [Check.check_kernel_diag],
   [Codegen.compile], [Optreport.analyze_src] — and either produce a
   program (identically when compiled twice: the front end is
   deterministic) or fail with a structured [Diag.t] whose span points
   into the source. No input may escape as an unexpected exception:
   [Codegen.Compile_error] is the one documented raising edge, and even it
   must be deterministic.

   Mutants that survive to a compiled program additionally run through
   the closure-compiling [Interp.Compiled] backend, which must behave
   bit-identically to the tree walker (values, traps, events, traces,
   final registers and memory) on every survivor. *)

module Parser = Ninja_lang.Parser
module Check = Ninja_lang.Check
module Codegen = Ninja_lang.Codegen
module Diag = Ninja_lang.Diag
module Optreport = Ninja_lang.Optreport
module Deps = Ninja_lang.Deps
module Registry = Ninja_kernels.Registry
module Driver = Ninja_kernels.Driver
module Isa = Ninja_vm.Isa
module Interp = Ninja_vm.Interp
module Memory = Ninja_vm.Memory
module Trace = Ninja_vm.Trace

(* ---- corpus: every Cee variant of every registered benchmark ---- *)

let corpus =
  Registry.all
  |> List.concat_map (fun (b : Driver.benchmark) ->
         List.map
           (fun (variant, src) -> (b.Driver.b_name ^ "/" ^ variant, src))
           b.Driver.b_sources)
  |> Array.of_list

(* ---- token-level mutation ----

   The source is split into a flat token sequence (identifiers/numbers,
   two-character operators and comment delimiters, single punctuation
   characters) with newlines kept as explicit tokens, so a mutated program
   retains its line structure and diagnostics still have meaningful spans
   to point at. Mutations touch only non-newline tokens. *)

let is_word c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let two_char_ops = [ "<="; ">="; "=="; "!="; "&&"; "||"; "//"; "/*"; "*/" ]

let split_tokens src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      toks := "\n" :: !toks;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_word c then begin
      let j = ref !i in
      while !j < n && is_word src.[!j] do
        incr j
      done;
      toks := String.sub src !i (!j - !i) :: !toks;
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      if List.mem two two_char_ops then begin
        toks := two :: !toks;
        i := !i + 2
      end
      else begin
        toks := String.make 1 c :: !toks;
        incr i
      end
    end
  done;
  Array.of_list (List.rev !toks)

let join_tokens toks =
  let b = Buffer.create 256 in
  Array.iter
    (fun t ->
      if t = "\n" then Buffer.add_char b '\n'
      else begin
        Buffer.add_string b t;
        Buffer.add_char b ' '
      end)
    toks;
  Buffer.contents b

(* replacement vocabulary: structure, operators, keywords, literals *)
let spice =
  [| "("; ")"; "{"; "}"; "["; "]"; ";"; ","; ":"; "+"; "-"; "*"; "/"; "%";
     "<"; "<="; "=="; "!="; "="; "&&"; "||"; "!"; "0"; "1"; "42"; "3.5";
     "x"; "i"; "float"; "int"; "kernel"; "for"; "if"; "else"; "while";
     "pragma"; "parallel"; "simd"; "/*"; "*/"; "//" |]

let keywords =
  [ "kernel"; "for"; "if"; "else"; "while"; "pragma"; "parallel"; "simd";
    "float"; "int"; "return" ]

let is_number t = t <> "" && (t.[0] >= '0' && t.[0] <= '9')

let is_plain_ident t =
  t <> ""
  && ((t.[0] >= 'a' && t.[0] <= 'z') || (t.[0] >= 'A' && t.[0] <= 'Z') || t.[0] = '_')
  && (not (List.mem t keywords))

let arith_ops = [| "+"; "-"; "*"; "/"; "%" |]
let cmp_ops = [| "<"; "<="; ">"; ">="; "=="; "!=" |]

(* one mutation, directed by [next]; newline tokens are left alone so the
   mutant keeps its line numbering. Half the modes are structure-breaking
   (delete/duplicate/swap/splice), half are shape-preserving substitutions
   (identifier for identifier, number for number, operator for operator)
   so a useful share of mutants survives the parser and reaches the type
   checker and code generator. *)
let mutate_once next toks =
  let n = Array.length toks in
  if n = 0 then toks
  else begin
    let editable = ref [] in
    Array.iteri (fun i t -> if t <> "\n" then editable := i :: !editable) toks;
    let replace_same_class pred fallback =
      let pool = ref [] in
      Array.iteri (fun i t -> if pred t then pool := i :: !pool) toks;
      match !pool with
      | [] -> fallback ()
      | pool ->
          let pool = Array.of_list pool in
          let at = pool.(next () mod Array.length pool) in
          let other = pool.(next () mod Array.length pool) in
          let c = Array.copy toks in
          c.(at) <- toks.(other);
          c
    in
    match !editable with
    | [] -> toks
    | idxs ->
        let idxs = Array.of_list idxs in
        let at = idxs.(next () mod Array.length idxs) in
        (match next () mod 9 with
        | 0 ->
            (* delete *)
            Array.append (Array.sub toks 0 at)
              (Array.sub toks (at + 1) (n - at - 1))
        | 1 ->
            (* duplicate *)
            Array.concat
              [ Array.sub toks 0 (at + 1); [| toks.(at) |];
                Array.sub toks (at + 1) (n - at - 1) ]
        | 2 ->
            (* swap with another editable token *)
            let other = idxs.(next () mod Array.length idxs) in
            let c = Array.copy toks in
            let tmp = c.(at) in
            c.(at) <- c.(other);
            c.(other) <- tmp;
            c
        | 3 ->
            (* replace with vocabulary token *)
            let c = Array.copy toks in
            c.(at) <- spice.(next () mod Array.length spice);
            c
        | 4 ->
            (* insert a vocabulary token *)
            Array.concat
              [ Array.sub toks 0 at;
                [| spice.(next () mod Array.length spice) |];
                Array.sub toks at (n - at) ]
        | 5 | 6 ->
            (* identifier for identifier: parses, may mistype *)
            replace_same_class is_plain_ident (fun () -> toks)
        | 7 ->
            (* number for number, or a fresh literal *)
            replace_same_class is_number (fun () -> toks)
        | _ ->
            (* operator for operator of the same family *)
            let fam = if next () mod 2 = 0 then arith_ops else cmp_ops in
            let pool = ref [] in
            Array.iteri (fun i t -> if Array.exists (( = ) t) fam then pool := i :: !pool) toks;
            (match !pool with
            | [] -> toks
            | pool ->
                let pool = Array.of_list pool in
                let at = pool.(next () mod Array.length pool) in
                let c = Array.copy toks in
                c.(at) <- fam.(next () mod Array.length fam);
                c))
  end

let build_mutant seed =
  let seed = if Array.length seed = 0 then [| 0 |] else seed in
  let cur = ref 0 in
  let next () =
    let v = seed.(!cur mod Array.length seed) in
    incr cur;
    abs v
  in
  let name, src = corpus.(next () mod Array.length corpus) in
  let toks = ref (split_tokens src) in
  for _ = 1 to 1 + (next () mod 3) do
    toks := mutate_once next !toks
  done;
  let flags =
    match next () mod 3 with
    | 0 -> Codegen.o2
    | 1 -> Codegen.o2_vec
    | _ -> Codegen.o2_vec_par
  in
  (name, join_tokens !toks, flags)

(* ---- the pipeline under test ---- *)

let count_lines src =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 src

(* A span is valid when it names a real line range of the source. The
   unknown span [Diag.no_span] is not accepted from the front end: a
   parser or checker rejection must point somewhere. *)
let span_ok ~nlines (s : Diag.span) =
  s.Diag.first_line >= 1
  && s.Diag.first_line <= s.Diag.last_line
  && s.Diag.last_line <= nlines + 1

(* What one pipeline run observed; [compare]d across two runs for
   determinism. Programs and vec-reports are plain data, so polymorphic
   compare is exact. *)
type run =
  | Syntax_rejected of Diag.t
  | Type_rejected of Diag.t
  | Compile_rejected of string
  | Compiled of Codegen.result

let run_pipeline ~flags src =
  match Parser.parse_kernel_diag src with
  | Error d -> Syntax_rejected d
  | Ok kernel -> (
      match Check.check_kernel_diag kernel with
      | Error d -> Type_rejected d
      | Ok () -> (
          match Codegen.compile ~flags kernel with
          | r -> Compiled r
          | exception Codegen.Compile_error m -> Compile_rejected m))

(* ---- surviving mutants through the compiled backend ----

   A mutant that still compiles is exactly the odd-shaped input the
   closure compiler never sees from the curated registry: shifted
   constants (and with them different immediate operands), duplicated
   statements, swapped operators. Each survivor's program is executed
   under the tree walker and the compiled backend against the same
   deterministic buffers, and everything observable — result, counts,
   trap message, memory events, profiling trace, final registers, final
   memory — must match. *)

let survivor_bindings (prog : Isa.program) =
  (* fixed-size deterministic buffers; mutants that index past 64
     elements trap, and the trap must be identical either way *)
  let n = 64 in
  Array.to_list prog.Isa.buffers
  |> List.mapi (fun i (b : Isa.buffer_decl) ->
         ( b.Isa.buf_name,
           match b.Isa.elt with
           | Isa.F32 ->
               Memory.Fbuf
                 (Array.init n (fun j ->
                      float_of_int (((i + 1) * 37) + j) /. 8.))
           | Isa.I32 -> Memory.Ibuf (Array.init n (fun j -> (i + j) mod n)) ))

let copy_state (t : Interp.thread_state) =
  {
    Interp.si = Array.copy t.Interp.si;
    sf = Array.copy t.Interp.sf;
    vf = Array.map Array.copy t.Interp.vf;
    vi = Array.map Array.copy t.Interp.vi;
    vm = Array.map Array.copy t.Interp.vm;
  }

(* everything one strategy observed; [compare]d across strategies
   (polymorphic compare, so NaN lanes still count as equal) *)
let survivor_observe ~strategy ~tracing (prog : Isa.program) =
  let bufs = survivor_bindings prog in
  let mem = Memory.create prog bufs in
  let events = ref [] in
  let trace = ref [] in
  let tracer =
    if tracing then Some (fun ev -> trace := Fmt.str "%a" Trace.pp ev :: !trace)
    else None
  in
  let states = ref [||] in
  let outcome =
    match
      Interp.run ~n_threads:2 ~width:4 ~fuel:100_000
        ~sink:(fun e -> events := e :: !events)
        ?trace:tracer
        ~on_states:(fun s -> states := Array.map copy_state s)
        ~strategy prog mem
    with
    | r -> Ok (r.Interp.instructions, r.Interp.counts)
    | exception Memory.Trap m -> Error ("trap: " ^ m)
    | exception Invalid_argument m -> Error ("invalid: " ^ m)
  in
  (outcome, List.rev !events, List.rev !trace, !states, bufs)

let check_compiled_agrees name (prog : Isa.program) =
  List.iter
    (fun tracing ->
      let reference = survivor_observe ~strategy:Interp.Tree ~tracing prog in
      let compiled = survivor_observe ~strategy:Interp.Compiled ~tracing prog in
      if compare reference compiled <> 0 then
        QCheck.Test.fail_reportf
          "%s: compiled backend diverged from the tree walker (tracing %b)" name
          tracing)
    [ false; true ]

let mutant_arb =
  QCheck.make
    ~print:(fun seed ->
      let name, src, _ = build_mutant seed in
      Fmt.str "%s:@.%s" name src)
    ~shrink:QCheck.Shrink.array
    QCheck.Gen.(array_size (3 -- 32) (int_bound 1_000_000))

let prop_mutants_never_escape =
  QCheck.Test.make ~count:500
    ~name:"mutated sources: structured diagnostics or deterministic codegen, never an escape"
    mutant_arb
    (fun seed ->
      let name, src, flags = build_mutant seed in
      let nlines = count_lines src in
      let a =
        try run_pipeline ~flags src
        with e ->
          QCheck.Test.fail_reportf "%s: escaping exception %s" name
            (Printexc.to_string e)
      in
      let b = run_pipeline ~flags src in
      if compare a b <> 0 then
        QCheck.Test.fail_reportf "%s: pipeline is not deterministic" name
      else begin
        (match a with
        | Syntax_rejected d ->
            if d.Diag.code <> Diag.Syntax then
              QCheck.Test.fail_reportf "%s: parser diag code %s" name
                (Diag.code_name d.Diag.code);
            if not (span_ok ~nlines d.Diag.span) then
              QCheck.Test.fail_reportf "%s: parser diag span %a out of range" name
                Diag.pp_span d.Diag.span
        | Type_rejected d ->
            if d.Diag.code <> Diag.Type_error then
              QCheck.Test.fail_reportf "%s: checker diag code %s" name
                (Diag.code_name d.Diag.code)
        | Compile_rejected _ -> ()
        | Compiled r ->
            (* the surviving mutant also runs compiled: same behavior,
               never divergence *)
            check_compiled_agrees name r.Codegen.program);
        (* the opt-report replays the same analyses and must also never
           raise, and render deterministically *)
        let report () = Fmt.str "%a" Optreport.pp (Optreport.analyze_src ~name src) in
        let r1 = try report () with e ->
          QCheck.Test.fail_reportf "%s: Optreport raised %s" name (Printexc.to_string e)
        in
        if r1 <> report () then
          QCheck.Test.fail_reportf "%s: opt-report is not deterministic" name;
        (* so must the dependence engine: a verdict or a structured Diag
           for every parser-accepted program, in both alias modes, and its
           JSON export must render *)
        (match Parser.parse_kernel_diag src with
        | Error _ -> ()
        | Ok kernel ->
            List.iter
              (fun noalias ->
                match Deps.analyze ~noalias kernel with
                | t ->
                    ignore
                      (Ninja_report.Json.to_string (Deps.to_json t) : string)
                | exception e ->
                    QCheck.Test.fail_reportf
                      "%s: Deps.analyze (noalias=%b) raised %s" name noalias
                      (Printexc.to_string e))
              [ true; false ]);
        true
      end)

(* ---- the unmutated corpus is the control group: every source must
   compile cleanly and deterministically at full optimization ---- *)

let test_corpus_compiles () =
  Array.iter
    (fun (name, src) ->
      match run_pipeline ~flags:Codegen.o2_vec_par src with
      | Compiled r1 -> (
          match run_pipeline ~flags:Codegen.o2_vec_par src with
          | Compiled r2 when compare r1 r2 = 0 -> ()
          | _ -> Alcotest.failf "%s: non-deterministic compile" name)
      | Syntax_rejected d | Type_rejected d ->
          Alcotest.failf "%s: rejected: %s" name (Diag.to_string d)
      | Compile_rejected m -> Alcotest.failf "%s: compile error: %s" name m)
    corpus

let test_mutation_mix () =
  (* deterministic sweep: the mutator must actually produce both broken
     sources (structured rejections) and still-compiling ones, or the
     property above would be vacuous *)
  let lcg = ref 12345 in
  let rand () =
    lcg := ((!lcg * 1103515245) + 12321) land 0x3FFFFFFF;
    !lcg
  in
  let syntax = ref 0 and typed = ref 0 and cerr = ref 0 and ok = ref 0 in
  for _ = 1 to 400 do
    let seed = Array.init (3 + (rand () mod 30)) (fun _ -> rand ()) in
    let _, src, flags = build_mutant seed in
    match run_pipeline ~flags src with
    | Syntax_rejected d ->
        incr syntax;
        Alcotest.(check bool)
          (Fmt.str "syntax diag has a source span (%s)" (Diag.to_string d))
          true
          (span_ok ~nlines:(count_lines src) d.Diag.span)
    | Type_rejected _ -> incr typed
    | Compile_rejected _ -> incr cerr
    | Compiled _ -> incr ok
  done;
  let show = Fmt.str "syntax %d / type %d / compile-err %d / ok %d" !syntax !typed !cerr !ok in
  Alcotest.(check bool) ("mutants get rejected: " ^ show) true (!syntax > 20);
  Alcotest.(check bool) ("mutants still compile: " ^ show) true (!ok > 20)

let test_corpus_compiled_agrees () =
  (* control group for the mutant check above: every unmutated source,
     compiled at full optimization, behaves identically under both
     backends *)
  Array.iter
    (fun (name, src) ->
      match run_pipeline ~flags:Codegen.o2_vec_par src with
      | Compiled r -> check_compiled_agrees name r.Codegen.program
      | Syntax_rejected _ | Type_rejected _ | Compile_rejected _ ->
          Alcotest.failf "%s: corpus source no longer compiles" name)
    corpus

let test_corpus_nonempty () =
  (* ten benchmarks, each with at least a naive and a ninja-adjacent
     variant; the fuzzer needs a real corpus to chew on *)
  Alcotest.(check bool) "at least 10 sources" true (Array.length corpus >= 10)

let suite =
  ( "fuzz-cee",
    [ Alcotest.test_case "corpus is present" `Quick test_corpus_nonempty;
      Alcotest.test_case "mutation mix rejects and compiles" `Quick test_mutation_mix;
      Alcotest.test_case "corpus compiles deterministically" `Quick test_corpus_compiles;
      Alcotest.test_case "compiled backend agrees on the corpus" `Quick
        test_corpus_compiled_agrees;
      QCheck_alcotest.to_alcotest prop_mutants_never_escape ] )
