(* Auto-tuning driver: enumerate → prune → compile → verify → dedupe →
   simulate → pick, all deterministic. See tuner.mli for the contract.

   The search space is deliberately small and fixed (the paper's point is
   that a handful of traditional transformations recovers most of the
   ninja gap): per source variant, the transform menu crossed with three
   compiler-flag settings, plus a dependence-proven auto-parallelization
   setting. Unrolled candidates are only compiled scalar — the unrolled
   body defeats the vectorizer's idiom matching, and the vectorized
   search points are already covered by the untransformed candidates. *)

open Ninja_kernels
module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Ast = Ninja_lang.Ast
module Codegen = Ninja_lang.Codegen
module Transform = Ninja_lang.Transform
module Isa = Ninja_vm.Isa
module Decode = Ninja_vm.Decode
module Verify = Ninja_vm.Verify
module Json = Ninja_report.Json
module Pool = Ninja_util.Pool

type status =
  | Legal
  | Winner
  | Evaluated
  | Duplicate of int
  | Rejected of string * string
  | Cut of float

type candidate = {
  c_index : int;
  c_variant : string;
  c_vectorize : bool;
  c_parallelize : bool;
  c_autopar : bool;
  c_transform : string;
  c_status : status;
  c_cycles : float option;
}

let flags_desc ~vectorize ~parallelize ~autopar =
  if autopar then "vec+par+autopar"
  else if parallelize then "vec+par"
  else if vectorize then "vec"
  else "scalar"

let candidate_name c =
  Fmt.str "%s/%s/%s" c.c_variant
    (flags_desc ~vectorize:c.c_vectorize ~parallelize:c.c_parallelize
       ~autopar:c.c_autopar)
    c.c_transform

type decision = { d_loop : string; d_vectorized : bool; d_parallelized : bool }

type t = {
  t_bench : string;
  t_machine : string;
  t_scale : int;
  t_candidates : candidate list;
  t_winner : candidate;
  t_report : Timing.report;
  t_naive : Timing.report;
  t_ninja : Timing.report;
  t_decisions : decision list;
  t_simulated : int;
}

(* ------------------------------------------------------------------ *)
(* Enumeration                                                          *)

(* Which existing rung a variant's candidates clone their run wrappers
   (shapes, bindings, launch count, per-run prepare, output check) from.
   The rung must compile the very same source, so the wrappers are
   congruent by construction. *)
let variant_base = [ ("naive", "+parallel"); ("algo", "+algorithmic") ]

(* (vectorize, parallelize, autopar). The first three reproduce the
   ladder's own presets exactly (so identity candidates deduplicate
   against nothing but themselves and cost-match the existing rungs);
   the fourth lets the dependence engine add the pragmas itself. *)
let flag_menu =
  [ (false, false, false); (true, false, false); (true, true, false);
    (true, true, true) ]

let preset ~vec ~par =
  if not vec then Codegen.o2 else if not par then Codegen.o2_vec
  else Codegen.o2_vec_par

type spec = {
  sp_variant : string;
  sp_kernel : Ast.kernel;
  sp_step : Driver.step;
  sp_transform : Transform.t;
  sp_vec : bool;
  sp_par : bool;
  sp_auto : bool;
}

let specs ~steps (bench : Driver.benchmark) =
  List.concat_map
    (fun (variant, src) ->
      match List.assoc_opt variant variant_base with
      | None -> []
      | Some base_name -> (
          match
            List.find_opt
              (fun (s : Driver.step) -> s.step_name = base_name)
              steps
          with
          | None -> []
          | Some base ->
              let kernel = Common.parse_kernel src in
              List.concat_map
                (fun tr ->
                  List.filter_map
                    (fun (v, p, a) ->
                      match tr with
                      | Transform.Unroll _ when v || p || a -> None
                      | _ ->
                          Some
                            { sp_variant = variant; sp_kernel = kernel;
                              sp_step = base; sp_transform = tr; sp_vec = v;
                              sp_par = p; sp_auto = a })
                    flag_menu)
                Transform.menu))
    bench.b_sources

(* ------------------------------------------------------------------ *)
(* Static admission: transform, compile, verify                         *)

type built = {
  bt_fp : string;  (* the unoptimized decode's fingerprint: dedupe and store key *)
  bt_step : Driver.step;
  bt_kernel : Ast.kernel;
  bt_vec_report : (string * Codegen.vec_outcome) list;
}

let build ~machine i sp =
  let cand status =
    { c_index = i; c_variant = sp.sp_variant; c_vectorize = sp.sp_vec;
      c_parallelize = sp.sp_par; c_autopar = sp.sp_auto;
      c_transform = Transform.name sp.sp_transform; c_status = status;
      c_cycles = None }
  in
  match Transform.apply sp.sp_transform sp.sp_kernel with
  | Error msg -> (cand (Rejected ("TUNE_NOT_APPLICABLE", msg)), None)
  | Ok k -> (
      let k = if sp.sp_auto then fst (Transform.add_parallel_pragmas k) else k in
      let flags =
        { (preset ~vec:sp.sp_vec ~par:sp.sp_par) with
          Codegen.fma = machine.Machine.fma_native }
      in
      match Codegen.compile ~flags k with
      | exception Codegen.Compile_error msg ->
          (cand (Rejected ("TUNE_COMPILE_ERROR", msg)), None)
      | exception Failure msg ->
          (cand (Rejected ("TUNE_COMPILE_ERROR", msg)), None)
      | res -> (
          let prog = res.Codegen.program in
          (* Candidates launch as many modeled threads as the compiled
             program actually needs — derived from the program, not from
             the flag, so a parallelize-flagged candidate whose loops
             stayed sequential is simulated (and priced) sequentially. *)
          let step =
            { sp.sp_step with Driver.step_name = "tuned";
              parallel = Isa.has_par_phase prog;
              make = (fun ~machine:_ -> prog) }
          in
          match Driver.verify_step ~machine step with
          | [] ->
              ( cand Legal,
                Some
                  { bt_fp = Decode.fingerprint (Decode.decode prog);
                    bt_step = step; bt_kernel = k;
                    bt_vec_report = res.Codegen.vec_report } )
          | issue :: _ as issues ->
              let detail =
                Fmt.str "%d issue(s), first: %a" (List.length issues)
                  Verify.pp_issue issue
              in
              (cand (Rejected ("TUNE_VERIFY_FAILED", detail)), None)))

(* Keep the earliest candidate per decoded-program fingerprint; later
   twins are never simulated separately. *)
let dedupe pairs =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (c, b) ->
      match b with
      | None -> (c, None)
      | Some bt -> (
          match Hashtbl.find_opt seen bt.bt_fp with
          | Some j -> ({ c with c_status = Duplicate j }, None)
          | None ->
              Hashtbl.add seen bt.bt_fp c.c_index;
              (c, Some bt)))
    pairs

let admit ?(domains = 1) ~machine ~steps bench =
  let sps = specs ~steps bench in
  let indexed = List.mapi (fun i sp -> (i, sp)) sps in
  dedupe (Pool.map_list ~domains (fun (i, sp) -> build ~machine i sp) indexed)

let plan ~machine ~steps bench = List.map fst (admit ~machine ~steps bench)

let candidate_steps ~machine ~steps bench =
  List.map
    (fun (c, bt) -> (c, Option.map (fun bt -> bt.bt_step) bt))
    (admit ~machine ~steps bench)

(* ------------------------------------------------------------------ *)
(* Evaluation by simulated time                                         *)

(* [fp] is the program's decode fingerprint (see [built]). *)
let store_key st ~machine ~step_name fp =
  let backend = Ninja_vm.Interp.strategy_tag (Ninja_vm.Interp.default_strategy ()) in
  Store.key_of_fingerprint ~backend st ~machine ~step_name fp

(* [sims] counts evaluations that actually ran (store misses) — the
   basis of [t_simulated]; atomic because candidates evaluate on the
   pool. Returns the report and, with a store, its key. [cost_class]
   (default [step_name]) is the costs.json class the simulation's wall
   time is filed under; it is not part of the key. *)
let simulate ~sims ?store ~machine ~step_name ?(cost_class = step_name) step fp =
  match store with
  | None ->
      Atomic.incr sims;
      (Driver.run_step ~machine step, None)
  | Some st ->
      let key = store_key st ~machine ~step_name fp in
      let r =
        match Store.load st ~key ~machine with
        | Some r -> r
        | None ->
            Atomic.incr sims;
            let t0 = Unix.gettimeofday () in
            let r = Driver.run_step ~machine step in
            Store.save st ~key ~machine ~step_name:cost_class
              ~cost_s:(Unix.gettimeofday () -. t0)
              r;
            r
      in
      (r, Some key)

(* What simulating a candidate under a cycle cap established: its full
   report, or that it models more than [Above]'s bound. *)
type outcome = Full of Timing.report | Above of float

(* A bounded evaluation's outcome is kept as a derived entry under the
   candidate's ["tuned"] key. A stored [Above c] settles any cap up to
   [c]; one below this session's cap proves too little, so the decoder
   refuses it like a corrupt entry and the bounded run is redone. *)
let bound_kind = "bound/v1"

let outcome_to_json = function
  | Full r -> Json.Obj [ ("report", Store.report_to_json r) ]
  | Above c -> Json.Obj [ ("cut_above", Json.Num c) ]

let outcome_of_json ~machine ~cap j =
  match j with
  | Json.Obj [ ("report", r) ] -> Full (Store.report_of_json ~machine r)
  | Json.Obj [ ("cut_above", Json.Num c) ] when c >= cap -> Above c
  | Json.Obj [ ("cut_above", Json.Num _) ] -> failwith "Tuner: bound below the cap"
  | _ -> failwith "Tuner: malformed bound entry"

(* Simulate [step] under [cap]; with a store, the outcome goes through
   the [bound_kind] entry (the wall time still lands in costs.json's
   ["tuned candidate"] class). [key] is the candidate's ["tuned"] key. *)
let simulate_bounded ~sims ?store ~machine ~cap step fp =
  let run () =
    Atomic.incr sims;
    match Driver.run_step ~max_cycles:cap ~machine step with
    | r -> Full r
    | exception Timing.Exceeds -> Above cap
  in
  match store with
  | None -> (run (), None)
  | Some st ->
      let key = store_key st ~machine ~step_name:"tuned" fp in
      let timed () =
        let t0 = Unix.gettimeofday () in
        let o = run () in
        Store.record_cost st ~step_name:"tuned candidate"
          ~cost_s:(Unix.gettimeofday () -. t0);
        o
      in
      ( Store.derived st ~key ~kind:bound_kind ~encode:outcome_to_json
          ~decode:(outcome_of_json ~machine ~cap) timed,
        Some key )

(* A winner's validation verdict is as deterministic as its report, so
   with a store it is kept as a derived entry under the candidate's
   ["tuned"] report key. Bump [check_kind] whenever a benchmark's output
   check or dataset changes. *)
let check_kind = "check/v1"

let verdict_to_json = function
  | Ok () -> Json.Obj [ ("ok", Json.Bool true) ]
  | Error msg -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let verdict_of_json j =
  match (Json.member "ok" j, Json.member "error" j) with
  | Some (Json.Bool true), None -> Ok ()
  | Some (Json.Bool false), Some (Json.Str msg) -> Error msg
  | _ -> failwith "Tuner: malformed check verdict"

let validate ?store ~machine key step =
  let check () = Driver.validate_step ~machine step in
  match (store, key) with
  | Some st, Some key ->
      Store.derived st ~key ~kind:check_kind ~encode:verdict_to_json
        ~decode:verdict_of_json check
  | _ -> check ()

(* Every loop label in the kernel, outermost first, encounter order —
   the rows of the per-loop decision table. *)
let rec loop_labels (b : Ast.block) =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.For loop -> Transform.loop_label loop :: loop_labels loop.body
      | Ast.If (_, th, el) -> loop_labels th @ loop_labels el
      | Ast.While (_, body) -> loop_labels body
      | Ast.Decl _ | Ast.Assign _ | Ast.Store _ -> [])
    b

let decisions (c : candidate) bt =
  let par_labels =
    if c.c_parallelize then Transform.parallel_labels bt.bt_kernel else []
  in
  let vectorized label =
    c.c_vectorize
    &&
    match List.assoc_opt label bt.bt_vec_report with
    | Some Codegen.Vectorized -> true
    | Some (Codegen.Scalar _) -> false
    | None -> (
        (* A parallelized loop is rewritten into per-thread chunk loops
           before vectorization, so its report entry carries rewritten
           bounds ([for(i=__my_lo;i<__my_hi)]) — match on the index. *)
        match String.index_opt label '=' with
        | None -> false
        | Some eq -> (
            let prefix = String.sub label 0 (eq + 1) in
            match
              List.find_opt
                (fun (l, _) -> String.starts_with ~prefix l)
                bt.bt_vec_report
            with
            | Some (_, Codegen.Vectorized) -> true
            | Some (_, Codegen.Scalar _) | None -> false))
  in
  List.map
    (fun label ->
      { d_loop = label; d_vectorized = vectorized label;
        d_parallelized = List.mem label par_labels })
    (loop_labels bt.bt_kernel.Ast.body)

let tune ?(domains = 1) ?store ?run_rung ~machine ~scale ~steps
    (bench : Driver.benchmark) =
  let t0 = Unix.gettimeofday () in
  let sims = Atomic.make 0 in
  let admitted = admit ~domains ~machine ~steps bench in
  let threaded, others =
    List.partition (fun (c, bt) -> c.c_parallelize && Option.is_some bt) admitted
  in
  let evaluate f =
    Pool.map_list ~domains (fun (c, bt) ->
        match bt with None -> (c, None) | Some bt -> (c, Some (bt, f bt)))
  in
  (* Stage 1: every candidate compiled with threading, in full. Their
     slowest report is the cap. *)
  let stage1 =
    evaluate
      (fun bt ->
        let r, key =
          simulate ~sims ?store ~machine ~step_name:"tuned"
            ~cost_class:"tuned candidate" bt.bt_step bt.bt_fp
        in
        (Full r, key))
      threaded
  in
  let cap =
    match stage1 with
    | [] -> Float.infinity
    | _ ->
        List.fold_left
          (fun acc (_, e) ->
            match e with
            | Some (_, (Full r, _)) -> Float.max acc r.Timing.cycles
            | _ -> acc)
          Float.neg_infinity stage1
  in
  (* Stage 2: everything else, each stopped as soon as it provably models
     more cycles than the cap — slower than every stage-1 candidate. *)
  let stage2 =
    evaluate
      (fun bt -> simulate_bounded ~sims ?store ~machine ~cap bt.bt_step bt.bt_fp)
      others
  in
  let evaluated =
    List.sort (fun (c1, _) (c2, _) -> Int.compare c1.c_index c2.c_index) (stage1 @ stage2)
  in
  (* Ranked: candidates known to model at most [cap] cycles. Above: the
     rest, which lose to every stage-1 candidate. A stored full report
     over the cap counts as above too, so statuses do not depend on what
     earlier sessions left in the store. *)
  let ranked, above =
    List.filter_map
      (fun (c, e) -> Option.map (fun (bt, (o, key)) -> (c, bt, o, key)) e)
      evaluated
    |> List.partition_map (function
         | c, bt, Full r, key when r.Timing.cycles <= cap -> Either.Left (c, bt, r, key)
         | above -> Either.Right above)
  in
  let rank =
    List.stable_sort (fun (c1, _, r1, _) (c2, _, r2, _) ->
        match Float.compare r1.Timing.cycles r2.Timing.cycles with
        | 0 -> Int.compare c1.c_index c2.c_index
        | n -> n)
  in
  (* The cheapest simulated candidate must also reproduce the reference
     output on the host interpreter; a winner that does not is rejected
     and the next-best candidate is validated instead. *)
  let rec pick rejected = function
    | [] -> Error rejected
    | (c, bt, r, key) :: rest -> (
        match validate ?store ~machine key bt.bt_step with
        | Ok () -> Ok (c, bt, r, rejected)
        | Error msg -> pick ((c.c_index, msg) :: rejected) rest)
  in
  (* Only when every candidate within the cap fails validation can an
     above-cap one win: then they are simulated in full (their reports
     stored like any other candidate's) and the pick goes on, so the
     winner is always the one exhaustive evaluation picks. *)
  let resolve (c, bt, o, key) =
    match o with
    | Full r -> (c, bt, r, key)
    | Above _ ->
        let r, key =
          simulate ~sims ?store ~machine ~step_name:"tuned"
            ~cost_class:"tuned candidate" bt.bt_step bt.bt_fp
        in
        (c, bt, r, key)
  in
  let (wc, wbt, wr, check_rejected), known =
    match pick [] (rank ranked) with
    | Ok w -> (w, ranked)
    | Error rejected -> (
        let resolved = Pool.map_list ~domains resolve above in
        match pick rejected (rank resolved) with
        | Ok w -> (w, ranked @ resolved)
        | Error _ ->
            failwith ("Tuner: no functionally valid candidate for " ^ bench.b_name))
  in
  let candidates =
    List.map
      (fun (c, e) ->
        let cycles =
          List.find_map
            (fun (k, _, r, _) ->
              if k.c_index = c.c_index then Some r.Timing.cycles else None)
            known
        in
        let c = { c with c_cycles = cycles } in
        match (e, cycles) with
        | None, _ -> c
        | Some _, None -> { c with c_status = Cut cap }
        | Some _, Some _ ->
            if c.c_index = wc.c_index then { c with c_status = Winner }
            else
              match List.assoc_opt c.c_index check_rejected with
              | Some msg -> { c with c_status = Rejected ("TUNE_CHECK_FAILED", msg) }
              | None -> { c with c_status = Evaluated })
      evaluated
  in
  let run_rung =
    match run_rung with
    | Some f -> f
    | None -> (
        fun name ->
          match
            List.find_opt (fun (s : Driver.step) -> s.Driver.step_name = name) steps
          with
          | None -> invalid_arg ("Tuner: benchmark has no ladder step " ^ name)
          | Some step ->
              fst
                (simulate ~sims ?store ~machine ~step_name:name step
                   (Decode.fingerprint (Decode.decode (step.Driver.make ~machine)))))
  in
  let naive = run_rung "naive serial" in
  let ninja = run_rung "ninja" in
  (* The scheduler reads the "tuned" cost class as one whole session
     (Jobs.estimate); a session the store served entirely ran nothing
     worth timing. *)
  (match store with
  | Some st when Atomic.get sims > 0 ->
      Store.record_cost st ~step_name:"tuned" ~cost_s:(Unix.gettimeofday () -. t0)
  | _ -> ());
  { t_bench = bench.b_name; t_machine = machine.Machine.name; t_scale = scale;
    t_candidates = candidates;
    t_winner = { wc with c_status = Winner; c_cycles = Some wr.Timing.cycles };
    t_report = wr; t_naive = naive; t_ninja = ninja;
    t_decisions = decisions wc wbt; t_simulated = Atomic.get sims }

(* ------------------------------------------------------------------ *)
(* Derived metrics                                                      *)

let speedup_vs_naive t = Timing.speedup ~baseline:t.t_naive t.t_report
let ratio_vs_ninja t = t.t_report.Timing.seconds /. t.t_ninja.Timing.seconds

let gap_closed t =
  let n = t.t_naive.Timing.seconds in
  let j = t.t_ninja.Timing.seconds in
  let u = t.t_report.Timing.seconds in
  let denom = n -. j in
  if denom <= 0. then 1.0 else Float.min 1.0 (Float.max 0.0 ((n -. u) /. denom))

let counts t =
  List.fold_left
    (fun (e, v, d, r) c ->
      match c.c_status with
      | Winner | Evaluated | Cut _ -> (e + 1, v + 1, d, r)
      | Duplicate _ -> (e + 1, v, d + 1, r)
      | Rejected _ -> (e + 1, v, d, r + 1)
      | Legal -> (e + 1, v, d, r))
    (0, 0, 0, 0) t.t_candidates

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let to_json t =
  let w = t.t_winner in
  let num x = Json.Num x in
  let int n = Json.Num (float_of_int n) in
  let enumerated, evaluated, duplicates, rejected = counts t in
  Json.Obj
    [ ("schema", Json.Str "ninja-tune/v1");
      ("benchmark", Json.Str t.t_bench);
      ("machine", Json.Str t.t_machine);
      ("scale", int t.t_scale);
      ( "winner",
        Json.Obj
          [ ("candidate", Json.Str (candidate_name w));
            ("variant", Json.Str w.c_variant);
            ("vectorize", Json.Bool w.c_vectorize);
            ("parallelize", Json.Bool w.c_parallelize);
            ("autopar", Json.Bool w.c_autopar);
            ("transform", Json.Str w.c_transform);
            ("cycles", num t.t_report.Timing.cycles) ] );
      ("naive_cycles", num t.t_naive.Timing.cycles);
      ("ninja_cycles", num t.t_ninja.Timing.cycles);
      ("speedup_vs_naive", num (speedup_vs_naive t));
      ("ratio_vs_ninja", num (ratio_vs_ninja t));
      ("gap_closed", num (gap_closed t));
      ( "decisions",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [ ("loop", Json.Str d.d_loop);
                   ("vectorized", Json.Bool d.d_vectorized);
                   ("parallelized", Json.Bool d.d_parallelized) ])
             t.t_decisions) );
      ( "candidates",
        Json.Obj
          [ ("enumerated", int enumerated); ("evaluated", int evaluated);
            ("duplicates", int duplicates); ("rejected", int rejected) ] );
      ( "rejected",
        Json.List
          (List.filter_map
             (fun c ->
               match c.c_status with
               | Rejected (code, detail) ->
                   Some
                     (Json.Obj
                        [ ("candidate", Json.Str (candidate_name c));
                          ("reason", Json.Str code);
                          ("detail", Json.Str detail) ])
               | _ -> None)
             t.t_candidates) ) ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let pp_status ppf = function
  | Legal -> Fmt.string ppf "legal"
  | Winner -> Fmt.string ppf "WINNER"
  | Evaluated -> Fmt.string ppf "evaluated"
  | Duplicate i -> Fmt.pf ppf "duplicate of #%d" i
  | Rejected (code, detail) -> Fmt.pf ppf "rejected %s: %s" code detail
  | Cut b -> Fmt.pf ppf "cut above %.3f Mcycles" (b /. 1e6)

let pp ppf t =
  let enumerated, evaluated, duplicates, rejected = counts t in
  Fmt.pf ppf "TUNE %s on %s (scale %d)@." t.t_bench t.t_machine t.t_scale;
  Fmt.pf ppf "  winner %s: %.3f Mcycles (%.2fx vs naive serial, %.2fx of ninja, gap closed %.0f%%)@."
    (candidate_name t.t_winner)
    (t.t_report.Timing.cycles /. 1e6)
    (speedup_vs_naive t) (ratio_vs_ninja t)
    (100. *. gap_closed t);
  List.iter
    (fun d ->
      Fmt.pf ppf "  loop %s: %s, %s@." d.d_loop
        (if d.d_vectorized then "vectorized" else "scalar")
        (if d.d_parallelized then "parallelized" else "serial"))
    t.t_decisions;
  let cut =
    List.filter_map
      (fun c -> match c.c_status with Cut b -> Some b | _ -> None)
      t.t_candidates
  in
  let pp_cut ppf = function
    | [] -> ()
    | b :: _ as cut ->
        Fmt.pf ppf " (%d cut above %.3f Mcycles)" (List.length cut) (b /. 1e6)
  in
  Fmt.pf ppf "  candidates: %d enumerated, %d evaluated%a, %d duplicates, %d rejected@."
    enumerated evaluated pp_cut cut duplicates rejected;
  List.iter
    (fun c ->
      match c.c_status with
      | Rejected (code, detail) ->
          Fmt.pf ppf "  rejected %s — %s: %s@." (candidate_name c) code detail
      | _ -> ())
    t.t_candidates

let pp_plan ppf cands =
  List.iter
    (fun c ->
      Fmt.pf ppf "  #%02d %-32s %a@." c.c_index (candidate_name c) pp_status
        c.c_status)
    cands
