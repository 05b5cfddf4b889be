(* Differential properties for the fast paths introduced alongside the
   self-benchmark:

   - random verifier-clean programs run under both execution strategies
     ([Tree] vs [Compiled config]) must agree on every observable: final
     register files, memory, per-thread instruction counts, the
     memory-access event stream, the profiling trace, and — for programs
     that fault — the trap message and the memory state at the fault;
   - the cache and hierarchy fast layouts ([~fast_path:true], the default)
     must produce access-by-access identical outcomes and end-of-run
     counters to the reference layouts, including evictions, dirty lines
     and write-back drains. *)

open Ninja_vm
module Machine = Ninja_arch.Machine
module Cache = Ninja_arch.Cache
module Hierarchy = Ninja_arch.Hierarchy

(* ------------------------------------------------------------------ *)
(* Random verifier-clean programs.

   A program is built from an array of random naturals consumed round-robin
   by [next]. All register destinations come from small per-file pools that
   are (re)initialized at the top of every phase, so def-before-use and the
   SPMD discipline hold by construction; every memory index is clamped with
   a power-of-two mask before use, so the verifier's interval analysis
   proves every access in bounds. Shrinking the seed array shrinks the
   program. *)

let data_len = 64 (* "data" (floats) and "idxs" (ints) buffer length *)
let index_mask = 31 (* clamped base + widest strided footprint < data_len *)

type pools = {
  psi : Isa.si_reg array;
  psf : Isa.sf_reg array;
  pvf : Isa.vf_reg array;
  pvi : Isa.vi_reg array;
  pvm : Isa.vm_reg array;
  czero : Isa.si_reg;
  cone : Isa.si_reg;
  cmask : Isa.si_reg; (* index_mask *)
  cmask3 : Isa.si_reg; (* stride clamp *)
  cmaskw : Isa.si_reg; (* width - 1, lane clamp *)
  vmask : Isa.vi_reg; (* index_mask splatted, gather/scatter clamp *)
}

let build_program seed =
  let seed = if Array.length seed = 0 then [| 0 |] else seed in
  let cur = ref 0 in
  let next () =
    let v = seed.(!cur mod Array.length seed) in
    incr cur;
    abs v
  in
  let width = if next () mod 2 = 0 then 4 else 8 in
  let n_threads = 1 + (next () mod 2) in
  let b = Builder.create ~name:"fastpath-fuzz" in
  let data = Builder.buffer_f b "data" in
  let idxs = Builder.buffer_i b "idxs" in
  let p =
    {
      psi = Array.init 5 (fun _ -> Builder.si b);
      psf = Array.init 4 (fun _ -> Builder.sf b);
      pvf = Array.init 4 (fun _ -> Builder.vf b);
      pvi = Array.init 3 (fun _ -> Builder.vi b);
      pvm = Array.init 3 (fun _ -> Builder.vm b);
      czero = Builder.si b;
      cone = Builder.si b;
      cmask = Builder.si b;
      cmask3 = Builder.si b;
      cmaskw = Builder.si b;
      vmask = Builder.vi b;
    }
  in
  let pick arr = arr.(next () mod Array.length arr) in
  let e i = Builder.emit b i in
  (* clamp [r] in place so it is a valid element index *)
  let clamp r = e (Ibin (Iand, r, r, p.cmask)) in
  let clamped () =
    let r = pick p.psi in
    clamp r;
    r
  in
  let clamped_vi () =
    let r = pick p.pvi in
    e (Vibin (Iand, r, r, p.vmask));
    r
  in
  let mask () = if next () mod 2 = 0 then None else Some (pick p.pvm) in
  let ibin_ops =
    [| Isa.Iadd; Isub; Imul; Idiv; Imod; Iand; Ior; Ixor; Ishl; Ishr; Imin; Imax |]
  in
  let fbin_ops = [| Isa.Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax |] in
  let funops = [| Isa.Fneg; Fabs; Fsqrt; Frsqrt; Fexp; Flog; Ffloor |] in
  let cmps = [| Isa.Ceq; Cne; Clt; Cle; Cgt; Cge |] in
  let reds = [| Isa.Rsum; Rmin; Rmax |] in
  let rec stmt depth =
    match next () mod (if depth = 0 then 20 else 24) with
    | 0 -> e (Iconst (pick p.psi, next () mod 16))
    | 1 -> e (Fconst (pick p.psf, float_of_int (next () mod 32) /. 4.))
    | 2 -> e (Ibin (pick ibin_ops, pick p.psi, pick p.psi, pick p.psi))
    | 3 -> e (Fbin (pick fbin_ops, pick p.psf, pick p.psf, pick p.psf))
    | 4 -> e (Fma (pick p.psf, pick p.psf, pick p.psf, pick p.psf))
    | 5 -> e (Funop (pick funops, pick p.psf, pick p.psf))
    | 6 ->
        e (Icmp (pick cmps, pick p.psi, pick p.psi, pick p.psi));
        e (Fcmp (pick cmps, pick p.psi, pick p.psf, pick p.psf))
    | 7 ->
        e (Iselect (pick p.psi, pick p.psi, pick p.psi, pick p.psi));
        e (Fselect (pick p.psf, pick p.psi, pick p.psf, pick p.psf))
    | 8 ->
        e (Fofi (pick p.psf, pick p.psi));
        e (Ioff (pick p.psi, pick p.psf))
    | 9 ->
        let chain = next () mod 2 = 0 in
        e (Loadf { dst = pick p.psf; buf = data; idx = clamped (); chain });
        e (Loadi { dst = pick p.psi; buf = idxs; idx = clamped (); chain })
    | 10 ->
        e (Storef { buf = data; idx = clamped (); src = pick p.psf });
        e (Storei { buf = idxs; idx = clamped (); src = pick p.psi })
    | 11 ->
        e (Vbroadcastf (pick p.pvf, pick p.psf));
        e (Vbroadcasti (pick p.pvi, pick p.psi));
        e (Viota (pick p.pvi))
    | 12 ->
        e (Vfbin (pick fbin_ops, pick p.pvf, pick p.pvf, pick p.pvf));
        e (Vfma (pick p.pvf, pick p.pvf, pick p.pvf, pick p.pvf));
        e (Vfunop (pick funops, pick p.pvf, pick p.pvf));
        e (Vibin (pick ibin_ops, pick p.pvi, pick p.pvi, pick p.pvi))
    | 13 ->
        e (Vfcmp (pick cmps, pick p.pvm, pick p.pvf, pick p.pvf));
        e (Vicmp (pick cmps, pick p.pvm, pick p.pvi, pick p.pvi));
        e (Vselectf (pick p.pvf, pick p.pvm, pick p.pvf, pick p.pvf));
        e (Vselecti (pick p.pvi, pick p.pvm, pick p.pvi, pick p.pvi))
    | 14 ->
        e (Vfofi (pick p.pvf, pick p.pvi));
        e (Vioff (pick p.pvi, pick p.pvf))
    | 15 ->
        let pat = Array.init (1 + (next () mod width)) (fun _ -> next () mod width) in
        e (Vpermutef (pick p.pvf, pick p.pvf, pat));
        let lane = pick p.psi in
        e (Ibin (Iand, lane, lane, p.cmaskw));
        e (Vextractf (pick p.psf, pick p.pvf, lane));
        e (Vinsertf (pick p.pvf, lane, pick p.psf));
        e (Vreducef (pick reds, pick p.psf, pick p.pvf));
        e (Vreducei (pick reds, pick p.psi, pick p.pvi))
    | 16 ->
        e (Mconst (pick p.pvm, next () mod 2 = 0));
        e (Mpattern (pick p.pvm, Array.init (1 + (next () mod 3)) (fun _ -> next () mod 2 = 0)));
        e (Mfirst (pick p.pvm, pick p.psi));
        e (Mnot (pick p.pvm, pick p.pvm));
        e (Mand (pick p.pvm, pick p.pvm, pick p.pvm));
        e (Mor (pick p.pvm, pick p.pvm, pick p.pvm));
        e (Many (pick p.psi, pick p.pvm));
        e (Mall (pick p.psi, pick p.pvm));
        e (Mcount (pick p.psi, pick p.pvm))
    | 17 ->
        (* unit-stride vector memory: masked and unmasked (the unmasked
           forms take the bulk block-transfer fast path; a base equal to
           data_len - width sits exactly on its bounds-check boundary) *)
        let base =
          if next () mod 4 = 0 then begin
            let r = pick p.psi in
            e (Iconst (r, data_len - width));
            r
          end
          else clamped ()
        in
        e (Vloadf { dst = pick p.pvf; buf = data; idx = base; mask = mask () });
        e (Vloadi { dst = pick p.pvi; buf = idxs; idx = base; mask = mask () });
        e (Vstoref { buf = data; idx = base; src = pick p.pvf; mask = mask () });
        e (Vstorei { buf = idxs; idx = base; src = pick p.pvi; mask = mask () });
        if next () mod 2 = 0 then
          e (Vstoref_nt { buf = data; idx = base; src = pick p.pvf })
    | 18 ->
        let stride = pick p.psi in
        e (Ibin (Iand, stride, stride, p.cmask3));
        let base = clamped () in
        e (Vloadf_strided { dst = pick p.pvf; buf = data; idx = base; stride });
        e (Vstoref_strided { buf = data; idx = base; stride; src = pick p.pvf })
    | 19 ->
        let chain = next () mod 2 = 0 in
        let ix = clamped_vi () in
        e (Vgatherf { dst = pick p.pvf; buf = data; idx = ix; mask = mask (); chain });
        e (Vgatheri { dst = pick p.pvi; buf = idxs; idx = ix; mask = mask (); chain });
        e (Vscatterf { buf = data; idx = ix; src = pick p.pvf; mask = mask () });
        e (Vscatteri { buf = idxs; idx = ix; src = pick p.pvi; mask = mask () })
    | 20 ->
        let lo = Builder.iconst b (next () mod 4) in
        let hi = Builder.iconst b (next () mod 6) in
        let step = Builder.iconst b (1 + (next () mod 2)) in
        Builder.for_ b ~lo ~hi ~step (fun i ->
            e (Ibin (Iadd, pick p.psi, i, pick p.psi));
            block (depth - 1))
    | 21 ->
        Builder.if_ b ~cond:(pick p.psi)
          ~else_:(fun () -> block (depth - 1))
          (fun () -> block (depth - 1))
    | 22 ->
        let k = Builder.si b in
        e (Iconst (k, next () mod 4));
        Builder.while_ b
          ~cond:(fun () ->
            let c = Builder.si b in
            e (Icmp (Cgt, c, k, p.czero));
            c)
          (fun () ->
            e (Ibin (Isub, k, k, p.cone));
            block (depth - 1))
    | _ -> Builder.region b "fuzz-region" (fun () -> block (depth - 1))
  and block depth =
    for _ = 1 to 1 + (next () mod 4) do
      stmt depth
    done
  in
  let phase body =
    (* initialize every pool register and clamp constant *)
    e (Iconst (p.czero, 0));
    e (Iconst (p.cone, 1));
    e (Iconst (p.cmask, index_mask));
    e (Iconst (p.cmask3, 3));
    e (Iconst (p.cmaskw, width - 1));
    e (Vbroadcasti (p.vmask, p.cmask));
    Array.iter (fun r -> e (Iconst (r, next () mod 16))) p.psi;
    (* one pool register sees the thread id, so Par phases diverge *)
    e (Imov (p.psi.(0), Isa.thread_id_reg));
    Array.iter (fun r -> e (Fconst (r, float_of_int (next () mod 24) /. 8.))) p.psf;
    Array.iter (fun r -> e (Vbroadcastf (r, pick p.psf))) p.pvf;
    Array.iter (fun r -> e (Vbroadcasti (r, pick p.psi))) p.pvi;
    Array.iter (fun r -> e (Mfirst (r, pick p.psi))) p.pvm;
    body ()
  in
  for _ = 1 to 1 + (next () mod 2) do
    if next () mod 2 = 0 then Builder.par_phase b (fun () -> phase (fun () -> block 2))
    else Builder.seq_phase b (fun () -> phase (fun () -> block 2))
  done;
  (Builder.finish b, n_threads, width)

(* ------------------------------------------------------------------ *)
(* Observing one run: everything the two strategies must agree on. *)

type observation = {
  o_outcome : (int * int array array, string) result;
      (* Ok (instructions, per-thread count rows) or Error trap-message *)
  o_events : Event.t list;
  o_trace : string list; (* rendered profiling events, in order *)
  o_states : (int array * float array * float array array * int array array * bool array array) array;
  o_data : float array;
  o_idxs : int array;
}

let fdata_init = Array.init data_len (fun i -> (float_of_int (i mod 7) /. 2.) -. 1.)
let idata_init = Array.init data_len (fun i -> ((i * 5) + 3) mod data_len)

(* [decoded] executes a pre-supplied (e.g. deliberately broken) flat form
   instead, always through the compiled backend. *)
let observe ?strategy ?decoded ?(fuel = 50_000) ~tracing ~n_threads ~width prog =
  let mem =
    Memory.create prog
      [ ("data", Memory.Fbuf (Array.copy fdata_init));
        ("idxs", Memory.Ibuf (Array.copy idata_init)) ]
  in
  let events = ref [] and trace = ref [] and states = ref [||] in
  let sink ev = events := ev :: !events in
  let tracer = if tracing then Some (fun ev -> trace := Fmt.str "%a" Trace.pp ev :: !trace) else None in
  let o_outcome =
    match
      Interp.run ~n_threads ~width ~sink ?trace:tracer ~fuel ?strategy
        ?decoded ~on_states:(fun s -> states := s)
        prog mem
    with
    | r ->
        Ok
          ( r.Interp.instructions,
            Array.init n_threads (fun thread ->
                Array.copy (Counts.thread_row r.Interp.counts ~thread)) )
    | exception Interp.Trap m -> Error m
  in
  let arr name =
    match Memory.find mem name with
    | _, Memory.Fbuf a -> `F (Array.copy a)
    | _, Memory.Ibuf a -> `I (Array.copy a)
  in
  let o_data = match arr "data" with `F a -> a | `I _ -> assert false in
  let o_idxs = match arr "idxs" with `I a -> a | `F _ -> assert false in
  {
    o_outcome;
    o_events = !events;
    o_trace = !trace;
    o_states =
      Array.map
        (fun (s : Interp.thread_state) -> (s.si, s.sf, s.vf, s.vi, s.vm))
        !states;
    o_data;
    o_idxs;
  }

(* [compare] (not [=]) so NaNs produced by Fsqrt/Flog of out-of-domain
   inputs count as equal to themselves. *)
let diff_observations a b =
  if compare a.o_outcome b.o_outcome <> 0 then Some "outcome (instructions/counts/trap)"
  else if compare a.o_events b.o_events <> 0 then Some "memory-access event stream"
  else if compare a.o_trace b.o_trace <> 0 then Some "profiling trace"
  else if compare a.o_states b.o_states <> 0 then Some "final register state"
  else if compare a.o_data b.o_data <> 0 then Some "float buffer contents"
  else if compare a.o_idxs b.o_idxs <> 0 then Some "int buffer contents"
  else None

let seed_arb =
  QCheck.make
    ~print:(fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    ~shrink:QCheck.Shrink.array
    QCheck.Gen.(array_size (4 -- 48) (int_bound 1_000_000))

(* The backend differential: [Tree] vs [Compiled config] on random
   programs, with and without tracing. The optimized flat form must also
   lint clean. The optimizer's per-pass properties (test_optimize.ml)
   instantiate it with every pass list. *)
let tree_vs_compiled ~name ~count config =
  QCheck.Test.make ~count ~name seed_arb (fun seed ->
      let prog, n_threads, width = build_program seed in
      let issues =
        Verify.verify ~width ~n_threads
          ~lengths:[ ("data", data_len); ("idxs", data_len) ]
          prog
      in
      if issues <> [] then
        QCheck.Test.fail_reportf "generator produced a non-verifier-clean program:@ %a"
          Fmt.(list ~sep:semi Verify.pp_issue)
          issues;
      (match Verify.check_flat (Optimize.run ~config (Decode.decode prog)) with
      | [] -> ()
      | issues ->
          QCheck.Test.fail_reportf "optimized array fails check_flat:@ %a"
            Fmt.(list ~sep:semi Verify.pp_issue)
            issues);
      List.for_all
        (fun tracing ->
          let t = observe ~strategy:Interp.Tree ~tracing ~n_threads ~width prog in
          let c =
            observe ~strategy:(Interp.Compiled config) ~tracing ~n_threads ~width prog
          in
          match diff_observations t c with
          | None -> true
          | Some what ->
              QCheck.Test.fail_reportf "Tree vs Compiled(%s) diverge (tracing=%b) on: %s"
                (Optimize.tag config) tracing what)
        [ false; true ])

let prop_tree_vs_compiled_plain =
  tree_vs_compiled ~count:150
    ~name:"random programs: Tree and Compiled(no passes) agree on all observables"
    Optimize.none

(* Replace the first op [f] maps to [Some op'] — a hand-seeded bug in a
   flat form, for the optimizer's and compiler's mutation tests. *)
let mutate (d : Decode.t) f =
  let found = ref false in
  let phases =
    Array.map
      (fun (ph : Decode.phase) ->
        { ph with
          Decode.code =
            Array.map
              (fun op ->
                if !found then op
                else
                  match f op with
                  | Some op' ->
                      found := true;
                      op'
                  | None -> op)
              ph.Decode.code })
      d.Decode.phases
  in
  if not !found then Alcotest.fail "mutation site not found in op array";
  { d with Decode.phases }

(* ---- deterministic trap differentials (not verifier-clean on purpose:
   they fault, and every backend must fault identically — same message,
   same memory state at the fault). Here the compiled side runs the plain
   decoded arrays; test_compile.ml runs the same harness over optimized
   ones. ---- *)

let trap_pair ?(width = 4) ?(fuel = 1_000) ?(configs = [ Optimize.none ]) build args =
  let obs strategy =
    let b = Builder.create ~name:"trap" in
    build b;
    let prog = Builder.finish b in
    let mem = Memory.create prog (args ()) in
    let r =
      match Interp.run ~width ~fuel ~strategy prog mem with
      | (_ : Interp.result) -> Error "no trap"
      | exception Interp.Trap m -> Ok m
    in
    let snapshot =
      List.map (fun (name, _) ->
          match Memory.find mem name with
          | _, Memory.Fbuf a -> (name, `F (Array.copy a))
          | _, Memory.Ibuf a -> (name, `I (Array.copy a)))
        (args ())
    in
    (r, snapshot)
  in
  let t = obs Interp.Tree in
  List.iter
    (fun config ->
      Alcotest.(check bool)
        (Fmt.str "Tree and Compiled(%s) trap identically" (Optimize.tag config))
        true
        (compare t (obs (Interp.Compiled config)) = 0))
    configs;
  match fst t with
  | Ok msg -> msg
  | Error e -> Alcotest.fail ("expected a trap, got: " ^ e)

let test_trap_oob_vector_store () =
  (* unmasked store straddling the end of the buffer: the block fast path
     must fall back lane-by-lane, preserving partial writes and the exact
     trap message *)
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
  Alcotest.(check bool) "oob in message" true (Astring_contains.contains msg "out-of-bounds")

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
  Alcotest.(check bool) "fuel in message" true (Astring_contains.contains msg "fuel")

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
  Alcotest.(check bool) "step in message" true (Astring_contains.contains msg "step")

(* ------------------------------------------------------------------ *)
(* Cache: fast layout vs reference layout on identical access streams,
   with same-line repeats (the MRU memo) and mid-stream invalidations. *)

let cache_stream_arb =
  QCheck.make
    ~print:(fun (s, a, tr) ->
      Fmt.str "sets=%d assoc=%d trace=%a" s a Fmt.(Dump.list (Dump.pair int bool)) tr)
    QCheck.Gen.(
      triple
        (oneofl [ 1; 2; 3; 4; 12; 16 ]) (* 3 and 12 sets: the non-power-of-two path *)
        (oneofl [ 1; 2; 4; 8 ])
        (list_size (1 -- 300) (pair (int_bound 60) bool)))

let prop_cache_fast_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"cache fast layout = reference layout (outcomes, stats, dirty lines)"
    cache_stream_arb
    (fun (n_sets, assoc, trace) ->
      let cfg : Machine.cache_cfg =
        { size_bytes = n_sets * assoc * 64; assoc; line_bytes = 64; latency = 1 }
      in
      let fast = Cache.create ~fast_path:true cfg in
      let refc = Cache.create ~fast_path:false cfg in
      let step (line_addr, write) =
        (* every third access repeats immediately with the other kind, so
           the MRU memo path is exercised with both read and write hits *)
        let probes =
          if line_addr mod 3 = 0 then [ (line_addr, write); (line_addr, not write) ]
          else [ (line_addr, write) ]
        in
        List.for_all
          (fun (line_addr, write) ->
            let a = Cache.access fast ~line_addr ~write in
            let b = Cache.access refc ~line_addr ~write in
            if a <> b then
              QCheck.Test.fail_reportf "line %d write %b: fast %b/%a, ref %b/%a"
                line_addr write a.Cache.hit
                Fmt.(Dump.option int)
                a.Cache.evicted_dirty b.Cache.hit
                Fmt.(Dump.option int)
                b.Cache.evicted_dirty
            else true)
          probes
        &&
        (if line_addr mod 17 = 13 then begin
           (* mid-stream invalidation must also clear the MRU memo *)
           Cache.invalidate_all fast;
           Cache.invalidate_all refc
         end;
         true)
      in
      List.for_all step trace
      && Cache.stats_hits fast = Cache.stats_hits refc
      && Cache.stats_misses fast = Cache.stats_misses refc
      && Cache.dirty_lines fast = Cache.dirty_lines refc
      && List.for_all
           (fun line_addr ->
             Cache.probe fast ~line_addr = Cache.probe refc ~line_addr)
           (List.init 61 Fun.id))

(* ------------------------------------------------------------------ *)
(* Hierarchy: fast vs reference caches under a multi-level machine with
   tiny caches (so capacity evictions, writebacks and LLC sharing all
   happen), ending with a write-back drain. *)

let tiny_machine : Machine.t =
  {
    Machine.westmere with
    name = "tiny";
    cores = 2;
    l1 = { size_bytes = 256; assoc = 2; line_bytes = 64; latency = 1 };
    l2 = { size_bytes = 512; assoc = 2; line_bytes = 64; latency = 4 };
    llc = { size_bytes = 1536; assoc = 4; line_bytes = 64; latency = 20 };
  }

let hierarchy_stream_arb =
  QCheck.make
    ~print:(fun tr ->
      Fmt.str "%a" Fmt.(Dump.list (fun ppf (c, a, b, w, nt) ->
          Fmt.pf ppf "(core %d, addr %d, bytes %d, write %b, nt %b)" c a b w nt))
        tr)
    QCheck.Gen.(
      list_size (1 -- 250)
        (map
           (fun (core, addr, bytes, write, nt) ->
             (core, addr, bytes, write, write && nt))
           (tup5 (int_bound 1) (int_bound 8192)
              (oneofl [ 1; 4; 16; 64; 128 ])
              bool bool)))

let prop_hierarchy_fast_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"hierarchy fast path = reference (levels, traffic, drains)"
    hierarchy_stream_arb
    (fun trace ->
      let fast = Hierarchy.create ~fast_path:true tiny_machine in
      let refh = Hierarchy.create ~fast_path:false tiny_machine in
      let same_counters () =
        Hierarchy.dram_read_bytes fast = Hierarchy.dram_read_bytes refh
        && Hierarchy.dram_write_bytes fast = Hierarchy.dram_write_bytes refh
        && List.for_all
             (fun l -> Hierarchy.accesses fast l = Hierarchy.accesses refh l)
             [ Hierarchy.L1; Hierarchy.L2; Hierarchy.LLC; Hierarchy.Dram ]
      in
      List.for_all
        (fun (core, addr, bytes, write, nt) ->
          let a = Hierarchy.access fast ~core ~addr ~bytes ~write ~nt in
          let b = Hierarchy.access refh ~core ~addr ~bytes ~write ~nt in
          if a <> b then
            QCheck.Test.fail_reportf
              "core %d addr %d bytes %d write %b nt %b: fast %s/%b, ref %s/%b" core
              addr bytes write nt
              (Hierarchy.level_name a.Hierarchy.level)
              a.Hierarchy.covered
              (Hierarchy.level_name b.Hierarchy.level)
              b.Hierarchy.covered
          else true)
        trace
      && same_counters ()
      &&
      (Hierarchy.drain_writebacks fast;
       Hierarchy.drain_writebacks refh;
       same_counters ())
      &&
      (Hierarchy.reset fast;
       Hierarchy.reset refh;
       Hierarchy.dram_read_bytes fast = 0
       && Hierarchy.dram_write_bytes fast = 0
       && same_counters ()))

(* ------------------------------------------------------------------ *)
(* The timing model's access port (the L1 hit probe, then the full path
   on a miss) against [Hierarchy.access] on reference caches, with the
   stall formula spelled out here: same stalls, per-level counts, DRAM
   traffic and drained write-backs, for multi-line, write, non-temporal
   and two-core accesses, chained or not, prefetch on and off. *)

let port_stream_arb =
  QCheck.make
    ~print:(fun (pf, tr) ->
      Fmt.str "prefetch %b %a" pf
        Fmt.(Dump.list (fun ppf (c, a, b, w, ch, nt) ->
            Fmt.pf ppf "(core %d, addr %d, bytes %d, write %b, chain %b, nt %b)"
              c a b w ch nt))
        tr)
    QCheck.Gen.(
      pair bool
        (list_size (1 -- 300)
           (map
              (fun ((core, addr, bytes), (write, chain, nt)) ->
                (core, addr, bytes, write, chain, write && nt))
              (pair
                 (triple (int_bound 1) (int_bound 8192) (oneofl [ 4; 4; 16; 64; 128 ]))
                 (triple bool bool (map (fun k -> k = 0) (int_bound 5)))))))

let prop_port_matches_hierarchy =
  QCheck.Test.make ~count:200
    ~name:"timing port = Hierarchy.access (stalls, levels, traffic, drains)"
    port_stream_arb
    (fun (prefetch, trace) ->
      let m = Machine.with_prefetch tiny_machine prefetch in
      let fast = Hierarchy.create ~fast_path:true m in
      let refh = Hierarchy.create ~fast_path:false m in
      let fast_stalls = Array.make m.cores 0. and ref_stalls = Array.make m.cores 0. in
      let port = Ninja_arch.Timing.stall_port m fast fast_stalls in
      let latency : Hierarchy.level -> float = function
        | L1 -> 0.
        | L2 -> float_of_int m.l2.latency
        | LLC -> float_of_int m.llc.latency
        | Dram -> float_of_int m.dram_latency
      in
      List.iter
        (fun (core, addr, bytes, write, chain, nt) ->
          port ~thread:core ~addr ~bytes ~write ~chain ~nt;
          let r = Hierarchy.access refh ~core ~addr ~bytes ~write ~nt in
          if not r.covered then
            ref_stalls.(core) <-
              ref_stalls.(core)
              +. (if chain then latency r.level
                  else latency r.level /. float_of_int m.mlp))
        trace;
      let same () =
        compare fast_stalls ref_stalls = 0
        && Hierarchy.dram_read_bytes fast = Hierarchy.dram_read_bytes refh
        && Hierarchy.dram_write_bytes fast = Hierarchy.dram_write_bytes refh
        && List.for_all
             (fun l -> Hierarchy.accesses fast l = Hierarchy.accesses refh l)
             [ Hierarchy.L1; Hierarchy.L2; Hierarchy.LLC; Hierarchy.Dram ]
      in
      same ()
      &&
      (Hierarchy.drain_writebacks fast;
       Hierarchy.drain_writebacks refh;
       same ()))

let suite =
  ( "fastpath",
    [ QCheck_alcotest.to_alcotest prop_tree_vs_compiled_plain;
      Alcotest.test_case "trap: partial oob vector store" `Quick test_trap_oob_vector_store;
      Alcotest.test_case "trap: integer division by zero" `Quick test_trap_div_by_zero;
      Alcotest.test_case "trap: fuel exhaustion" `Quick test_trap_fuel_exhausted;
      Alcotest.test_case "trap: non-positive loop step" `Quick test_trap_nonpositive_step;
      QCheck_alcotest.to_alcotest prop_cache_fast_matches_reference;
      QCheck_alcotest.to_alcotest prop_hierarchy_fast_matches_reference;
      QCheck_alcotest.to_alcotest prop_port_matches_hierarchy ] )
