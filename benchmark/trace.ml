(* The traced run behind the per-layer metrics. Whatever the workload,
   it replays the grid cold then warm in process, decomposes the
   sim_kernels jobs, compiles every benchmark source, and drives
   serve_mixed with a client-side span per request. Spans come from
   the benchmark's own calls into each layer's public functions. *)

module Codegen = Ninja_lang.Codegen
module Json = Ninja_report.Json

let m name unit_ value = { Ctx.name; unit_; value; samples = 1 }
let ratio a b = if b = 0. then 0. else a /. b

(* Every source variant x flag set x machine through the front end. *)
let compile_all () =
  List.iter
    (fun (b : Ninja_kernels.Driver.benchmark) ->
      List.iter
        (fun (_, src) ->
          List.iter
            (fun flags ->
              List.iter
                (fun machine ->
                  Span.with_ "lang.compile" (fun () ->
                      ignore
                        (Ninja_kernels.Common.compile_with flags ~machine
                           (Ninja_kernels.Common.parse_kernel src))))
                [ Ninja_arch.Machine.westmere; Ninja_arch.Machine.knights_ferry ])
            Codegen.[ o2; o2_vec; o2_vec_par ])
        b.b_sources)
    Ninja_kernels.Registry.all

let run (c : Ctx.t) =
  let rp = Grid.replay c in
  let root name = List.find (fun (s : Span.t) -> s.name = name) (Span.all ()) in
  Span.with_ "lang" compile_all;
  let d =
    Span.with_ "sim" (fun () ->
        Sim.decompose c ~ladder:(fun b -> Ninja_core.Experiments.ladder b ~scale:b.default_scale))
  in
  let sv = Span.with_ "serve" (fun () -> Serve.pass c ~traced:true) in
  let cold = rp.cold and warm = rp.warm in
  let p50_ms sel =
    Ctx.median (List.filter_map (fun (s : Serve.sent) -> if sel s then Some ((s.stop -. s.start) *. 1e3) else None) sv.sent)
  in
  let live name =
    match Json.member name sv.live with Some (Json.Num f) -> f | _ -> 0.
  in
  let en, ev, du, rj = rp.tuner_counts in
  let f = float_of_int in
  let tune_s = Span.total cold "tuner.tune" in
  let render_s = Span.total cold "experiments.run:" -. Span.total cold "experiments.run:t4" in
  let es, evec = d.exec_s and ms, mv = d.model_s in
  let smips, vmips = d.mips in
  let acc l = f (List.assoc l d.accesses) in
  let open Ninja_arch.Hierarchy in
  let metrics =
    [ m "kernels.ladder_s" "s" (Span.total cold "kernels.ladder:");
      m "kernels.ladder_treesearch_s" "s" (Span.total cold "kernels.ladder:TreeSearch");
      m "kernels.ladder_warm_s" "s" (Span.total warm "kernels.ladder:");
      m "lang.compile_s" "s" (Span.total (root "lang") "lang.compile");
      m "lang.compiles" "count" (f (Span.count (root "lang") "lang.compile"));
      m "vm.prepare_s" "s" d.prepare_s;
      m "vm.exec_scalar_s" "s" es;
      m "vm.exec_vector_s" "s" evec;
      m "vm.instructions" "count" (f d.instructions);
      m "vm.events" "count" (f d.events);
      m "arch.model_scalar_s" "s" ms;
      m "arch.model_vector_s" "s" mv;
      m "arch.model_share_vector" "ratio" (ratio mv d.run_step_vector_s);
      m "arch.ns_per_event" "ns" (ratio ((ms +. mv) *. 1e9) (f d.events));
      m "arch.accesses_l1" "count" (acc L1);
      m "arch.accesses_l2" "count" (acc L2);
      m "arch.accesses_llc" "count" (acc LLC);
      m "arch.accesses_dram" "count" (acc Dram);
      m "sim.scalar_mips" "Minstr/s" smips;
      m "sim.vector_mips" "Minstr/s" vmips;
      m "tuner.tune_s" "s" tune_s;
      m "tuner.enumerated" "count" (f en);
      m "tuner.evaluated" "count" (f ev);
      m "tuner.duplicates" "count" (f du);
      m "tuner.rejected" "count" (f rj);
      m "tuner.s_per_evaluated" "s" (ratio tune_s (f ev));
      m "store.key_s" "s" (Span.total cold "store.key" +. Span.total warm "store.key");
      m "store.load_s" "s" (Span.total warm "store.load");
      m "store.save_s" "s" (Span.total cold "store.save");
      m "store.hits" "count" (f rp.store_stats.hits);
      m "store.misses" "count" (f rp.store_stats.misses);
      m "store.writes" "count" (f rp.store_stats.writes);
      m "store.bytes" "B" (f rp.store_bytes);
      m "experiments.sim_s" "s" (Span.total cold "sim.run_step");
      m "experiments.render_s" "s" render_s;
      m "experiments.t4_s" "s" (Span.total cold "experiments.run:t4");
      m "grid.replay_cold_s" "s" (Span.dur cold);
      m "grid.replay_warm_s" "s" (Span.dur warm);
      m "trace.coverage_cold" "ratio" (Span.coverage ~wrappers:[ "grid.job" ] cold);
      m "trace.coverage_warm" "ratio" (Span.coverage ~wrappers:[ "grid.job" ] warm);
      m "serve.simulate_cold_p50_ms" "ms" (p50_ms (fun s -> s.first));
      m "serve.simulate_hit_p50_ms" "ms" (p50_ms (fun s -> not s.first));
      m "serve.simulations" "count" (live "simulations");
      m "serve.memo_hits" "count" (live "memo_hits");
      m "serve.store_hits" "count" (live "store_hits");
      m "serve.coalesced" "count" (live "coalesced");
      m "serve.overloaded" "count" (live "overloaded") ]
  in
  let failed = List.length (List.filter (( <> ) []) [ rp.r_problems; d.d_problems ]) in
  let result : Ctx.result =
    {
      sv.result with
      attempted = sv.result.attempted + 2;
      failed = sv.result.failed + failed;
      problems = rp.r_problems @ d.d_problems @ sv.result.problems;
    }
  in
  (metrics, result)
