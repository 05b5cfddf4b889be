(* Command-line interface: run experiments, inspect benchmarks and the
   compiler's output, validate kernels against their references. *)

open Cmdliner

(* One preset table for the CLI and the service: lib/serve/validate.ml
   owns it, so `--machine` and the wire protocol can never drift. *)
let machine_of_name name =
  match Ninja_serve.Validate.machine_of_name name with
  | Ok m -> m
  | Error (_, msg) -> failwith msg

let machine_arg =
  let doc = "Machine preset (westmere, mic, kentsfield, nehalem, future1..3)." in
  Arg.(value & opt string "westmere" & info [ "m"; "machine" ] ~doc)

(* ---- execution backend ---- *)

(* Flag errors are hard failures with a stable, greppable shape
   (`ninja_cli: error <code>: ...`), pinned byte-for-byte by the
   cram-style test in bin/dune. *)
let flag_error code fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "ninja_cli: error %s: %s@." code msg;
      exit 1)
    fmt

(* The backend changes no reported number (the simulated machine is
   oblivious to it), so the flag only picks which host executor runs. *)
let backend_arg =
  let doc =
    "Host execution backend for simulations: $(b,tree) (reference walker) \
     or $(b,compiled) (closure-threaded code over the optimized op \
     arrays; the default). Reported numbers are identical for both; only \
     the simulator's own speed changes."
  in
  Arg.(value & opt (some string) None & info [ "backend" ] ~doc ~docv:"NAME")

let strategy_of_flags ?backend () =
  match backend with
  | None -> Ninja_vm.Interp.Compiled Ninja_vm.Optimize.default
  | Some name -> (
      match Ninja_vm.Interp.strategy_of_name name with
      | Some s -> s
      | None ->
          flag_error "bad_backend"
            "--backend: unknown backend %S (try: tree, compiled)" name)

(* Commands whose simulations flow through Timing.simulate's default
   strategy (experiments, serve) install the chosen backend process-wide
   instead of threading it through every call. *)
let install_backend ?backend () =
  Ninja_vm.Interp.set_default_strategy (strategy_of_flags ?backend ())

(* ---- experiments ---- *)

let jobs_arg =
  let doc =
    "Worker domains for the simulation job grid (default: the runtime's \
     recommended domain count; 1 = serial). Tables are byte-identical for \
     any value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc ~docv:"N")

(* Persistent result store: shared by `experiments` and `serve`. The store
   is content-addressed (program + machine + step + simulator version), so
   reusing a cache directory across code changes is always sound — stale
   entries simply miss. *)

let cache_dir_arg =
  let doc =
    "Directory of the persistent result store: simulation reports are \
     written there once and reloaded on later runs, so a warm rerun \
     executes zero simulations. Entries are content-addressed; stale or \
     corrupt ones are silently re-simulated."
  in
  Arg.(
    value
    & opt string Ninja_core.Store.default_dir
    & info [ "cache-dir" ] ~doc ~docv:"DIR")

let no_cache_arg =
  let doc = "Disable the persistent result store; simulate everything." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let install_store ~cache_dir ~no_cache =
  if no_cache then begin
    Ninja_core.Experiments.set_store None;
    None
  end
  else begin
    let st = Ninja_core.Store.open_ ~dir:cache_dir () in
    Ninja_core.Experiments.set_store (Some st);
    Some st
  end

let pp_store_stats ppf st =
  let s = Ninja_core.Store.stats st in
  Fmt.pf ppf "store %s: %d hits, %d misses (%d corrupt dropped), %d writes"
    (Ninja_core.Store.dir st) s.Ninja_core.Store.hits s.Ninja_core.Store.misses
    s.Ninja_core.Store.errors s.Ninja_core.Store.writes

let run_experiment csv (e : Ninja_core.Experiments.experiment) =
  Fmt.pr "## %s — %s (%s)@.@." (String.uppercase_ascii e.id) e.title e.claim;
  List.iter
    (fun t ->
      if csv then print_string (Ninja_report.Table.to_csv t)
      else Fmt.pr "%a@." Ninja_report.Table.render t)
    (e.run ())

let experiments_cmd =
  let ids =
    let doc = "Experiment ids (t1, f1..f8, t2, t3, t4, a1); all when omitted." in
    Arg.(value & pos_all string [] & info [] ~doc ~docv:"ID")
  in
  let csv =
    let doc = "Emit CSV instead of aligned tables." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let sched_trace =
    let doc =
      "Write the realized grid schedule (one span per job per domain) as \
       Chrome trace_event JSON to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "sched-trace" ] ~doc ~docv:"FILE")
  in
  let run csv jobs cache_dir no_cache sched_trace backend ids =
    install_backend ?backend ();
    let experiments =
      if ids = [] then Ninja_core.Experiments.all
      else
        List.map
          (fun id ->
            match Ninja_core.Experiments.find id with
            | e -> e
            | exception Not_found ->
                Fmt.epr "unknown experiment %S@." id;
                exit 1)
          ids
    in
    let store = install_store ~cache_dir ~no_cache in
    (* precompute the whole simulation grid on the domain pool; the
       summary carries wall-clock times, so it goes to stderr to keep
       stdout deterministic across -j values and cache states *)
    ignore
      (Ninja_core.Jobs.prefill ?domains:jobs ~experiments ~verbose:true
         ?sched_trace ()
        : Ninja_core.Jobs.summary);
    List.iter (run_experiment csv) experiments;
    (* after rendering, so the derived entries T4 reads are counted too *)
    match store with
    | Some st -> Fmt.epr "%a@." pp_store_stats st
    | None -> ()
  in
  Cmd.v (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures")
    Term.(
      const run $ csv $ jobs_arg $ cache_dir_arg $ no_cache_arg $ sched_trace
      $ backend_arg $ ids)

(* ---- ladder ---- *)

let ladder_cmd =
  let bench_arg =
    let doc = "Benchmark name (see `list`)." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"BENCHMARK")
  in
  let scale_arg =
    let doc = "Dataset scale (default: the benchmark's default)." in
    Arg.(value & opt (some int) None & info [ "s"; "scale" ] ~doc)
  in
  let validate_arg =
    let doc = "Also run each variant functionally and check its output." in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let opt_report_arg =
    let doc = "Print each variant's per-pass optimizer rewrite report." in
    Arg.(value & flag & info [ "opt-report" ] ~doc)
  in
  let run machine bench scale validate backend opt_report =
    let machine = machine_of_name machine in
    let b = Ninja_kernels.Registry.find bench in
    let scale = Option.value scale ~default:b.default_scale in
    let strategy = strategy_of_flags ?backend () in
    Ninja_vm.Interp.set_default_strategy strategy;
    Fmt.pr "%s at scale %d on %a@.@." b.b_name scale Ninja_arch.Machine.pp machine;
    let steps = b.steps ~scale in
    let baseline = ref None in
    List.iter
      (fun (step : Ninja_kernels.Driver.step) ->
        if validate then begin
          match Ninja_kernels.Driver.validate_step ~machine step with
          | Ok () -> Fmt.pr "[check ok] "
          | Error e -> Fmt.pr "[CHECK FAILED: %s] " e
        end;
        let r = Ninja_kernels.Driver.run_step ~strategy ~machine step in
        (match !baseline with None -> baseline := Some r | Some _ -> ());
        Fmt.pr "%-14s %10.3f Mcycles  %7.2fx  (%s-bound)@." step.step_name
          (r.cycles /. 1e6)
          (Ninja_arch.Timing.speedup ~baseline:(Option.get !baseline) r)
          (Ninja_arch.Timing.bound_name r.bound);
        if opt_report then begin
          let config =
            match strategy with
            | Ninja_vm.Interp.Compiled c -> c
            | Tree -> Ninja_vm.Optimize.default
          in
          let d = Ninja_vm.Decode.decode (step.make ~machine) in
          let _, rep = Ninja_vm.Optimize.run_report ~config d in
          Fmt.pr "%a@." Ninja_vm.Optimize.pp_report rep
        end)
      steps
  in
  Cmd.v
    (Cmd.info "ladder" ~doc:"Run one benchmark's naive-to-ninja performance ladder")
    Term.(
      const run $ machine_arg $ bench_arg $ scale_arg $ validate_arg
      $ backend_arg $ opt_report_arg)

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Ninja_kernels.Driver.benchmark) ->
        Fmt.pr "%-16s %s@.  %s@." b.b_name b.b_desc b.b_algo_note)
      Ninja_kernels.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite") Term.(const run $ const ())

(* ---- compile (inspect compiler output) ---- *)

let compile_cmd =
  let bench_arg =
    let doc = "Benchmark name." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"BENCHMARK")
  in
  let step_arg =
    let doc = "Ladder step to compile (naive serial, +autovec, +parallel, +algorithmic, ninja)." in
    Arg.(value & opt string "+algorithmic" & info [ "step" ] ~doc)
  in
  let run machine bench step_name =
    let machine = machine_of_name machine in
    let b = Ninja_kernels.Registry.find bench in
    let steps = b.steps ~scale:1 in
    match
      List.find_opt (fun (s : Ninja_kernels.Driver.step) -> s.step_name = step_name) steps
    with
    | None -> Fmt.epr "no step %S@." step_name; exit 1
    | Some s ->
        let prog = s.make ~machine in
        Fmt.pr "%a@." Ninja_vm.Isa.pp_program prog
  in
  Cmd.v (Cmd.info "compile" ~doc:"Print a variant's compiled ISA program")
    Term.(const run $ machine_arg $ bench_arg $ step_arg)

(* ---- profile (cycle attribution + Chrome trace export) ---- *)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let profile_cmd =
  let bench_arg =
    let doc = "Benchmark name (see `list`)." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"BENCHMARK")
  in
  let step_arg =
    let doc =
      "Ladder step to profile (naive serial, +autovec, +parallel, \
       +algorithmic, ninja)."
    in
    Arg.(value & opt string "ninja" & info [ "variant" ] ~doc ~docv:"STEP")
  in
  let trace_arg =
    let doc =
      "Write the profile's spans as Chrome trace_event JSON to $(docv) \
       (load in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let csv_arg =
    let doc = "Write a roofline-ready CSV point for this run to $(docv)." in
    Arg.(value & opt (some string) None & info [ "roofline-csv" ] ~doc ~docv:"FILE")
  in
  let run machine bench step_name trace csv =
    let machine = machine_of_name machine in
    let b = Ninja_kernels.Registry.find bench in
    let steps = b.steps ~scale:b.default_scale in
    match
      List.find_opt (fun (s : Ninja_kernels.Driver.step) -> s.step_name = step_name) steps
    with
    | None ->
        Fmt.epr "benchmark %s has no step %S@." b.b_name step_name;
        exit 1
    | Some s ->
        let p = Ninja_profile.Profile.of_step ~machine ~prog_name:b.b_name s in
        Fmt.pr "%a@." Ninja_report.Table.render
          (Ninja_profile.Profile.attribution_table p);
        let f = Ninja_profile.Profile.fractions p in
        Fmt.pr
          "resource fractions of %.3f Mcycles: compute %.0f%%, bandwidth \
           %.0f%%, latency %.0f%%, serial %.0f%%  ->  %s-bound@."
          (p.report.cycles /. 1e6) (100. *. f.f_compute) (100. *. f.f_bandwidth)
          (100. *. f.f_latency) (100. *. f.f_serial)
          (Ninja_arch.Timing.bound_name p.bound);
        (match p.lane_util with
        | Some u -> Fmt.pr "SIMD lane utilization (masked memory ops): %.0f%%@." (100. *. u)
        | None -> ());
        (match trace with
        | Some path ->
            write_file path (Ninja_profile.Chrome.to_json p);
            Fmt.pr "wrote Chrome trace: %s (%d spans)@." path (List.length p.spans)
        | None -> ());
        (match csv with
        | Some path ->
            write_file path (Ninja_profile.Profile.roofline_csv [ p ]);
            Fmt.pr "wrote roofline CSV: %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Cycle-attribution profile of one benchmark variant: per-loop/phase \
          attribution table, resource fractions, optional Chrome trace_event \
          JSON and roofline CSV export")
    Term.(const run $ machine_arg $ bench_arg $ step_arg $ trace_arg $ csv_arg)

(* ---- report (generated-section sync for EXPERIMENTS.md) ---- *)

let report_cmd =
  let write_arg =
    let doc = "Regenerate drifted sections in place (default: check only)." in
    Arg.(value & flag & info [ "write" ] ~doc)
  in
  let check_arg =
    let doc = "Check that generated sections are current (the default)." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let path_arg =
    let doc = "Document to sync." in
    Arg.(value & opt string "EXPERIMENTS.md" & info [ "path" ] ~doc ~docv:"FILE")
  in
  let run write _check path =
    let mode = if write then Ninja_core.Report_sync.Write else Ninja_core.Report_sync.Check in
    match Ninja_core.Report_sync.sync mode ~path with
    | Error msg ->
        Fmt.epr "report: %s@." msg;
        exit 2
    | Ok [] -> Fmt.pr "%s: generated sections (%s) are current@." path
                 (String.concat ", " Ninja_core.Report_sync.sections)
    | Ok stale when not write ->
        Fmt.epr "%s: generated sections out of date: %s@.run `ninja_cli report --write` to regenerate@."
          path (String.concat ", " stale);
        exit 1
    | Ok updated -> Fmt.pr "%s: regenerated sections: %s@." path (String.concat ", " updated)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Keep EXPERIMENTS.md's generated sections in sync with the measured \
          output (--check gates CI, --write regenerates)")
    Term.(const run $ write_arg $ check_arg $ path_arg)

(* ---- source variants (vec-report / analyze) ---- *)

let variant_arg =
  let doc = "Restrict to one source variant (naive or algo)." in
  Arg.(value & opt (some string) None & info [ "variant" ] ~doc ~docv:"VARIANT")

let variants_of ?variant (b : Ninja_kernels.Driver.benchmark) =
  match variant with
  | None -> b.b_sources
  | Some v -> (
      match List.assoc_opt v b.b_sources with
      | Some src -> [ (v, src) ]
      | None ->
          Fmt.epr "benchmark %s has no %S variant (has: %s)@." b.b_name v
            (String.concat ", " (List.map fst b.b_sources));
          exit 1)

(* ---- vec-report ---- *)

let vec_report_cmd =
  let bench_arg =
    let doc = "Benchmark name." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"BENCHMARK")
  in
  let run bench variant =
    let b = Ninja_kernels.Registry.find bench in
    let report src =
      let k = Ninja_kernels.Common.parse_kernel src in
      let r = Ninja_lang.Codegen.compile ~flags:Ninja_lang.Codegen.o2_vec_par k in
      List.iter
        (fun (label, o) ->
          match (o : Ninja_lang.Codegen.vec_outcome) with
          | Vectorized -> Fmt.pr "  VECTORIZED %s@." label
          | Scalar why -> Fmt.pr "  scalar     %s: %s@." label why)
        r.vec_report
    in
    List.iter
      (fun (name, src) ->
        Fmt.pr "%s variant:@." name;
        report src)
      (variants_of ?variant b)
  in
  Cmd.v (Cmd.info "vec-report" ~doc:"Show the auto-vectorizer's per-loop decisions")
    Term.(const run $ bench_arg $ variant_arg)

(* ---- analyze (per-loop opt-report with reason codes) ---- *)

let analyze_cmd =
  let bench_arg =
    let doc = "Benchmark name (see `list`); all benchmarks when omitted." in
    Arg.(value & pos 0 (some string) None & info [] ~doc ~docv:"BENCHMARK")
  in
  let deps_arg =
    let doc =
      "Show the dependence engine's facts (distance/direction vectors, \
       per-loop legality record) instead of the opt-report."
    in
    Arg.(value & flag & info [ "deps" ] ~doc)
  in
  let json_arg =
    let doc =
      "With --deps, emit the stable ninja-deps/v1 JSON schema (one object \
       per benchmark variant)."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run bench variant deps json =
    if json && not deps then begin
      Fmt.epr "--json requires --deps@.";
      exit 1
    end;
    let benches =
      match bench with
      | Some name -> [ Ninja_kernels.Registry.find name ]
      | None -> Ninja_kernels.Registry.all
    in
    List.iter
      (fun (b : Ninja_kernels.Driver.benchmark) ->
        List.iter
          (fun (vname, src) ->
            let name = Fmt.str "%s/%s" b.b_name vname in
            if deps then
              let t = Ninja_lang.Deps.analyze_src ~name src in
              if json then
                Fmt.pr "%s@."
                  (Ninja_report.Json.to_string ~indent:true
                     (Ninja_report.Json.Obj
                        [ ("variant", Ninja_report.Json.Str name);
                          ("facts", Ninja_lang.Deps.to_json t) ]))
              else Fmt.pr "# %s@.%a@." name Ninja_lang.Deps.pp t
            else
              Fmt.pr "# %s@.%a@." name Ninja_lang.Optreport.pp
                (Ninja_lang.Optreport.analyze_src ~name src))
          (variants_of ?variant b))
      benches
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Per-loop optimization report (vectorized / parallelized / rejected, \
          with stable reason codes and remediation hints); --deps exports \
          the dependence engine's legality facts, --json as stable JSON")
    Term.(const run $ bench_arg $ variant_arg $ deps_arg $ json_arg)

(* ---- verify (static ISA lint over every registered variant) ---- *)

let verify_cmd =
  let bench_arg =
    let doc = "Benchmark name; the whole suite when omitted." in
    Arg.(value & pos 0 (some string) None & info [] ~doc ~docv:"BENCHMARK")
  in
  let run bench =
    let benches =
      match bench with
      | Some name -> [ Ninja_kernels.Registry.find name ]
      | None -> Ninja_kernels.Registry.all
    in
    let machines = [ Ninja_arch.Machine.westmere; Ninja_arch.Machine.knights_ferry ] in
    let bad = ref 0 and total = ref 0 in
    List.iter
      (fun (machine : Ninja_arch.Machine.t) ->
        List.iter
          (fun (b : Ninja_kernels.Driver.benchmark) ->
            List.iter
              (fun (step : Ninja_kernels.Driver.step) ->
                incr total;
                match Ninja_kernels.Driver.verify_step ~machine step with
                | [] ->
                    Fmt.pr "ok   %-12s %-16s %s@." machine.name b.b_name
                      step.step_name
                | issues ->
                    incr bad;
                    Fmt.pr "BAD  %-12s %-16s %s@." machine.name b.b_name
                      step.step_name;
                    List.iter
                      (fun i -> Fmt.pr "       %a@." Ninja_vm.Verify.pp_issue i)
                      issues)
              (b.steps ~scale:1))
          benches)
      machines;
    Fmt.pr "%d programs verified, %d with issues@." !total !bad;
    if !bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically lint every variant's ISA program (def-before-use, SPMD \
          register discipline, reserved registers, provable out-of-bounds)")
    Term.(const run $ bench_arg)

(* ---- tune (auto-tuning driver: the "tuned" ladder rung) ---- *)

let tune_cmd =
  let bench_arg =
    let doc = "Benchmark name (see `list`)." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"BENCHMARK")
  in
  let json_arg =
    let doc = "Emit the stable ninja-tune/v1 JSON document instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run machine bench json jobs cache_dir no_cache =
    let machine = machine_of_name machine in
    let b = Ninja_kernels.Registry.find bench in
    let store = install_store ~cache_dir ~no_cache in
    let domains =
      match jobs with
      | Some j -> max 1 j
      | None -> Ninja_util.Pool.default_domains ()
    in
    let t = Ninja_core.Experiments.tuned_result ~domains ~machine b in
    if json then
      Fmt.pr "%s@."
        (Ninja_report.Json.to_string ~indent:true (Ninja_core.Tuner.to_json t))
    else Fmt.pr "%a" Ninja_core.Tuner.pp t;
    (match store with
    | Some st ->
        Ninja_core.Store.flush_costs st;
        Fmt.epr "%a@." pp_store_stats st
    | None -> ())
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Auto-tune one benchmark: enumerate legality-pruned per-loop \
          strategies (flags x interchange/unroll), evaluate every legal \
          candidate by simulated time, and report the winner (the \"tuned\" \
          ladder rung; --json emits the ninja-tune/v1 schema)")
    Term.(
      const run $ machine_arg $ bench_arg $ json_arg $ jobs_arg $ cache_dir_arg
      $ no_cache_arg)

(* ---- serve (concurrent simulation service) ---- *)

let serve_cmd =
  let port_arg =
    let doc =
      "Listen for line-delimited JSON requests on 127.0.0.1:$(docv) \
       (0 picks an ephemeral port, printed to stderr)."
    in
    Arg.(value & opt (some int) None & info [ "port" ] ~doc ~docv:"PORT")
  in
  let stdio_arg =
    let doc = "Serve one client on stdin/stdout (the default transport)." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admission bound: at most $(docv) distinct requests computing at \
       once; beyond that the service answers `overloaded` immediately. \
       Identical in-flight requests coalesce and never consume a slot."
    in
    Arg.(
      value
      & opt int Ninja_serve.Service.default_max_inflight
      & info [ "max-inflight" ] ~doc ~docv:"K")
  in
  let run port stdio max_inflight jobs cache_dir no_cache backend =
    if stdio && port <> None then begin
      Fmt.epr "--port and --stdio are mutually exclusive@.";
      exit 1
    end;
    install_backend ?backend ();
    ignore (install_store ~cache_dir ~no_cache);
    let domains =
      match jobs with
      | Some j -> max 1 j
      | None -> Ninja_util.Pool.default_domains ()
    in
    let t = Ninja_serve.Service.create ~domains ~max_inflight () in
    match port with
    | Some p ->
        Ninja_serve.Server.run_tcp t ~port:p
          ~on_listen:(fun p ->
            Fmt.epr "%s listening on 127.0.0.1:%d@." Ninja_serve.Protocol.version p)
          ()
    | None -> Ninja_serve.Server.run_stdio t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent simulation service: line-delimited JSON \
          requests (ninja-serve/v1: simulate, analyze, tune, report) over \
          stdio or loopback TCP, with request coalescing, bounded-admission \
          backpressure, and a graceful drain on shutdown")
    Term.(
      const run $ port_arg $ stdio_arg $ max_inflight_arg $ jobs_arg
      $ cache_dir_arg $ no_cache_arg $ backend_arg)

let main_cmd =
  let info =
    Cmd.info "ninja"
      ~doc:
        "Reproduction of 'Can traditional programming bridge the Ninja performance gap?' (ISCA 2012)"
  in
  Cmd.group info
    [ experiments_cmd; ladder_cmd; list_cmd; compile_cmd; profile_cmd;
      report_cmd; vec_report_cmd; analyze_cmd; verify_cmd; tune_cmd;
      serve_cmd ]

let () = exit (Cmd.eval main_cmd)
