(* Regenerate test/golden_opt_report.txt: the per-loop source opt-reports
   for every benchmark Cee source, followed by the auto-tuner's static
   plans, rendered exactly as the golden test renders them. The
   opt-report half pins the diagnostics (codes, spans, blocking-dependence
   remarks) the icc-style report emits for every benchmark. The tune-plan
   half pins the auto-tuner's static search space on the reference
   machine: the fixed candidate enumeration, which candidates the
   legality/compile/verify pruning admits, and the fingerprint dedup —
   all without running a single simulation.

   Usage: dune exec tools/gen_opt_golden.exe > test/golden_opt_report.txt *)

module Driver = Ninja_kernels.Driver
module Machine = Ninja_arch.Machine
module Optreport = Ninja_lang.Optreport

(* Per-loop source opt-reports (machine-independent: pure static analysis). *)
let render_opt_reports () =
  Ninja_kernels.Registry.all
  |> List.concat_map (fun (b : Driver.benchmark) ->
         b.Driver.b_sources
         |> List.map (fun (vname, src) ->
                let name = b.Driver.b_name ^ "/" ^ vname in
                Fmt.str "# opt-report %s@.%a" name Optreport.pp
                  (Optreport.analyze_src ~name src)))
  |> String.concat "\n"

(* Static tuner plans (reference machine, smallest scale): enumeration,
   pruning and dedup only — zero simulations. *)
let render_tune_plans () =
  let machine = Machine.westmere in
  Ninja_kernels.Registry.all
  |> List.map (fun (b : Driver.benchmark) ->
         let steps = b.steps ~scale:1 in
         Fmt.str "# tune-plan %s@.%a" b.Driver.b_name Ninja_core.Tuner.pp_plan
           (Ninja_core.Tuner.plan ~machine ~steps b))
  |> String.concat "\n"

let () =
  print_string
    (render_opt_reports () ^ "\n" ^ render_tune_plans ())
