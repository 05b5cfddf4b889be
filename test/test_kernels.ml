(* Integration tests: every benchmark's every ladder variant must reproduce
   the OCaml reference results, on both a CPU-class and a MIC-class machine
   (different vector widths, thread counts, FMA availability), and compiled
   parallel variants must be free of data races. *)

module Driver = Ninja_kernels.Driver
module Registry = Ninja_kernels.Registry
module Machine = Ninja_arch.Machine

let test_scale = 1

let validate_case (machine : Machine.t) (bench : Driver.benchmark) =
  let name = Fmt.str "%s on %s" bench.b_name machine.name in
  Alcotest.test_case name `Quick (fun () ->
      let steps = bench.steps ~scale:test_scale in
      Alcotest.(check int) "five ladder steps" 5 (List.length steps);
      List.iter
        (fun (step : Driver.step) ->
          match Driver.validate_step ~machine step with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Fmt.str "%s / %s: %s" bench.b_name step.step_name e))
        steps)

let race_case (bench : Driver.benchmark) =
  Alcotest.test_case (bench.b_name ^ " race-free") `Quick (fun () ->
      let machine = Machine.westmere in
      let steps = bench.steps ~scale:test_scale in
      List.iter
        (fun (step : Driver.step) ->
          if step.parallel then begin
            let prog = step.make ~machine in
            let mem = Driver.memory_for prog (step.bindings ()) in
            try
              for run = 0 to step.runs machine - 1 do
                step.prepare machine run mem;
                ignore
                  (Ninja_vm.Interp.run ~n_threads:machine.cores
                     ~width:machine.simd_width ~check_races:true prog mem)
              done
            with Ninja_vm.Interp.Race races ->
              Alcotest.fail
                (Fmt.str "%s / %s: %s" bench.b_name step.step_name
                   (String.concat "; " races))
          end)
        steps)

let determinism_case (bench : Driver.benchmark) =
  Alcotest.test_case (bench.b_name ^ " deterministic timing") `Quick (fun () ->
      let machine = Machine.westmere in
      let step = List.nth (bench.steps ~scale:test_scale) 4 (* ninja *) in
      let r1 = Driver.run_step ~machine step in
      let r2 = Driver.run_step ~machine step in
      Alcotest.(check (float 1e-9)) "same cycles" r1.cycles r2.cycles)

let ladder_monotone_case (bench : Driver.benchmark) =
  (* the ninja variant must never be slower than naive serial *)
  Alcotest.test_case (bench.b_name ^ " ninja beats naive") `Quick (fun () ->
      let machine = Machine.westmere in
      let steps = bench.steps ~scale:test_scale in
      let time name =
        (Driver.run_step ~machine
           (List.find (fun (s : Driver.step) -> s.step_name = name) steps))
          .cycles
      in
      Alcotest.(check bool) "ninja faster" true (time "ninja" < time "naive serial"))

(* Declared shapes must describe exactly what the bindings hold, as
   memory_for lays them out: the static verifier checks bounds against
   the shapes alone, so a wrong one would quietly weaken it. *)
let shapes_case (bench : Driver.benchmark) =
  Alcotest.test_case (bench.b_name ^ " shapes match bindings") `Quick (fun () ->
      List.iter
        (fun scale ->
          List.iter
            (fun (step : Driver.step) ->
              let what = Fmt.str "%s / %s at scale %d" bench.b_name step.step_name scale in
              let args = step.bindings () in
              Alcotest.(check (list string)) (what ^ ": names") (List.map fst step.shapes)
                (List.map fst args);
              List.iter2
                (fun (name, declared) (_, arg) ->
                  if declared <> Driver.shape_of_arg arg then
                    Alcotest.failf "%s: binding %s differs from its declared shape" what name)
                step.shapes args;
              List.iter
                (fun (machine : Machine.t) ->
                  let prog = step.make ~machine in
                  let mem = Driver.memory_for prog args in
                  Array.iter
                    (fun (d : Ninja_vm.Isa.buffer_decl) ->
                      let name = d.buf_name in
                      let param = String.starts_with ~prefix:"__p_" name in
                      let key = if param then String.sub name 4 (String.length name - 4) else name in
                      match (List.assoc_opt key step.shapes, snd (Ninja_vm.Memory.find mem name)) with
                      | None, _ ->
                          if not (String.starts_with ~prefix:"__env_" name
                                  || String.starts_with ~prefix:"__red_" name)
                          then Alcotest.failf "%s on %s: %s has no shape" what machine.name name
                      | Some shape, buf ->
                          let ok =
                            match (shape, buf) with
                            | Driver.F_array n, Ninja_vm.Memory.Fbuf a -> (not param) && Array.length a = n
                            | Driver.I_array n, Ninja_vm.Memory.Ibuf a -> (not param) && Array.length a = n
                            | Driver.F_scalar, Ninja_vm.Memory.Fbuf [| _ |]
                            | Driver.I_scalar, Ninja_vm.Memory.Ibuf [| _ |] -> param
                            | _ -> false
                          in
                          if not ok then
                            Alcotest.failf "%s on %s: buffer %s does not match its shape" what
                              machine.name name)
                    prog.buffers)
                [ Machine.westmere; Machine.knights_ferry ])
            (bench.steps ~scale))
        [ 1; bench.default_scale ])

(* The static path reads shapes only: building every default-scale
   ladder and verifying every step on both machines builds no dataset,
   while running one rung builds the one dataset all five share. *)
let static_path_case =
  Alcotest.test_case "verify builds no dataset" `Quick (fun () ->
      let before = Driver.forced_count () in
      List.iter
        (fun (b : Driver.benchmark) ->
          List.iter
            (fun (step : Driver.step) ->
              List.iter
                (fun machine ->
                  if Driver.verify_step ~machine step <> [] then
                    Alcotest.failf "%s / %s does not verify" b.b_name step.step_name)
                [ Machine.westmere; Machine.knights_ferry ])
            (b.steps ~scale:b.default_scale))
        Registry.all;
      Alcotest.(check int) "datasets built by verify" before (Driver.forced_count ());
      let steps = Ninja_kernels.Nbody.benchmark.steps ~scale:1 in
      List.iter (fun (s : Driver.step) -> ignore (s.bindings ())) steps;
      Alcotest.(check int) "one dataset per ladder" (before + 1) (Driver.forced_count ()))

(* Ladders are shared across domains (the grid's pool, the tuner, the
   service): forcing one benchmark's data from four domains at once must
   build it once and hand every caller the same arrays. *)
let shared_data_case =
  Alcotest.test_case "data forced from 4 domains" `Quick (fun () ->
      let builds = Atomic.make 0 in
      let o = Driver.once (fun () -> Atomic.incr builds; Unix.sleepf 0.05; ref 0) in
      let got = Ninja_util.Pool.map_list ~domains:4 (fun _ -> Driver.force o) [ 1; 2; 3; 4 ] in
      Alcotest.(check int) "built once" 1 (Atomic.get builds);
      List.iter (fun r -> Alcotest.(check bool) "same value" true (r == List.hd got)) got;
      let steps = Ninja_kernels.Treesearch.benchmark.steps ~scale:2 in
      let before = Driver.forced_count () in
      let trees =
        Ninja_util.Pool.map_list ~domains:4
          (fun (s : Driver.step) ->
            match List.assoc "tree" (s.bindings ()) with
            | Driver.Farr t -> t
            | _ -> Alcotest.fail "tree is not a float array")
          (List.filteri (fun i _ -> i < 4) steps)
      in
      Alcotest.(check int) "one TreeSearch dataset" (before + 1) (Driver.forced_count ());
      List.iter (fun t -> Alcotest.(check bool) "same tree" true (t == List.hd trees)) trees)

(* memory_for's binding errors come back as a result, like traps. *)
let bad_binding_case =
  Alcotest.test_case "validate_step reports a missing binding" `Quick (fun () ->
      let step = List.hd (Ninja_kernels.Nbody.benchmark.steps ~scale:1) in
      let step = { step with bindings = (fun () -> List.remove_assoc "x" (step.bindings ())) } in
      Alcotest.(check (result unit string))
        "error" (Error "binding: missing argument: x")
        (Driver.validate_step ~machine:Machine.westmere step))

let suite =
  ( "kernels",
    List.concat
      [ List.concat_map
          (fun b -> [ validate_case Machine.westmere b; validate_case Machine.knights_ferry b ])
          Registry.all;
        List.map race_case Registry.all;
        List.map determinism_case Registry.all;
        List.map ladder_monotone_case Registry.all;
        List.map shapes_case Registry.all;
        [ static_path_case; shared_data_case; bad_binding_case ] ] )
