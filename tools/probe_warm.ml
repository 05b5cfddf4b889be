(* Warm-path probe: the static layers a warm `ninja_cli experiments`
   process pays for, timed one at a time, in process, on a store that
   already holds every report.

     ninja_cli experiments -j 1 --cache-dir DIR     # once, to fill DIR
     dune exec tools/probe_warm.exe -- DIR [REPS]

   Layers, over the whole grid (10 benchmarks x Westmere and Knights
   Ferry where a layer is per machine):
   - ladder builds: [bench.steps] at the default scale;
   - step.make: codegen of every ladder step, per machine;
   - tuner admission: [Tuner.plan] for the 20 tuning sessions
     (transform, compile, verify, fingerprint, dedupe);
   - Verify: [Driver.verify_step] on every admitted candidate;
   - decode + fingerprint: of the ladder programs and the candidates;
   - Store.key: [Store.key_of_fingerprint] for the same programs;
   - Store.load: every report entry in DIR;
   - derived loads: every derived entry in DIR;
   - rendering: every experiment's tables after a prefill;
   - warm grid: prefill plus rendering on a fresh memo, for scale.
   Each figure is the median of REPS rounds (default 5). Copy the file
   into a parent checkout for a before column (a parent without
   [Store.key_of_fingerprint] needs that row taken out). *)

module Machine = Ninja_arch.Machine
module Driver = Ninja_kernels.Driver
module Registry = Ninja_kernels.Registry
module Decode = Ninja_vm.Decode
module Store = Ninja_core.Store
module Tuner = Ninja_core.Tuner
module Experiments = Ninja_core.Experiments

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let row ~reps name ~items f =
  let dt = median (List.init reps (fun _ -> timed f)) in
  Fmt.pr "%-28s %7.1f ms  (%d %s)@." name (dt *. 1e3) (fst items) (snd items)

let machines = [ Machine.westmere; Machine.knights_ferry ]
let ladder (b : Driver.benchmark) = Experiments.ladder b ~scale:b.default_scale

(* Report entries are [aa/<key>.json], derived ones [aa/<key>.<kind>.json]
   with the kind's '/' stored as '-' (kinds are "<name>/v<n>"). *)
let store_entries dir =
  let subdirs =
    List.filter
      (fun d -> Sys.is_directory (Filename.concat dir d))
      (Array.to_list (Sys.readdir dir))
  in
  List.concat_map
    (fun d ->
      let sub = Filename.concat dir d in
      List.filter_map
        (fun f ->
          match String.split_on_char '.' f with
          | [ key; "json" ] -> Some (`Report (Filename.concat sub f, key))
          | [ key; kind; "json" ] ->
              let i = String.rindex kind '-' in
              let name = String.sub kind 0 i in
              let version = String.sub kind (i + 1) (String.length kind - i - 1) in
              Some (`Derived (key, name ^ "/" ^ version))
          | _ -> None)
        (Array.to_list (Sys.readdir sub)))
    subdirs

(* [Store.load] only compares the entry's machine name with the caller's
   machine, so a Westmere record renamed after the entry stands in for
   the ablation variants. *)
let entry_machine path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Ninja_report.Json.(member "machine" (parse text)) with
  | Some (Ninja_report.Json.Str name) -> { Machine.westmere with name }
  | _ -> failwith ("probe_warm: no machine in " ^ path)

let render_all () =
  List.iter
    (fun (e : Experiments.experiment) ->
      List.iter
        (fun t -> ignore (Fmt.str "%a" Ninja_report.Table.render t : string))
        (e.run ()))
    Experiments.all

let () =
  let dir, reps =
    match Array.to_list Sys.argv with
    | [ _; dir ] -> (dir, 5)
    | [ _; dir; reps ] -> (dir, int_of_string reps)
    | _ ->
        prerr_endline "usage: probe_warm DIR [REPS]";
        exit 2
  in
  let st = Store.open_ ~dir () in
  Experiments.set_store (Some st);
  let prefill () =
    Experiments.reset_cache ();
    ignore
      (Ninja_core.Jobs.prefill ~domains:1 ~experiments:Experiments.all ()
        : Ninja_core.Jobs.summary)
  in
  let check_warm () =
    if (Store.stats st).misses > 0 then begin
      Fmt.epr
        "probe_warm: %s is not warm; run `ninja_cli experiments -j 1 --cache-dir %s` \
         first@."
        dir dir;
      exit 1
    end
  in
  prefill ();
  check_warm ();
  let benches = Registry.all in
  let sessions = List.concat_map (fun m -> List.map (fun b -> (m, b)) benches) machines in
  let ladder_steps =
    List.concat_map (fun (m, b) -> List.map (fun s -> (m, s)) (ladder b)) sessions
  in
  let candidates =
    List.concat_map
      (fun (machine, b) ->
        List.filter_map
          (fun (_, s) -> Option.map (fun s -> (machine, s)) s)
          (Tuner.candidate_steps ~machine ~steps:(ladder b) b))
      sessions
  in
  let progs =
    List.map
      (fun (machine, (s : Driver.step)) -> (machine, s.step_name, s.make ~machine))
      (ladder_steps @ candidates)
  in
  let fps =
    List.map
      (fun (machine, name, p) -> (machine, name, Decode.fingerprint (Decode.decode p)))
      progs
  in
  let entries = store_entries dir in
  let reports =
    List.filter_map
      (function `Report (path, key) -> Some (key, entry_machine path) | `Derived _ -> None)
      entries
  in
  let derived =
    List.filter_map (function `Derived kk -> Some kk | `Report _ -> None) entries
  in
  let backend = Ninja_vm.Interp.strategy_tag (Ninja_vm.Interp.default_strategy ()) in
  let row = row ~reps in
  Fmt.pr "warm-path layers, median of %d rounds (store %s)@." reps dir;
  row "ladder builds" ~items:(List.length benches, "benchmarks") (fun () ->
      List.iter (fun (b : Driver.benchmark) -> ignore (b.steps ~scale:b.default_scale)) benches);
  row "step.make" ~items:(List.length ladder_steps, "steps") (fun () ->
      List.iter (fun (machine, (s : Driver.step)) -> ignore (s.make ~machine)) ladder_steps);
  row "tuner admission" ~items:(List.length sessions, "sessions") (fun () ->
      List.iter (fun (machine, b) -> ignore (Tuner.plan ~machine ~steps:(ladder b) b)) sessions);
  row "Verify" ~items:(List.length candidates, "candidates") (fun () ->
      List.iter (fun (machine, s) -> ignore (Driver.verify_step ~machine s)) candidates);
  row "decode + fingerprint" ~items:(List.length progs, "programs") (fun () ->
      List.iter (fun (_, _, p) -> ignore (Decode.fingerprint (Decode.decode p))) progs);
  row "Store.key" ~items:(List.length fps, "keys") (fun () ->
      List.iter
        (fun (machine, step_name, fp) ->
          ignore (Store.key_of_fingerprint ~backend st ~machine ~step_name fp))
        fps);
  row "Store.load" ~items:(List.length reports, "entries") (fun () ->
      List.iter
        (fun (key, machine) ->
          if Store.load st ~key ~machine = None then failwith ("probe_warm: load " ^ key))
        reports);
  row "derived loads" ~items:(List.length derived, "entries") (fun () ->
      List.iter
        (fun (key, kind) ->
          ignore
            (Store.derived st ~key ~kind ~encode:Fun.id ~decode:Fun.id (fun () ->
                 failwith ("probe_warm: derived " ^ key))))
        derived);
  row "rendering" ~items:(List.length Experiments.all, "experiments") render_all;
  row "warm grid (prefill+render)" ~items:(List.length Experiments.all, "experiments")
    (fun () ->
      prefill ();
      render_all ());
  check_warm ()
