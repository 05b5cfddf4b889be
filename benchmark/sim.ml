(* Workload `sim_kernels`: the simulator alone, in process, through the
   public kernels/vm/arch entry points — no front-end cache, store or
   pool. 10 benchmarks x {Westmere, Knights Ferry} x {naive serial,
   ninja}: scalar jobs are interpreter-bound, vector jobs carry more
   cache model, so a VM change and a cache-model change move different
   jobs. *)

module Driver = Ninja_kernels.Driver
module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Interp = Ninja_vm.Interp
module Json = Ninja_report.Json

type job = { bench : Driver.benchmark; machine : Machine.t; step : Driver.step }

let scalar j = j.step.step_name = "naive serial"
let job_key j = Printf.sprintf "%s/%s/%s" j.bench.b_name j.machine.name j.step.step_name

let jobs ~smoke ~ladder =
  let benches =
    if smoke then [ Ninja_kernels.Registry.find "BlackScholes" ] else Ninja_kernels.Registry.all
  in
  let machines = if smoke then [ Machine.westmere ] else [ Machine.westmere; Machine.knights_ferry ] in
  List.concat_map
    (fun (b : Driver.benchmark) ->
      let steps = ladder b in
      List.concat_map
        (fun machine ->
          List.map
            (fun name ->
              { bench = b; machine; step = List.find (fun (s : Driver.step) -> s.step_name = name) steps })
            [ "naive serial"; "ninja" ])
        machines)
    benches

(* The oracle: instructions, cycles (exact, as a hex float) and DRAM
   bytes of every job's report. *)
let fingerprint (r : Timing.report) =
  Json.Obj
    [ ("instructions", Json.Num (float_of_int r.instructions));
      ("cycles", Json.Str (Printf.sprintf "%h" r.cycles));
      ("dram_bytes", Json.Num (float_of_int (r.dram_read_bytes + r.dram_write_bytes))) ]

let expected_file c = Ctx.expected c "sim_kernels.json"

let load_expected c =
  match Json.parse (Ctx.read_file (expected_file c)) with
  | Json.Obj kv -> kv
  | _ -> failwith "sim_kernels.json: not an object"

let check expected j r =
  match List.assoc_opt (job_key j) expected with
  | Some e when e = fingerprint r -> None
  | Some _ -> Some (job_key j ^ ": report differs from benchmark/expected/sim_kernels.json")
  | None -> Some (job_key j ^ ": missing from benchmark/expected/sim_kernels.json")

let build_ladder (b : Driver.benchmark) = b.steps ~scale:b.default_scale

let time f =
  let t0 = Ctx.now () in
  let r = f () in
  (r, Ctx.now () -. t0)

let run (c : Ctx.t) : Ctx.result =
  let expected = load_expected c in
  let problems = ref [] and attempted = ref 0 in
  let run_job j =
    incr attempted;
    let r, dt = time (fun () -> Driver.run_step ~machine:j.machine j.step) in
    Option.iter (fun p -> problems := p :: !problems) (check expected j r);
    dt
  in
  (* set-up: ladder builds plus one warm-up round *)
  let jobs, setup_s =
    time (fun () ->
        let jobs = Array.of_list (jobs ~smoke:c.smoke ~ladder:build_ladder) in
        Array.iter (fun j -> ignore (run_job j : float)) jobs;
        jobs)
  in
  let times = Array.make (Array.length jobs) [] in
  let round_walls = ref [] in
  let rng = Ninja_util.Rng.create c.seed in
  let t_start = Ctx.now () in
  let rounds = ref 0 in
  (* at least three rounds, so every job's median is over several runs *)
  while !rounds < (if c.smoke then 1 else 3) || ((not c.smoke) && Ctx.now () -. t_start < c.seconds) do
    let order = Array.init (Array.length jobs) Fun.id in
    Ninja_util.Rng.shuffle rng order;
    let wall =
      Array.fold_left
        (fun acc i ->
          let dt = run_job jobs.(i) in
          times.(i) <- dt :: times.(i);
          acc +. dt)
        0. order
    in
    round_walls := wall :: !round_walls;
    incr rounds
  done;
  Ctx.of_ops ~wall_n:!rounds ~setup_s ~wall_s:(Ctx.median !round_walls) ~peak_rss_mb:(Ctx.vm_hwm_mb 0)
    ~attempted:!attempted ~failed:(List.length !problems)
    ~problems:(List.sort_uniq compare !problems)
    (Array.to_list (Array.map (fun ts -> Ctx.median ts *. 1e3) times))

(* `--regen-expected`: rewrite the oracle from the default backend,
   after checking that the Tree reference walker agrees on every job. *)
let regen (c : Ctx.t) =
  let entries =
    List.map
      (fun j ->
        let r = Driver.run_step ~machine:j.machine j.step in
        let t = Driver.run_step ~strategy:Interp.Tree ~machine:j.machine j.step in
        if fingerprint r <> fingerprint t then failwith (job_key j ^ ": Tree backend disagrees");
        (job_key j, fingerprint r))
      (jobs ~smoke:false ~ladder:build_ladder)
  in
  Ctx.write_file (expected_file c) (Json.to_string (Json.Obj entries))

(* ------------------------------------------------------------------ *)
(* Traced decomposition: where a job's simulate time goes.             *)

type decomposition = {
  prepare_s : float;  (* Interp.session: decode, optimize, compile *)
  exec_s : float * float;  (* scalar, vector: launches with no event sink *)
  model_s : float * float;  (* scalar, vector: run_step minus the rest *)
  run_step_vector_s : float;
  instructions : int;
  events : int;
  accesses : (Ninja_arch.Hierarchy.level * int) list;
  mips : float * float;  (* geomean simulated Minstr per host second *)
  d_problems : string list;
}

(* Execute a step's launches on a fresh session, the way Timing.simulate
   does, but with [sink] in place of the cache hierarchy. *)
let session ?sink j prog =
  let m = j.machine in
  let mem = Driver.memory_for prog (j.step.bindings ()) in
  let n_threads = if j.step.parallel then m.cores else 1 in
  let launch = Interp.session ~n_threads ~width:m.simd_width ?sink prog mem in
  fun () ->
    for run = 0 to j.step.runs m - 1 do
      j.step.prepare m run mem;
      ignore (launch () : Interp.result)
    done

type row = {
  job : job;
  report : Timing.report;
  prepare : float;
  exec : float;
  model : float;
  run_step : float;
  n_events : int;
}

let decompose (c : Ctx.t) ~ladder =
  let expected = load_expected c in
  let problems = ref [] in
  let rows =
    List.mapi
      (fun i j ->
        Span.with_ ~req:i "sim.job" (fun () ->
            let prog, compile =
              time (fun () -> Span.with_ "kernels.make" (fun () -> j.step.make ~machine:j.machine))
            in
            let launch, prepare = time (fun () -> Span.with_ "vm.prepare" (fun () -> session j prog)) in
            let (), exec = time (fun () -> Span.with_ "vm.exec" launch) in
            let noop = session ~sink:ignore j prog in
            let (), exec_noop = time (fun () -> Span.with_ "vm.exec_noop_sink" noop) in
            let n_events = ref 0 in
            Span.with_ "vm.exec_counting_sink" (session ~sink:(fun _ -> incr n_events) j prog);
            let report, run_step =
              time (fun () ->
                  Span.with_ "sim.run_step" (fun () -> Driver.run_step ~machine:j.machine j.step))
            in
            Option.iter (fun p -> problems := p :: !problems) (check expected j report);
            (* may be negative for one job under noise; only sums are reported *)
            let model = run_step -. compile -. prepare -. exec_noop in
            { job = j; report; prepare; exec; model; run_step; n_events = !n_events }))
      (jobs ~smoke:c.smoke ~ladder)
  in
  let sum sel f = List.fold_left (fun acc r -> if sel r.job then acc +. f r else acc) 0. rows in
  let vector j = not (scalar j) in
  let split f = (sum scalar f, sum vector f) in
  let nonneg (a, b) = (Float.max 0. a, Float.max 0. b) in
  let isum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let mips sel =
    match List.filter (fun r -> sel r.job) rows with
    | [] -> 0.
    | l ->
        Ninja_util.Stats.geomean
          (List.map (fun r -> float_of_int r.report.instructions /. r.run_step /. 1e6) l)
  in
  {
    prepare_s = sum (fun _ -> true) (fun r -> r.prepare);
    exec_s = split (fun r -> r.exec);
    model_s = nonneg (split (fun r -> r.model));
    run_step_vector_s = sum vector (fun r -> r.run_step);
    instructions = isum (fun r -> r.report.instructions);
    events = isum (fun r -> r.n_events);
    accesses =
      List.map
        (fun l -> (l, isum (fun r -> List.assoc l r.report.level_accesses)))
        Ninja_arch.Hierarchy.[ L1; L2; LLC; Dram ];
    mips = (mips scalar, mips vector);
    d_problems = List.rev !problems;
  }
