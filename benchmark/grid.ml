(* Workload `grid`: the command that regenerates the paper's tables,
   `ninja_cli experiments -j 1`, run cold on a fresh store and then warm
   on the same store, each in a fresh process. The seed is unused: the
   grid is the input. *)

module E = Ninja_core.Experiments
module Jobs = Ninja_core.Jobs
module Store = Ninja_core.Store
module Driver = Ninja_kernels.Driver
module Machine = Ninja_arch.Machine

(* The smoke run uses T2: zero simulations and scale-1 ladders, so it
   checks the plumbing in well under a second. *)
let ids c = if c.Ctx.smoke then [ "t2" ] else []

(* The CLI's stdout must equal the golden (the whole grid) or appear in
   it verbatim (a subset), allowing for the one trailing newline the CLI
   adds after the last table. *)
let check_output c out =
  let golden = Ctx.read_file (Ctx.golden c) in
  let out =
    let n = String.length out in
    if n >= 2 && String.sub out (n - 2) 2 = "\n\n" then String.sub out 0 (n - 1) else out
  in
  if c.Ctx.smoke then
    let n = String.length out and g = String.length golden in
    let rec found i = i + n <= g && (String.sub golden i n = out || found (i + 1)) in
    n > 0 && found 0
  else out = golden

(* "job grid: 250 jobs on 1 domain in 40.0s (250 simulated, ..." and
   "store DIR: 0 hits, 416 misses (0 corrupt dropped), 416 writes". *)
let grid_counts err =
  let lines = String.split_on_char '\n' err in
  let jobs =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "job grid: %d jobs on %d domain%_s in %_fs (%d simulated" (fun t _ s -> (t, s)))
      lines
  in
  let writes =
    List.find_map
      (fun l ->
        match String.rindex_opt l ',' with
        | Some i when String.length l > 6 && String.sub l 0 6 = "store " ->
            Scanf.sscanf_opt (String.sub l (i + 1) (String.length l - i - 1)) " %d writes" Fun.id
        | _ -> None)
      lines
  in
  (jobs, writes)

let run (c : Ctx.t) : Ctx.result =
  (* set-up: create the fresh store with a zero-simulation run (T2's
     static table): process start, library set-up, scale-1 ladders and
     the store's directories; median of nine, each on a fresh store *)
  let store = Filename.concat c.work "grid-store" in
  let setups =
    List.init 9 (fun _ ->
        Ctx.rm_rf store;
        Ctx.run ~poll:false c.cli [ "experiments"; "t2"; "--cache-dir"; store ])
  in
  let setup_failed = List.length (List.filter (fun e -> not (Ctx.exited_ok e)) setups) in
  let p0 =
    if setup_failed = 0 then []
    else [ Printf.sprintf "set-up: %d of %d `experiments t2` runs exited abnormally" setup_failed (List.length setups) ]
  in
  let pass label =
    let out = Filename.concat c.work (label ^ ".out") in
    let err = Filename.concat c.work (label ^ ".err") in
    let e =
      Ctx.run ~stdout_to:out ~stderr_to:err c.cli
        ([ "experiments"; "-j"; "1"; "--cache-dir"; store ] @ ids c)
    in
    let problems = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> problems := (label ^ ": " ^ m) :: !problems) fmt in
    if not (Ctx.exited_ok e) then fail "ninja_cli exited abnormally";
    if not (check_output c (Ctx.read_file out)) then fail "stdout differs from the golden";
    (match grid_counts (Ctx.read_file err) with
    | Some (total, simulated), Some writes ->
        if label = "cold" && simulated <> total then
          fail "%d of %d jobs simulated (want all)" simulated total;
        if label = "warm" && simulated <> 0 then fail "%d jobs simulated (want 0)" simulated;
        if label = "warm" && writes <> 0 then fail "%d store writes (want 0)" writes
    | _ -> fail "no job-grid summary on stderr");
    (e, List.rev !problems)
  in
  let cold, p1 = pass "cold" in
  let warm, p2 = pass "warm" in
  let failed = setup_failed + (if p1 = [] then 0 else 1) + if p2 = [] then 0 else 1 in
  Ctx.of_ops ~setup_n:(List.length setups)
    ~setup_s:(Ctx.median (List.map (fun (e : Ctx.exit_) -> e.wall) setups))
    ~wall_s:(cold.wall +. warm.wall) ~peak_rss_mb:(Float.max cold.peak_mb warm.peak_mb)
    ~attempted:(List.length setups + 2) ~failed ~problems:(p0 @ p1 @ p2)
    [ cold.wall *. 1e3; warm.wall *. 1e3 ]

(* ------------------------------------------------------------------ *)
(* Traced replay: the same grid in-process, job by job, with a span     *)
(* around each call into a layer.                                       *)

let render (e : E.experiment) =
  Fmt.str "## %s — %s (%s)@.@." (String.uppercase_ascii e.id) e.title e.claim
  ^ String.concat "" (List.map (Fmt.str "%a@." Ninja_report.Table.render) (e.run ()))

let ladder_span (b : Driver.benchmark) f = Span.with_ ("kernels.ladder:" ^ b.b_name) f

(* One non-tuned job through the store, as the experiment layer does it:
   compile for the key, probe, and on a miss simulate and write back.
   Returns whether the store served it. *)
let replay_job st ~steps (j : Jobs.job) =
  let machine = j.machine and step_name = j.step in
  let step = List.find (fun (s : Driver.step) -> s.step_name = step_name) steps in
  let prog = Span.with_ "kernels.make" (fun () -> step.make ~machine) in
  let backend = Ninja_vm.Interp.strategy_tag (Ninja_vm.Interp.default_strategy ()) in
  let key = Span.with_ "store.key" (fun () -> Store.key ~backend st ~machine ~step_name prog) in
  match Span.with_ "store.load" (fun () -> Store.load st ~key ~machine) with
  | Some _ -> true
  | None ->
      let t0 = Ctx.now () in
      let r = Span.with_ "sim.run_step" (fun () -> Driver.run_step ~machine step) in
      let cost_s = Ctx.now () -. t0 in
      Span.with_ "store.save" (fun () -> Store.save st ~key ~machine ~step_name ~cost_s r);
      false

type replay = {
  cold : Span.t;
  warm : Span.t;
  store_stats : Store.stats;
  store_bytes : int;
  tuner_counts : int * int * int * int;  (* enumerated, evaluated, duplicates, rejected *)
  r_problems : string list;
}

let replay (c : Ctx.t) =
  let experiments = match ids c with [] -> E.all | l -> List.map E.find l in
  let jobs = Jobs.all_jobs ~experiments () in
  let plain, tuned = List.partition (fun (j : Jobs.job) -> j.step <> "tuned") jobs in
  let dir = Filename.concat c.work "replay-store" in
  Ctx.rm_rf dir;
  let st = Store.open_ ~dir () in
  E.set_store (Some st);
  E.reset_cache ();
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let counts = ref (0, 0, 0, 0) in
  let add4 (a, b, c, d) (e, f, g, h) = (a + e, b + f, c + g, d + h) in
  let pass ~warm =
    List.iteri
      (fun i (j : Jobs.job) ->
        Span.with_ ~req:i "grid.job" (fun () ->
            let steps =
              if warm then E.ladder j.bench ~scale:j.bench.default_scale
              else ladder_span j.bench (fun () -> E.ladder j.bench ~scale:j.bench.default_scale)
            in
            let hit = replay_job st ~steps j in
            if hit <> warm then fail "job %d: store %s" i (if warm then "missed" else "hit")))
      plain;
    List.iteri
      (fun i (j : Jobs.job) ->
        Span.with_ ~req:(List.length plain + i) "grid.job" (fun () ->
            let t = Span.with_ "tuner.tune" (fun () -> E.tuned_result ~machine:j.machine j.bench) in
            let simulated = t.Ninja_core.Tuner.t_simulated in
            if warm && simulated <> 0 then
              fail "warm tuning of %s simulated %d candidates" j.bench.b_name simulated;
            if not warm then counts := add4 !counts (Ninja_core.Tuner.counts t)))
      tuned;
    (* the renders read every report through the memo; fill it from the
       store first so they stay pure table formatting, as after a prefill.
       Every plain job must come from the store: a simulation or a write
       here means replay_job's keys no longer match the experiment
       layer's, and the spans above would describe the copy, not it. *)
    Span.with_ "experiments.memo_fill" (fun () ->
        let fill = List.iter (fun (j : Jobs.job) -> ignore (E.run_step_cached ~machine:j.machine j.bench j.step)) in
        let writes0 = (Store.stats st).writes and _, sims0 = E.cache_stats () in
        fill plain;
        let writes = (Store.stats st).writes - writes0 and _, sims = E.cache_stats () in
        if sims <> sims0 || writes <> 0 then
          fail "%s memo fill simulated %d plain jobs and wrote %d store entries (want 0 and 0)"
            (if warm then "warm" else "cold") (sims - sims0) writes;
        fill tuned);
    Span.with_ "store.flush" (fun () -> Store.flush_costs st);
    let out =
      String.concat ""
        (List.map (fun (e : E.experiment) -> Span.with_ ("experiments.run:" ^ e.id) (fun () -> render e)) experiments)
    in
    if not (check_output c out) then fail "%s replay output differs from the golden" (if warm then "warm" else "cold")
  in
  Span.with_ "grid.cold" (fun () -> pass ~warm:false);
  let writes_cold = (Store.stats st).writes in
  E.reset_cache ();
  Span.with_ "grid.warm" (fun () ->
      (* a fresh process rebuilds every ladder and re-profiles T4; this
         process has both memoized, so pay them explicitly *)
      List.iter
        (fun (b : Driver.benchmark) ->
          ladder_span b (fun () -> ignore (b.steps ~scale:b.default_scale : Driver.step list)))
        (List.filter
           (fun (b : Driver.benchmark) -> List.exists (fun (j : Jobs.job) -> j.bench.b_name = b.b_name) jobs)
           Ninja_kernels.Registry.all);
      if List.exists (fun (e : E.experiment) -> e.id = "t4") experiments then
        Span.with_ "experiments.t4_profile" (fun () ->
            List.iter
              (fun m ->
                List.iter
                  (fun (b : Driver.benchmark) ->
                    let step =
                      List.find (fun (s : Driver.step) -> s.step_name = "ninja") (E.ladder b ~scale:b.default_scale)
                    in
                    ignore (Ninja_profile.Profile.of_step ~machine:m ~prog_name:b.b_name step))
                  Ninja_kernels.Registry.all)
              [ Machine.westmere; Machine.knights_ferry ]);
      pass ~warm:true);
  let stats = Store.stats st in
  if stats.writes <> writes_cold then fail "warm replay wrote %d store entries" (stats.writes - writes_cold);
  let bytes = Ctx.dir_bytes dir in
  E.set_store None;
  let root name = List.find (fun (s : Span.t) -> s.name = name) (Span.all ()) in
  {
    cold = root "grid.cold";
    warm = root "grid.warm";
    store_stats = stats;
    store_bytes = bytes;
    tuner_counts = !counts;
    r_problems = List.rev !problems;
  }
