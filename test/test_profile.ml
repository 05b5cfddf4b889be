(* Cycle-attribution profiler tests: collector aggregation over synthetic
   event streams, determinism of full profiles, the Chrome-trace golden
   shape, and the tentpole integrity property — the profiler's
   event-derived bottleneck classification must equal the timing report's
   for the whole suite on both machines (T4 vs T1). *)

module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Driver = Ninja_kernels.Driver
module Registry = Ninja_kernels.Registry
module Profile = Ninja_profile.Profile
module Chrome = Ninja_profile.Chrome
module Trace = Ninja_vm.Trace
module Counts = Ninja_vm.Counts

let westmere = Machine.westmere
let mic = Machine.knights_ferry

(* A minimal but well-formed report for finalizing synthetic collectors
   (the collector only reads [cycles] from it for fractions). *)
let fake_report machine ~cycles : Timing.report =
  {
    machine;
    n_threads = 1;
    cycles;
    seconds = cycles /. (machine.Machine.freq_ghz *. 1e9);
    issue_cycles = 0.;
    stall_cycles = 0.;
    dram_time = 0.;
    overhead_cycles = 0.;
    dram_read_bytes = 0;
    dram_write_bytes = 0;
    counts = Counts.create 1;
    instructions = 0;
    level_accesses = [];
    bound = Compute;
  }

let feed c evs = List.iter (Profile.sink c) evs

(* ------------------------------------------------------------------ *)
(* Synthetic streams: known aggregates                                  *)

let test_collector_fractions () =
  let c = Profile.collector ~machine:westmere ~n_threads:1 in
  let phase : Trace.scope = Phase { index = 0; parallel = false } in
  feed c [ Enter { thread = 0; scope = phase }; Enter { thread = 0; scope = Loop "hot" } ];
  for _ = 1 to 10 do
    feed c [ Op { thread = 0; cls = Salu } ]
  done;
  feed c
    [ Access
        { thread = 0; level = Dram; covered = false; stall = 25.; bytes = 64;
          write = false; dram_bytes = 64 };
      Lanes { thread = 0; active = 3; width = 4 };
      Exit { thread = 0; scope = Loop "hot" };
      Exit { thread = 0; scope = phase } ];
  let p =
    Profile.finalize c ~report:(fake_report westmere ~cycles:100.)
      ~prog_name:"synthetic" ~step_name:"unit"
  in
  (* event-derived chip numbers *)
  let expected_issue =
    let counts = Counts.create 1 in
    Counts.add counts ~thread:0 Salu 10;
    Timing.issue_time westmere counts ~thread:0
  in
  Alcotest.(check (float 0.)) "issue repriced from Op events" expected_issue p.issue;
  Alcotest.(check (float 0.)) "stall summed from Access events" 25. p.stall;
  Alcotest.(check (float 1e-9)) "dram_time from traffic deltas"
    (64. /. Machine.bytes_per_cycle westmere)
    p.dram_time;
  Alcotest.(check (float 0.)) "all work is serial (Seq phase)"
    (expected_issue +. 25.) p.serial;
  (match p.bound with
  | Latency -> ()
  | b -> Alcotest.failf "expected latency-bound, got %s" (Timing.bound_name b));
  let f = Profile.fractions p in
  Alcotest.(check (float 1e-12)) "latency fraction" 0.25 f.f_latency;
  (* attribution rows: first-seen order, innermost-scope charging *)
  (match p.rows with
  | [ ph; hot ] ->
      Alcotest.(check string) "phase label" "phase 0 (seq)" ph.r_label;
      Alcotest.(check int) "phase got no instructions" 0 ph.r_instrs;
      Alcotest.(check string) "loop label" "hot" hot.r_label;
      Alcotest.(check int) "loop instructions" 10 hot.r_instrs;
      Alcotest.(check (float 0.)) "loop stall" 25. hot.r_stall;
      Alcotest.(check (float 1e-12)) "loop share" 1. hot.r_share;
      Alcotest.(check int) "loop DRAM-level accesses" 1 hot.r_levels.(3);
      (match hot.r_lane_util with
      | Some u -> Alcotest.(check (float 1e-12)) "lane utilization" 0.75 u
      | None -> Alcotest.fail "expected lane utilization")
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  (* spans: one per scope, loop nested inside the phase *)
  (match p.spans with
  | [ hot; ph ] ->
      Alcotest.(check string) "inner span closes first" "hot" hot.sp_label;
      Alcotest.(check string) "outer span closes last" "phase 0 (seq)" ph.sp_label;
      Alcotest.(check bool) "loop span inside phase span" true
        (hot.sp_t0 >= ph.sp_t0 && hot.sp_t1 <= ph.sp_t1);
      Alcotest.(check (float 1e-9)) "span length = issue + stall"
        (expected_issue +. 25.) (hot.sp_t1 -. hot.sp_t0)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_collector_unbalanced () =
  let c = Profile.collector ~machine:westmere ~n_threads:1 in
  (match Profile.sink c (Exit { thread = 0; scope = Loop "ghost" }) with
  | () -> Alcotest.fail "expected Invalid_argument on exit without enter"
  | exception Invalid_argument _ -> ());
  let c2 = Profile.collector ~machine:westmere ~n_threads:1 in
  feed c2 [ Enter { thread = 0; scope = Loop "a" } ];
  (match Profile.sink c2 (Exit { thread = 0; scope = Loop "b" }) with
  | () -> Alcotest.fail "expected Invalid_argument on mismatched exit"
  | exception Invalid_argument _ -> ());
  let c3 = Profile.collector ~machine:westmere ~n_threads:1 in
  feed c3 [ Enter { thread = 0; scope = Loop "open" } ];
  match
    Profile.finalize c3 ~report:(fake_report westmere ~cycles:1.)
      ~prog_name:"x" ~step_name:"y"
  with
  | _ -> Alcotest.fail "expected Invalid_argument on finalize with open scope"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Real runs: exactness, determinism, golden trace                      *)

let profile_scale1 machine bench_name step_name =
  let b = Registry.find bench_name in
  let steps = b.steps ~scale:1 in
  let step =
    List.find (fun (s : Driver.step) -> s.step_name = step_name) steps
  in
  Profile.of_step ~machine ~prog_name:b.b_name step

(* The event stream must rebuild the report's chip numbers bit-for-bit:
   same counts, same stall order, same traffic. Covers multi-launch steps
   (mergesort) and both machines. *)
let test_event_exactness () =
  List.iter
    (fun (machine, bench, step) ->
      let p = profile_scale1 machine bench step in
      let r = p.Profile.report in
      let ctx = Fmt.str "%s/%s on %s" bench step machine.Machine.name in
      Alcotest.(check (float 0.)) (ctx ^ ": issue") r.issue_cycles p.issue;
      Alcotest.(check (float 0.)) (ctx ^ ": stall") r.stall_cycles p.stall;
      Alcotest.(check (float 0.)) (ctx ^ ": dram_time") r.dram_time p.dram_time;
      Alcotest.(check string) (ctx ^ ": bound")
        (Timing.bound_name r.bound)
        (Timing.bound_name p.bound);
      Alcotest.(check int) (ctx ^ ": instructions") r.instructions
        (List.fold_left (fun acc (row : Profile.row) -> acc + row.r_instrs) 0 p.rows))
    [ (westmere, "blackscholes", "ninja");
      (westmere, "stencil7", "+parallel");
      (westmere, "mergesort", "ninja");
      (mic, "blackscholes", "ninja");
      (mic, "treesearch", "ninja") ]

let render_table t = Fmt.str "%a" Ninja_report.Table.render t

let test_determinism () =
  let run () =
    let p = profile_scale1 westmere "blackscholes" "ninja" in
    (render_table (Profile.attribution_table p), Chrome.to_json p)
  in
  let t1, j1 = run () in
  let t2, j2 = run () in
  Alcotest.(check string) "attribution table byte-identical" t1 t2;
  Alcotest.(check string) "Chrome trace byte-identical" j1 j2

let test_chrome_golden () =
  let p = profile_scale1 westmere "blackscholes" "ninja" in
  let got = Chrome.to_json p in
  (* `dune runtest` runs us in test/'s build dir; `dune exec test/main.exe`
     runs from the project root — accept both. *)
  let path =
    if Sys.file_exists "golden_chrome_trace.json" then "golden_chrome_trace.json"
    else Filename.concat "test" "golden_chrome_trace.json"
  in
  let ic = open_in_bin path in
  let want =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "golden Chrome trace" want got

let test_roofline_csv () =
  let p = profile_scale1 westmere "blackscholes" "ninja" in
  let csv = Profile.roofline_csv [ p ] in
  (match String.split_on_char '\n' csv with
  | header :: row :: _ ->
      Alcotest.(check string) "csv header"
        Ninja_analysis.Roofline.csv_header header;
      Alcotest.(check bool) "row carries the label" true
        (Astring_contains.contains row "BlackScholes/ninja")
  | _ -> Alcotest.fail "csv too short");
  Alcotest.(check int) "one line per profile + header + trailing newline" 3
    (List.length (String.split_on_char '\n' csv))

(* ------------------------------------------------------------------ *)
(* T4 acceptance: measured classes = report classes, suite-wide         *)

(* The same profiles T4 summarizes: every benchmark's ninja rung at its
   default scale, on Westmere and Knights Ferry. *)
let t4_profiles () =
  List.map
    (fun (m : Machine.t) ->
      ( m,
        List.map
          (fun (b : Driver.benchmark) ->
            let step =
              List.find
                (fun (s : Driver.step) -> s.step_name = "ninja")
                (Ninja_core.Experiments.ladder b ~scale:b.default_scale)
            in
            Profile.of_step ~machine:m ~prog_name:b.b_name step)
          Registry.all ))
    [ westmere; mic ]

let test_t4_matches_reports () =
  List.iter
    (fun ((m : Machine.t), profiles) ->
      Alcotest.(check int)
        (Fmt.str "all benchmarks profiled on %s" m.name)
        (List.length Registry.all) (List.length profiles);
      List.iter
        (fun (p : Profile.t) ->
          let ctx = Fmt.str "%s on %s" p.prog_name m.name in
          Alcotest.(check string)
            (ctx ^ ": measured class = report class")
            (Timing.bound_name p.report.bound)
            (Timing.bound_name p.bound);
          Alcotest.(check bool) (ctx ^ ": events flowed") true (p.events > 0))
        profiles)
    (t4_profiles ())

let suite =
  ( "profile",
    [ Alcotest.test_case "collector: synthetic stream fractions" `Quick
        test_collector_fractions;
      Alcotest.test_case "collector: unbalanced scopes rejected" `Quick
        test_collector_unbalanced;
      Alcotest.test_case "event stream rebuilds report exactly" `Quick
        test_event_exactness;
      Alcotest.test_case "profile output is deterministic" `Quick
        test_determinism;
      Alcotest.test_case "Chrome trace golden shape" `Quick test_chrome_golden;
      Alcotest.test_case "roofline CSV shape" `Quick test_roofline_csv;
      Alcotest.test_case "T4 measured classes match reports (both machines)"
        `Slow test_t4_matches_reports ] )
