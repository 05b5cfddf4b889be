(* Auto-tuner tests: the @tune-smoke gate (tuned rung beats every
   non-ninja rung and the ninja-tune/v1 export round-trips through the
   JSON layer) plus the determinism property — byte-identical winners
   and JSON across domain counts and cold/warm store states. *)

module Tuner = Ninja_core.Tuner
module Store = Ninja_core.Store
module E = Ninja_core.Experiments
module Driver = Ninja_kernels.Driver
module Registry = Ninja_kernels.Registry
module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Json = Ninja_report.Json

(* ---- scaffolding ---- *)

let with_temp_dir f =
  let dir = Filename.temp_file "ninja-tune-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Tune [bench] on a throwaway store rooted at [dir]. Ladders are
   memoized process-wide by [E.ladder], so repeated runs only pay for
   simulation; the default [run_rung] keeps the session self-contained
   (no global experiment cache involved). *)
let tune_with ~dir ~domains bench =
  let machine = Machine.westmere in
  let scale = bench.Driver.default_scale in
  let steps = E.ladder bench ~scale in
  let store = Store.open_ ~dir () in
  Tuner.tune ~domains ~store ~machine ~scale ~steps bench

(* ---- @tune-smoke: one small benchmark against a throwaway store ---- *)

let test_smoke () =
  with_temp_dir (fun dir ->
      let bench = Registry.find "BlackScholes" in
      let t = tune_with ~dir ~domains:1 bench in
      (* The winner really is the chosen candidate. *)
      Alcotest.(check bool)
        "winner is marked Winner" true
        (t.Tuner.t_winner.Tuner.c_status = Tuner.Winner);
      Alcotest.(check bool)
        "winner appears in the candidate list" true
        (List.exists
           (fun (c : Tuner.candidate) -> c.Tuner.c_status = Tuner.Winner)
           t.Tuner.t_candidates);
      (* Tuned simulated time must be <= the best existing non-ninja rung
         (it searches a superset of those rungs' flag settings). *)
      let machine = Machine.westmere in
      let steps = E.ladder bench ~scale:bench.Driver.default_scale in
      List.iter
        (fun (s : Driver.step) ->
          if s.Driver.step_name <> "ninja" then begin
            let r = Driver.run_step ~machine s in
            Alcotest.(check bool)
              (Fmt.str "tuned (%.0f cyc) <= %s (%.0f cyc)"
                 t.Tuner.t_report.Timing.cycles s.Driver.step_name
                 r.Timing.cycles)
              true
              (t.Tuner.t_report.Timing.cycles <= r.Timing.cycles)
          end)
        steps;
      (* The ninja-tune/v1 export round-trips through lib/report/json. *)
      let j = Tuner.to_json t in
      let s = Json.to_string j in
      Alcotest.(check bool) "JSON round-trips" true (Json.parse s = j);
      (match Json.member "schema" j with
      | Some (Json.Str v) ->
          Alcotest.(check string) "schema tag" "ninja-tune/v1" v
      | _ -> Alcotest.fail "missing schema field");
      (* Candidate accounting adds up. *)
      let enumerated, evaluated, duplicates, rejected = Tuner.counts t in
      Alcotest.(check int) "counts partition the enumeration" enumerated
        (evaluated + duplicates + rejected))

let test_rejections_have_stable_codes () =
  with_temp_dir (fun dir ->
      let t = tune_with ~dir ~domains:1 (Registry.find "BlackScholes") in
      let codes =
        [ "TUNE_NOT_APPLICABLE"; "TUNE_COMPILE_ERROR"; "TUNE_VERIFY_FAILED";
          "TUNE_CHECK_FAILED" ]
      in
      List.iter
        (fun (c : Tuner.candidate) ->
          match c.Tuner.c_status with
          | Tuner.Rejected (code, _) ->
              Alcotest.(check bool)
                (Fmt.str "%s has a known reason code (%s)"
                   (Tuner.candidate_name c) code)
                true (List.mem code codes)
          | _ -> ())
        t.Tuner.t_candidates)

(* ---- determinism: -j 1 vs -j 4, cold vs warm store ---- *)

(* One shared store per benchmark: the first (cold) tune populates it,
   the later runs hit it warm. All four renderings must be bytes-equal —
   the export carries no wall-clock or cache-state field. *)
let prop_deterministic =
  let benches = [ "BlackScholes"; "Conv2D"; "Stencil7" ] in
  QCheck.Test.make ~count:6
    ~name:"tune: byte-identical JSON across -j 1/-j 4 and cold/warm store"
    QCheck.(pair (oneofl benches) (oneofl [ 1; 4 ]))
    (fun (name, warm_domains) ->
      with_temp_dir (fun dir ->
          let bench = Registry.find name in
          let render t = Json.to_string (Tuner.to_json t) in
          let cold = render (tune_with ~dir ~domains:1 bench) in
          let warm = render (tune_with ~dir ~domains:warm_domains bench) in
          let warm4 = render (tune_with ~dir ~domains:4 bench) in
          if cold <> warm then
            QCheck.Test.fail_reportf
              "%s: cold -j1 and warm -j%d exports differ" name warm_domains;
          if cold <> warm4 then
            QCheck.Test.fail_reportf "%s: cold -j1 and warm -j4 exports differ"
              name;
          true))

let test_storeless_matches_stored () =
  with_temp_dir (fun dir ->
      let bench = Registry.find "BlackScholes" in
      let machine = Machine.westmere in
      let scale = bench.Driver.default_scale in
      let steps = E.ladder bench ~scale in
      let stored =
        Json.to_string (Tuner.to_json (tune_with ~dir ~domains:1 bench))
      in
      let storeless =
        Json.to_string
          (Tuner.to_json (Tuner.tune ~domains:4 ~machine ~scale ~steps bench))
      in
      Alcotest.(check string) "store does not change the result" stored
        storeless)

(* ---- validation verdicts are read from the store ---- *)

(* Every derived entry of [kind] under [dir], as (key, path):
   [<aa>/<key>.<kind with '/' as '-'>.json]. *)
let derived_entries dir kind =
  let suffix = "." ^ String.map (function '/' -> '-' | c -> c) kind ^ ".json" in
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun sub ->
         let d = Filename.concat dir sub in
         if Sys.is_directory d then
           Sys.readdir d |> Array.to_list
           |> List.filter_map (fun f ->
                  if String.ends_with ~suffix f then
                    Some (String.sub f 0 (String.length f - String.length suffix), Filename.concat d f)
                  else None)
         else [])

let verdict_keys dir = List.map fst (derived_entries dir Tuner.check_kind)

(* An [Error] verdict planted under the cold winner's key must make the
   next session reject that winner with the planted message — without
   re-running its check — and pick the next-best candidate. *)
let test_planted_check_failure () =
  with_temp_dir (fun dir ->
      let bench = Registry.find "BlackScholes" in
      let cold = tune_with ~dir ~domains:1 bench in
      let key =
        match verdict_keys dir with
        | [ k ] -> k
        | ks -> Alcotest.failf "cold session left %d verdicts, want the winner's only" (List.length ks)
      in
      Store.derived_save (Store.open_ ~dir ()) ~key ~kind:Tuner.check_kind
        (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str "planted failure") ]);
      let warm = tune_with ~dir ~domains:1 bench in
      let old = cold.Tuner.t_winner.Tuner.c_index in
      let status i =
        (List.find (fun (c : Tuner.candidate) -> c.Tuner.c_index = i) warm.Tuner.t_candidates)
          .Tuner.c_status
      in
      Alcotest.(check bool) "old winner rejected with the planted message" true
        (status old = Tuner.Rejected ("TUNE_CHECK_FAILED", "planted failure"));
      let next_best =
        List.filter (fun (c : Tuner.candidate) -> c.Tuner.c_status = Tuner.Evaluated) cold.Tuner.t_candidates
        |> List.map (fun (c : Tuner.candidate) -> (Option.get c.Tuner.c_cycles, c.Tuner.c_index))
        |> List.sort compare |> List.hd |> snd
      in
      Alcotest.(check int) "next-best candidate wins" next_best warm.Tuner.t_winner.Tuner.c_index;
      Alcotest.(check int) "no candidate re-simulated" 0 warm.Tuner.t_simulated;
      Alcotest.(check int) "the new winner's verdict is stored" 2 (List.length (verdict_keys dir)))

(* ---- bounded evaluation: stage 2 stops at the cap ---- *)

(* Every admitted candidate of one (benchmark, machine) pair simulated in
   full, outside the tuner: the exhaustive evaluation the two stages must
   agree with. *)
type space = {
  machine : Machine.t;
  bench : Driver.benchmark;
  full : (Tuner.candidate * Driver.step * Timing.report) list;
}

let space_of bench machine =
  lazy
    (let steps = E.ladder bench ~scale:bench.Driver.default_scale in
     { machine; bench;
       full =
         List.filter_map
           (fun (c, step) ->
             Option.map (fun s -> (c, s, Driver.run_step ~machine s)) step)
           (Tuner.candidate_steps ~machine ~steps bench) })

let spaces =
  List.concat_map
    (fun name ->
      let bench = Registry.find name in
      List.map (space_of bench) [ Machine.westmere; Machine.knights_ferry ])
    [ "BlackScholes"; "Conv2D"; "Stencil7" ]

let label sp = Fmt.str "%s on %s" sp.bench.Driver.b_name sp.machine.Machine.name
let cycles_of (r : Timing.report) = r.Timing.cycles
let stage1 sp = List.filter (fun ((c : Tuner.candidate), _, _) -> c.Tuner.c_parallelize) sp.full

(* One session on a store at [dir]; returns the result and the store's
   counters for that session. *)
let tune_on ~dir sp =
  let store = Store.open_ ~dir () in
  let scale = sp.bench.Driver.default_scale in
  let steps = E.ladder sp.bench ~scale in
  let t = Tuner.tune ~store ~machine:sp.machine ~scale ~steps sp.bench in
  (t, Store.stats store)

let key_of ~dir sp (step : Driver.step) =
  let backend = Ninja_vm.Interp.strategy_tag (Ninja_vm.Interp.default_strategy ()) in
  Store.key ~backend (Store.open_ ~dir ()) ~machine:sp.machine ~step_name:"tuned"
    (step.Driver.make ~machine:sp.machine)

(* The winner exhaustive evaluation picks: cheapest first, earliest on
   ties, skipping candidates whose check is planted to fail. *)
let exhaustive_winner ?(planted = []) sp =
  List.sort
    (fun ((c1 : Tuner.candidate), _, r1) ((c2 : Tuner.candidate), _, r2) ->
      compare (cycles_of r1, c1.Tuner.c_index) (cycles_of r2, c2.Tuner.c_index))
    sp.full
  |> List.find (fun ((c : Tuner.candidate), step, _) ->
         (not (List.mem c.Tuner.c_index planted))
         && Driver.validate_step ~machine:sp.machine step = Ok ())

let status_of (t : Tuner.t) i =
  (List.find (fun (c : Tuner.candidate) -> c.Tuner.c_index = i) t.Tuner.t_candidates)
    .Tuner.c_status

let test_cut_candidates_lose () =
  List.iter
    (fun sp ->
      let sp = Lazy.force sp in
      with_temp_dir (fun dir ->
          let t, _ = tune_on ~dir sp in
          let cap = List.fold_left (fun m (_, _, r) -> Float.max m (cycles_of r)) 0. (stage1 sp) in
          let cut = ref 0 in
          List.iter
            (fun ((c : Tuner.candidate), _, r) ->
              let what = Fmt.str "%s: %s" (label sp) (Tuner.candidate_name c) in
              match status_of t c.Tuner.c_index with
              | Tuner.Cut b ->
                  incr cut;
                  Alcotest.(check bool) (what ^ " cut at the stage-1 maximum") true (b = cap);
                  List.iter
                    (fun (s, _, rs) ->
                      if not (cycles_of r > cycles_of rs) then
                        Alcotest.failf "%s (%h cycles) is not slower than stage-1 %s (%h)" what
                          (cycles_of r) (Tuner.candidate_name s) (cycles_of rs))
                    (stage1 sp)
              | _ ->
                  Alcotest.(check (option (float 0.))) (what ^ " cycles") (Some (cycles_of r))
                    (List.find (fun (c' : Tuner.candidate) -> c'.Tuner.c_index = c.Tuner.c_index)
                       t.Tuner.t_candidates).Tuner.c_cycles)
            sp.full;
          Alcotest.(check bool) (label sp ^ ": some candidate was cut") true (!cut > 0);
          let w, _, r = exhaustive_winner sp in
          Alcotest.(check int) (label sp ^ ": exhaustive winner") w.Tuner.c_index
            t.Tuner.t_winner.Tuner.c_index;
          Alcotest.(check (float 0.)) (label sp ^ ": winner cycles") (cycles_of r)
            t.Tuner.t_report.Timing.cycles))
    spaces

(* Failing checks planted under every candidate within the cap leave
   only cut candidates: they are simulated in full and the pick goes on
   among them, to the winner exhaustive evaluation picks. The next
   session reads the full reports back and simulates nothing. *)
let test_fallback_matches_exhaustive () =
  List.iter
    (fun sp ->
      let sp = Lazy.force sp in
      with_temp_dir (fun dir ->
          let cold, _ = tune_on ~dir sp in
          let within =
            List.filter
              (fun ((c : Tuner.candidate), _, _) ->
                match status_of cold c.Tuner.c_index with Tuner.Cut _ -> false | _ -> true)
              sp.full
          in
          let store = Store.open_ ~dir () in
          List.iter
            (fun (_, step, _) ->
              Store.derived_save store ~key:(key_of ~dir sp step) ~kind:Tuner.check_kind
                (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str "planted failure") ]))
            within;
          let planted = List.map (fun ((c : Tuner.candidate), _, _) -> c.Tuner.c_index) within in
          (* a bounded run may also complete above the cap: its report is
             kept and needs no second simulation *)
          let stopped =
            List.filter
              (fun (_, f) ->
                Astring_contains.contains
                  (In_channel.with_open_bin f In_channel.input_all)
                  "cut_above")
              (derived_entries dir Tuner.bound_kind)
          in
          let t, _ = tune_on ~dir sp in
          let w, _, r = exhaustive_winner ~planted sp in
          Alcotest.(check int) (label sp ^ ": exhaustive winner") w.Tuner.c_index
            t.Tuner.t_winner.Tuner.c_index;
          Alcotest.(check (float 0.)) (label sp ^ ": winner cycles") (cycles_of r)
            t.Tuner.t_report.Timing.cycles;
          Alcotest.(check int) (label sp ^ ": stopped candidates simulated in full")
            (List.length stopped) t.Tuner.t_simulated;
          List.iter
            (fun i ->
              Alcotest.(check bool) (label sp ^ ": planted check failed") true
                (status_of t i = Tuner.Rejected ("TUNE_CHECK_FAILED", "planted failure")))
            planted;
          Alcotest.(check bool) (label sp ^ ": nothing left cut") true
            (List.for_all
               (fun (c : Tuner.candidate) ->
                 match c.Tuner.c_status with Tuner.Cut _ -> false | _ -> true)
               t.Tuner.t_candidates);
          let again, stats = tune_on ~dir sp in
          Alcotest.(check int) (label sp ^ ": next session simulates nothing") 0
            again.Tuner.t_simulated;
          Alcotest.(check int) (label sp ^ ": and writes nothing") 0 stats.Store.writes;
          Alcotest.(check string) (label sp ^ ": same result")
            (Json.to_string (Tuner.to_json t)) (Json.to_string (Tuner.to_json again))))
    spaces

(* Truncated, bit-flipped and too-low [bound/v1] entries all count as
   corrupt: the bounded runs are redone, with the same result, and the
   rewritten entries serve the next session. *)
let test_corrupt_bound_entries () =
  List.iter
    (fun sp ->
      let sp = Lazy.force sp in
      with_temp_dir (fun dir ->
          let cold, _ = tune_on ~dir sp in
          let entries = derived_entries dir Tuner.bound_kind in
          Alcotest.(check bool) (label sp ^ ": bound entries written") true (entries <> []);
          let read f = In_channel.with_open_bin f In_channel.input_all in
          let write f s = Out_channel.with_open_bin f (fun oc -> output_string oc s) in
          List.iteri
            (fun i (key, f) ->
              let s = read f in
              match i mod 3 with
              | 0 -> write f (String.sub s 0 (String.length s / 2))
              | 1 ->
                  let b = Bytes.of_string s in
                  let j = String.length s - 10 in
                  Bytes.set b j (if s.[j] = '1' then '2' else '1');
                  write f (Bytes.to_string b)
              | _ ->
                  (* a well-formed entry whose bound proves too little *)
                  Store.derived_save (Store.open_ ~dir ()) ~key ~kind:Tuner.bound_kind
                    (Json.Obj [ ("cut_above", Json.Num 0.) ]))
            entries;
          let n = List.length entries in
          let warm, stats = tune_on ~dir sp in
          Alcotest.(check int) (label sp ^ ": every damaged entry dropped") n stats.Store.errors;
          Alcotest.(check int) (label sp ^ ": bounded runs redone") n warm.Tuner.t_simulated;
          Alcotest.(check string) (label sp ^ ": same result")
            (Fmt.str "%a" Tuner.pp cold) (Fmt.str "%a" Tuner.pp warm);
          let again, stats = tune_on ~dir sp in
          Alcotest.(check int) (label sp ^ ": rewritten entries serve") 0
            (again.Tuner.t_simulated + stats.Store.errors + stats.Store.writes)))
    spaces

let suite =
  ( "tune",
    [ Alcotest.test_case "smoke: tuned beats non-ninja rungs, JSON round-trips"
        `Quick test_smoke;
      Alcotest.test_case "rejection reason codes are stable" `Quick
        test_rejections_have_stable_codes;
      QCheck_alcotest.to_alcotest prop_deterministic;
      Alcotest.test_case "storeless run matches stored run" `Quick
        test_storeless_matches_stored;
      Alcotest.test_case "planted check failure picks the next-best" `Quick
        test_planted_check_failure;
      Alcotest.test_case "cut candidates lose to every stage-1 candidate" `Quick
        test_cut_candidates_lose;
      Alcotest.test_case "all checks within the cap fail: exhaustive winner" `Quick
        test_fallback_matches_exhaustive;
      Alcotest.test_case "corrupt bound entries are redone" `Quick
        test_corrupt_bound_entries ] )
