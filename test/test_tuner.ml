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

(* Every derived verdict file under [dir]: [<aa>/<key>.check-v1.json]. *)
let verdict_keys dir =
  let suffix = "." ^ String.map (function '/' -> '-' | c -> c) Tuner.check_kind ^ ".json" in
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun sub ->
         let d = Filename.concat dir sub in
         if Sys.is_directory d then
           Sys.readdir d |> Array.to_list
           |> List.filter_map (fun f ->
                  if String.ends_with ~suffix f then
                    Some (String.sub f 0 (String.length f - String.length suffix))
                  else None)
         else [])

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
        test_planted_check_failure ] )
