(* Integrity tests for the persistent content-addressed result store:
   serialization round-trips bit-identically, every corruption mode is a
   silent miss (never wrong data, never a crash), concurrent writers are
   safe, and a version-salt bump invalidates old entries. *)

module Store = Ninja_core.Store
module E = Ninja_core.Experiments
module Jobs = Ninja_core.Jobs
module Driver = Ninja_kernels.Driver
module Registry = Ninja_kernels.Registry
module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Isa = Ninja_vm.Isa
module Counts = Ninja_vm.Counts
module Json = Ninja_report.Json
module Pool = Ninja_util.Pool

(* ---- scaffolding ---- *)

let with_temp_dir f =
  let dir = Filename.temp_file "ninja-store-test" "" in
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

let step_of b name =
  List.find (fun (s : Driver.step) -> s.Driver.step_name = name) (E.ladder b ~scale:1)

(* One cheap real report per machine shape: Westmere (1 modeled thread on
   the serial step) and Knights Ferry ninja (many threads, so the counts
   matrix has many rows). *)
let westmere_report =
  lazy
    (Driver.run_step ~machine:Machine.westmere
       (step_of (Registry.find "BlackScholes") "ninja"))

let mic_report =
  lazy
    (Driver.run_step ~machine:Machine.knights_ferry
       (step_of (Registry.find "BlackScholes") "ninja"))

let render r = Json.to_string (Store.report_to_json r)

let entry_file dir key =
  let p = Filename.concat (Filename.concat dir (String.sub key 0 2)) (key ^ ".json") in
  Alcotest.(check bool) "entry file exists" true (Sys.file_exists p);
  p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let prog_of ~machine b name = (step_of b name).Driver.make ~machine

(* ---- serialization round-trips ---- *)

let test_roundtrip_real () =
  List.iter
    (fun (machine, r) ->
      let s = render r in
      let r' = Store.report_of_json ~machine (Json.parse s) in
      Alcotest.(check string) "text round-trip is bit-identical" s (render r'))
    [
      (Machine.westmere, Lazy.force westmere_report);
      (Machine.knights_ferry, Lazy.force mic_report);
    ]

(* Synthetic reports: arbitrary finite floats and counts must survive the
   serialize -> print -> parse -> deserialize pipeline bit-identically. *)
let arb_report =
  let gen =
    let open QCheck.Gen in
    let* n_threads = 1 -- 4 in
    let* cells =
      list_size (return (n_threads * Isa.op_class_count)) (0 -- 100_000)
    in
    let* f6 = list_size (return 6) (float_range 0. 1e12) in
    let* i3 = list_size (return 3) (0 -- 1_000_000) in
    let* levels = list_size (return 4) (0 -- 1_000_000) in
    let+ bound = oneofl Timing.[ Compute; Bandwidth; Latency ] in
    let counts = Counts.create n_threads in
    List.iteri
      (fun i v ->
        let row = Counts.thread_row counts ~thread:(i / Isa.op_class_count) in
        row.(i mod Isa.op_class_count) <- v)
      cells;
    let f = Array.of_list f6 and i = Array.of_list i3 in
    {
      Timing.machine = Machine.westmere;
      n_threads;
      cycles = f.(0);
      seconds = f.(1);
      issue_cycles = f.(2);
      stall_cycles = f.(3);
      dram_time = f.(4);
      overhead_cycles = f.(5);
      dram_read_bytes = i.(0);
      dram_write_bytes = i.(1);
      instructions = i.(2);
      counts;
      level_accesses =
        List.map2
          (fun l n -> (l, n))
          Ninja_arch.Hierarchy.[ L1; L2; LLC; Dram ]
          levels;
      bound;
    }
  in
  QCheck.make ~print:render gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"report JSON round-trip is bit-identical" ~count:100
    arb_report
    (fun r ->
      let s = render r in
      render (Store.report_of_json ~machine:Machine.westmere (Json.parse s)) = s)

(* ---- save/load through the entry files ---- *)

let test_save_load () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let machine = Machine.knights_ferry in
      let b = Registry.find "BlackScholes" in
      let key = Store.key st ~machine ~step_name:"ninja" (prog_of ~machine b "ninja") in
      let r = Lazy.force mic_report in
      Alcotest.(check bool) "empty store misses" true
        (Store.load st ~key ~machine = None);
      Store.save st ~key ~machine ~step_name:"ninja" ~cost_s:0.25 r;
      (match Store.load st ~key ~machine with
      | None -> Alcotest.fail "load after save missed"
      | Some r' ->
          Alcotest.(check string) "loaded report bit-identical" (render r) (render r'));
      Alcotest.(check (option (float 0.))) "entry cost stored" (Some 0.25)
        (Store.entry_cost st ~key);
      let s = Store.stats st in
      Alcotest.(check int) "one write" 1 s.Store.writes;
      Alcotest.(check int) "one hit" 1 s.Store.hits;
      Alcotest.(check int) "one miss" 1 s.Store.misses;
      Alcotest.(check int) "no errors" 0 s.Store.errors)

let test_wrong_machine_misses () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let key = "00deadbeef" in
      Store.save st ~key ~machine:Machine.westmere ~step_name:"ninja" ~cost_s:0.1
        (Lazy.force westmere_report);
      Alcotest.(check bool) "load under another machine misses" true
        (Store.load st ~key ~machine:Machine.knights_ferry = None))

let test_truncated_entry_recovers () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let machine = Machine.westmere in
      let key = "aa0123456789" in
      let r = Lazy.force westmere_report in
      Store.save st ~key ~machine ~step_name:"ninja" ~cost_s:0.1 r;
      let path = entry_file dir key in
      let raw = read_file path in
      write_file path (String.sub raw 0 (String.length raw / 2));
      Alcotest.(check bool) "truncated entry misses" true
        (Store.load st ~key ~machine = None);
      Alcotest.(check int) "corruption counted" 1 (Store.stats st).Store.errors;
      (* the caller's recovery: re-simulate and overwrite *)
      Store.save st ~key ~machine ~step_name:"ninja" ~cost_s:0.1 r;
      match Store.load st ~key ~machine with
      | None -> Alcotest.fail "re-save did not recover"
      | Some r' -> Alcotest.(check string) "recovered bytes" (render r) (render r'))

(* Flip one byte anywhere in an entry: the load must either miss or
   return the exact original report — never wrong data, never raise. *)
let prop_bit_flip =
  QCheck.Test.make ~name:"bit-flipped entry: miss or intact, never wrong"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 1 255))
    (fun (pos, mask) ->
      with_temp_dir (fun dir ->
          let st = Store.open_ ~dir () in
          let machine = Machine.westmere in
          let key = "bb0123456789" in
          let r = Lazy.force westmere_report in
          Store.save st ~key ~machine ~step_name:"ninja" ~cost_s:0.1 r;
          let path = entry_file dir key in
          let raw = read_file path in
          let b = Bytes.of_string raw in
          let pos = pos mod Bytes.length b in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
          write_file path (Bytes.to_string b);
          match Store.load st ~key ~machine with
          | None -> true
          | Some r' -> render r' = render r))

let test_concurrent_writers () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let machine = Machine.westmere in
      let key = "cc0123456789" in
      let r = Lazy.force westmere_report in
      let ok =
        Pool.map_list ~domains:4
          (fun i ->
            Store.save st ~key ~machine ~step_name:"ninja"
              ~cost_s:(0.1 *. float_of_int (i + 1))
              r;
            (* loads racing the writers must verify or miss, never raise *)
            match Store.load st ~key ~machine with
            | None -> true
            | Some r' -> render r' = render r)
          (List.init 8 Fun.id)
      in
      Alcotest.(check (list bool)) "racy loads verified" (List.init 8 (fun _ -> true)) ok;
      match Store.load st ~key ~machine with
      | None -> Alcotest.fail "entry missing after concurrent writes"
      | Some r' -> Alcotest.(check string) "final bytes intact" (render r) (render r'))

(* A reader racing a writer replacing the same key must always see a
   complete payload — one of the two reports being written, bit-exact —
   or miss cleanly (and the engine would re-simulate); a torn read or an
   exception is a store bug. Atomic temp-file+rename replacement is what
   makes this hold. *)
let test_reader_during_writer () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let machine = Machine.westmere in
      let key = "dd0123456789" in
      let b = Registry.find "BlackScholes" in
      let r1 = Lazy.force westmere_report in
      let r2 = Driver.run_step ~machine (step_of b "naive serial") in
      let s1 = render r1 and s2 = render r2 in
      Alcotest.(check bool) "the two payloads differ" true (s1 <> s2);
      let writes = 60 and reads = 300 in
      let outcomes =
        Pool.map_list ~domains:4
          (fun role ->
            if role = 0 then begin
              (* the writer: keep replacing the entry, alternating *)
              for i = 1 to writes do
                Store.save st ~key ~machine ~step_name:"ninja" ~cost_s:0.1
                  (if i mod 2 = 0 then r1 else r2)
              done;
              true
            end
            else begin
              (* a reader: every load is old-complete, new-complete, or
                 a clean miss *)
              let ok = ref true in
              for _ = 1 to reads do
                match Store.load st ~key ~machine with
                | None -> ()
                | Some r ->
                    let s = render r in
                    if s <> s1 && s <> s2 then ok := false
                | exception _ -> ok := false
              done;
              !ok
            end)
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check (list bool))
        "no torn reads" [ true; true; true; true ] outcomes;
      match Store.load st ~key ~machine with
      | None -> Alcotest.fail "entry missing after writer finished"
      | Some r ->
          let s = render r in
          Alcotest.(check bool) "final payload is one of the two" true
            (s = s1 || s = s2))

let test_salt_invalidates () =
  with_temp_dir (fun dir ->
      let machine = Machine.westmere in
      let b = Registry.find "BlackScholes" in
      let prog = prog_of ~machine b "ninja" in
      let st1 = Store.open_ ~dir () in
      let key1 = Store.key st1 ~machine ~step_name:"ninja" prog in
      Store.save st1 ~key:key1 ~machine ~step_name:"ninja" ~cost_s:0.1
        (Lazy.force westmere_report);
      let st2 = Store.open_ ~salt:"ninja-store/test-bump" ~dir () in
      let key2 = Store.key st2 ~machine ~step_name:"ninja" prog in
      Alcotest.(check bool) "salt changes the key" true (key1 <> key2);
      Alcotest.(check bool) "old entries invisible after bump" true
        (Store.load st2 ~key:key2 ~machine = None);
      (* same salt, fresh handle: still hits *)
      let st3 = Store.open_ ~dir () in
      Alcotest.(check bool) "same salt still hits" true
        (Store.load st3 ~key:(Store.key st3 ~machine ~step_name:"ninja" prog)
           ~machine
        <> None))

let test_backend_tag_changes_key () =
  (* the program fingerprint hashes the *unoptimized* decode, so the
     backend tag — pass list included — is the only thing separating
     entries produced by the tree walker from compiled ones, and compiled
     ones under different pass lists from each other *)
  Alcotest.(check string) "version salt" "ninja-store/v5" Store.version_salt;
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let machine = Machine.westmere in
      let b = Registry.find "BlackScholes" in
      let prog = prog_of ~machine b "ninja" in
      let module O = Ninja_vm.Optimize in
      let module I = Ninja_vm.Interp in
      let key strategy =
        Store.key ~backend:(I.strategy_tag strategy) st ~machine
          ~step_name:"ninja" prog
      in
      let k_tree = key I.Tree in
      let k_compiled = key (I.Compiled O.default) in
      let k_imm = key (I.Compiled { O.passes = [ O.Imm ] }) in
      Alcotest.(check bool) "compiled key differs from tree" true
        (k_tree <> k_compiled);
      Alcotest.(check bool) "pass list is part of the key" true
        (k_compiled <> k_imm);
      Alcotest.(check bool) "tagged keys differ from the untagged key" true
        (List.for_all
           (( <> ) (Store.key st ~machine ~step_name:"ninja" prog))
           [ k_tree; k_compiled; k_imm ]);
      (* an entry written under the compiled key is invisible to the tree
         lookup, and vice versa *)
      Store.save st ~key:k_compiled ~machine ~step_name:"ninja" ~cost_s:0.1
        (Lazy.force westmere_report);
      Alcotest.(check bool) "tree lookup misses the compiled entry" true
        (Store.load st ~key:k_tree ~machine = None);
      Alcotest.(check bool) "compiled lookup hits its own entry" true
        (Store.load st ~key:k_compiled ~machine <> None))

let test_machine_param_changes_key () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let b = Registry.find "BlackScholes" in
      let m = Machine.westmere in
      let prog = prog_of ~machine:m b "ninja" in
      let k1 = Store.key st ~machine:m ~step_name:"ninja" prog in
      let k2 =
        Store.key st ~machine:{ m with Machine.dram_bw_gbs = m.Machine.dram_bw_gbs *. 2. }
          ~step_name:"ninja" prog
      in
      let k3 = Store.key st ~machine:m ~step_name:"naive serial" prog in
      Alcotest.(check bool) "bandwidth param changes key" true (k1 <> k2);
      Alcotest.(check bool) "step name changes key" true (k1 <> k3))

let test_key_of_fingerprint () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let machine = Machine.westmere in
      let prog = prog_of ~machine (Registry.find "BlackScholes") "ninja" in
      let fp = Ninja_vm.Decode.fingerprint (Ninja_vm.Decode.decode prog) in
      Alcotest.(check string) "same key as from the program"
        (Store.key ~backend:"compiled" st ~machine ~step_name:"ninja" prog)
        (Store.key_of_fingerprint ~backend:"compiled" st ~machine ~step_name:"ninja" fp))

let test_step_costs_flush () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let machine = Machine.westmere in
      let r = Lazy.force westmere_report in
      Alcotest.(check (list (pair string (float 0.)))) "fresh store has no costs" []
        (Store.step_costs st);
      Store.save st ~key:"dd01" ~machine ~step_name:"ninja" ~cost_s:1. r;
      Store.save st ~key:"dd02" ~machine ~step_name:"ninja" ~cost_s:3. r;
      Store.flush_costs st;
      Alcotest.(check (list (pair string (float 0.)))) "mean of first batch"
        [ ("ninja", 2.) ] (Store.step_costs st);
      Store.save st ~key:"dd03" ~machine ~step_name:"ninja" ~cost_s:4. r;
      Store.flush_costs st;
      Alcotest.(check (list (pair string (float 0.)))) "50/50 blend with previous"
        [ ("ninja", 3.) ] (Store.step_costs st);
      (* no new samples: flush keeps the file as-is *)
      Store.flush_costs st;
      Alcotest.(check (list (pair string (float 0.)))) "idempotent without samples"
        [ ("ninja", 3.) ] (Store.step_costs st))

(* ---- derived-product entries ---- *)

(* A payload shaped like T4's summary numbers, floats that need the
   shortest-round-trip printer included. *)
let derived_value = [ 0.1; 1. /. 3.; 1e-300; 42. ]
let encode_floats l = Json.List (List.map (fun x -> Json.Num x) l)
let decode_floats j = List.map (fun x -> Option.get (Json.to_float x)) (Option.get (Json.to_list j))

(* [derived] with a counted computation: how many times it ran. *)
let derived_counted st ~key ~kind =
  let runs = ref 0 in
  let v =
    Store.derived st ~key ~kind ~encode:encode_floats ~decode:decode_floats (fun () ->
        incr runs;
        derived_value)
  in
  (v, !runs)

let derived_file dir key kind =
  let file = String.map (function '/' -> '-' | c -> c) kind in
  let p = Filename.concat (Filename.concat dir (String.sub key 0 2)) (Printf.sprintf "%s.%s.json" key file) in
  Alcotest.(check bool) "derived entry file exists" true (Sys.file_exists p);
  p

let test_derived_roundtrip () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let key = "ee0123456789" and kind = "test-product/v1" in
      let v, runs = derived_counted st ~key ~kind in
      Alcotest.(check int) "cold: computed once" 1 runs;
      Alcotest.(check (list (float 0.))) "cold value" derived_value v;
      let v', runs' = derived_counted (Store.open_ ~dir ()) ~key ~kind in
      Alcotest.(check int) "warm: not recomputed" 0 runs';
      Alcotest.(check bool) "warm value bit-identical" true (v = v');
      let other, runs'' = derived_counted st ~key ~kind:"test-product/v2" in
      Alcotest.(check int) "a bumped kind misses" 1 runs'';
      Alcotest.(check (list (float 0.))) "bumped kind recomputed" derived_value other;
      let s = Store.stats st in
      Alcotest.(check (list int)) "hits, misses, errors, writes" [ 0; 2; 0; 2 ]
        [ s.Store.hits; s.Store.misses; s.Store.errors; s.Store.writes ])

(* Each corruption of a clean entry must miss, count as one dropped
   corruption, recompute, and rewrite the very bytes the clean write
   produced; the entry after that is a plain hit. *)
let test_derived_corruption_recovers () =
  let key = "ff0123456789" and kind = "test-product/v1" in
  let corruptions =
    [ ("truncated", fun _dir path raw -> write_file path (String.sub raw 0 (String.length raw / 2)));
      ( "checksum mismatch",
        fun _dir path raw ->
          (* a well-formed entry whose payload no longer matches its
             checksum *)
          let j = Json.parse raw in
          let fields =
            match j with
            | Json.Obj fields ->
                List.map
                  (fun (k, v) -> if k = "payload" then (k, encode_floats [ 0.5 ]) else (k, v))
                  fields
            | _ -> Alcotest.fail "entry is not an object"
          in
          write_file path (Json.to_string (Json.Obj fields)) );
      ( "wrong kind",
        fun dir path _raw ->
          (* another kind's valid entry under this kind's file name *)
          let st = Store.open_ ~dir () in
          ignore (derived_counted st ~key ~kind:"other-product/v1");
          write_file path (read_file (derived_file dir key "other-product/v1")) ) ]
  in
  List.iter
    (fun (name, corrupt) ->
      with_temp_dir (fun dir ->
          ignore (derived_counted (Store.open_ ~dir ()) ~key ~kind);
          let path = derived_file dir key kind in
          let clean = read_file path in
          corrupt dir path clean;
          let st = Store.open_ ~dir () in
          let v, runs = derived_counted st ~key ~kind in
          Alcotest.(check int) (name ^ ": recomputed") 1 runs;
          Alcotest.(check (list (float 0.))) (name ^ ": recomputed value") derived_value v;
          let s = Store.stats st in
          Alcotest.(check (list int)) (name ^ ": misses, errors, writes") [ 1; 1; 1 ]
            [ s.Store.misses; s.Store.errors; s.Store.writes ];
          Alcotest.(check string) (name ^ ": rewritten bytes identical") clean (read_file path);
          let _, runs' = derived_counted st ~key ~kind in
          Alcotest.(check int) (name ^ ": then a hit") 0 runs'))
    corruptions

(* ---- the store under the experiment grid ---- *)

let grid_experiment : E.experiment =
  let b1 = Registry.find "BlackScholes" and b2 = Registry.find "NBody" in
  {
    E.id = "xstore";
    title = "store test grid";
    claim = "test-only";
    needs =
      (fun () ->
        [
          (Machine.westmere, b1, "naive serial");
          (Machine.westmere, b1, "ninja");
          (Machine.westmere, b2, "ninja");
        ]);
    run = (fun () -> []);
  }

let with_grid_store f =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      Fun.protect
        ~finally:(fun () ->
          E.set_store None;
          E.reset_cache ())
        (fun () ->
          E.set_store (Some st);
          E.reset_cache ();
          f st))

let grid_renders () =
  List.map
    (fun (m, b, s) -> render (E.run_step_cached ~machine:m b s))
    (grid_experiment.E.needs ())

let test_cold_then_warm_prefill () =
  with_grid_store (fun st ->
      let cold = Jobs.prefill ~domains:1 ~experiments:[ grid_experiment ] () in
      Alcotest.(check int) "cold run simulates every job" cold.Jobs.total_jobs
        cold.Jobs.executed;
      Alcotest.(check int) "cold run has no store hits" 0 cold.Jobs.store_hits;
      let cold_renders = grid_renders () in
      (* drop the memo: a warm prefill must serve everything from disk,
         on the parallel path, with byte-identical reports *)
      E.reset_cache ();
      let warm = Jobs.prefill ~domains:4 ~experiments:[ grid_experiment ] () in
      Alcotest.(check int) "warm run simulates nothing" 0 warm.Jobs.executed;
      Alcotest.(check int) "warm run served entirely from the store"
        warm.Jobs.total_jobs warm.Jobs.store_hits;
      Alcotest.(check (list string)) "warm reports byte-identical to cold"
        cold_renders (grid_renders ());
      Alcotest.(check bool) "store recorded scheduling costs" true
        (Store.flush_costs st;
         Store.step_costs st <> []))

let test_store_differential_j1_j4 () =
  (* with the store enabled from the start, -j 1 and -j 4 grids must
     produce byte-identical reports (cold both times: separate dirs) *)
  let run domains =
    with_grid_store (fun _ ->
        ignore (Jobs.prefill ~domains ~experiments:[ grid_experiment ] ()
                 : Jobs.summary);
        grid_renders ())
  in
  Alcotest.(check (list string)) "-j4 byte-identical to -j1 (store on)" (run 1)
    (run 4)

let suite =
  ( "store",
    [
      Alcotest.test_case "real-report round-trip" `Quick test_roundtrip_real;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      Alcotest.test_case "save/load" `Quick test_save_load;
      Alcotest.test_case "wrong machine misses" `Quick test_wrong_machine_misses;
      Alcotest.test_case "truncated entry recovers" `Quick test_truncated_entry_recovers;
      QCheck_alcotest.to_alcotest prop_bit_flip;
      Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers;
      Alcotest.test_case "reader during writer" `Quick
        test_reader_during_writer;
      Alcotest.test_case "salt bump invalidates" `Quick test_salt_invalidates;
      Alcotest.test_case "backend tag changes key" `Quick test_backend_tag_changes_key;
      Alcotest.test_case "machine/step change key" `Quick test_machine_param_changes_key;
      Alcotest.test_case "key from a held fingerprint" `Quick test_key_of_fingerprint;
      Alcotest.test_case "step costs flush" `Quick test_step_costs_flush;
      Alcotest.test_case "cold then warm prefill" `Quick test_cold_then_warm_prefill;
      Alcotest.test_case "store differential -j1/-j4" `Quick test_store_differential_j1_j4;
      Alcotest.test_case "derived entry round-trip" `Quick test_derived_roundtrip;
      Alcotest.test_case "corrupt derived entries recompute" `Quick
        test_derived_corruption_recovers;
    ] )
