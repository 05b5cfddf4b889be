(* Tests for the cache, prefetcher, memory hierarchy, and timing model. *)

module Machine = Ninja_arch.Machine
module Cache = Ninja_arch.Cache
module Prefetch = Ninja_arch.Prefetch
module Hierarchy = Ninja_arch.Hierarchy
module Timing = Ninja_arch.Timing
open Ninja_vm

let tiny_cache () =
  Cache.create { size_bytes = 512; assoc = 2; line_bytes = 64; latency = 1 }

let test_cache_hit_after_fill () =
  let c = tiny_cache () in
  let r1 = Cache.access c ~line_addr:5 ~write:false in
  Alcotest.(check bool) "first is miss" false r1.hit;
  let r2 = Cache.access c ~line_addr:5 ~write:false in
  Alcotest.(check bool) "second is hit" true r2.hit

let test_cache_lru_eviction () =
  (* 512B/64B = 8 lines, 2-way -> 4 sets. Lines 0, 4, 8 map to set 0. *)
  let c = tiny_cache () in
  ignore (Cache.access c ~line_addr:0 ~write:false);
  ignore (Cache.access c ~line_addr:4 ~write:false);
  ignore (Cache.access c ~line_addr:0 ~write:false); (* 0 is now MRU *)
  ignore (Cache.access c ~line_addr:8 ~write:false); (* evicts 4 *)
  Alcotest.(check bool) "0 still present" true (Cache.probe c ~line_addr:0);
  Alcotest.(check bool) "4 evicted" false (Cache.probe c ~line_addr:4);
  Alcotest.(check bool) "8 present" true (Cache.probe c ~line_addr:8)

let test_cache_dirty_eviction () =
  let c = tiny_cache () in
  ignore (Cache.access c ~line_addr:0 ~write:true);
  ignore (Cache.access c ~line_addr:4 ~write:false);
  let r = Cache.access c ~line_addr:8 ~write:false in
  Alcotest.(check (option int)) "dirty line 0 written back" (Some 0) r.evicted_dirty

let test_cache_dirty_count () =
  let c = tiny_cache () in
  ignore (Cache.access c ~line_addr:1 ~write:true);
  ignore (Cache.access c ~line_addr:2 ~write:false);
  Alcotest.(check int) "one dirty" 1 (Cache.dirty_lines c)

let test_cache_non_pow2_sets () =
  (* 12 MiB, 16-way: 12288 sets (not a power of two) must work *)
  let c =
    Cache.create { size_bytes = 12 * 1024 * 1024; assoc = 16; line_bytes = 64; latency = 1 }
  in
  ignore (Cache.access c ~line_addr:123456 ~write:false);
  Alcotest.(check bool) "hit after fill" true (Cache.probe c ~line_addr:123456)

let test_prefetch_stream_detected () =
  let p = Prefetch.create ~streams:4 () in
  (* constant stride 1: covered from the third access on *)
  ignore (Prefetch.observe p ~line_addr:100);
  ignore (Prefetch.observe p ~line_addr:101);
  ignore (Prefetch.observe p ~line_addr:102);
  Alcotest.(check bool) "covered" true (Prefetch.observe p ~line_addr:103)

let test_prefetch_random_not_covered () =
  let p = Prefetch.create ~streams:4 () in
  let covered = ref 0 in
  List.iter
    (fun a -> if Prefetch.observe p ~line_addr:a then incr covered)
    [ 1000; 5000; 90000; 3000; 70000; 11000 ];
  Alcotest.(check int) "no coverage" 0 !covered

let test_hierarchy_levels () =
  let h = Hierarchy.create Machine.westmere in
  let r1 = Hierarchy.access h ~core:0 ~addr:0x100000 ~bytes:4 ~write:false ~nt:false in
  Alcotest.(check string) "cold miss to DRAM" "DRAM" (Hierarchy.level_name r1.level);
  let r2 = Hierarchy.access h ~core:0 ~addr:0x100000 ~bytes:4 ~write:false ~nt:false in
  Alcotest.(check string) "then L1" "L1" (Hierarchy.level_name r2.level);
  Alcotest.(check int) "64B read" 64 (Hierarchy.dram_read_bytes h)

let test_hierarchy_nt_write () =
  let h = Hierarchy.create Machine.westmere in
  let r = Hierarchy.access h ~core:0 ~addr:0x100000 ~bytes:16 ~write:true ~nt:true in
  Alcotest.(check bool) "nt covered" true r.covered;
  Alcotest.(check int) "bytes to DRAM" 16 (Hierarchy.dram_write_bytes h);
  Alcotest.(check int) "no read traffic" 0 (Hierarchy.dram_read_bytes h)

let test_hierarchy_drain () =
  let h = Hierarchy.create Machine.westmere in
  ignore (Hierarchy.access h ~core:0 ~addr:0x100000 ~bytes:4 ~write:true ~nt:false);
  Alcotest.(check int) "no writeback yet" 0 (Hierarchy.dram_write_bytes h);
  Hierarchy.drain_writebacks h;
  Alcotest.(check int) "drained line" 64 (Hierarchy.dram_write_bytes h)

let test_machine_presets () =
  List.iter
    (fun (m : Machine.t) ->
      Alcotest.(check bool) (m.name ^ " cores") true (m.cores > 0);
      Alcotest.(check bool) (m.name ^ " width") true (m.simd_width >= 4);
      Alcotest.(check bool) (m.name ^ " bw") true (m.dram_bw_gbs > 0.))
    (Machine.paper_cpus @ [ Machine.knights_ferry; Machine.future ~generation:1 ])

let test_future_scaling () =
  let g1 = Machine.future ~generation:1 in
  let g2 = Machine.future ~generation:2 in
  Alcotest.(check int) "cores double" (Machine.westmere.cores * 2) g1.cores;
  Alcotest.(check int) "simd doubles" (Machine.westmere.simd_width * 2) g1.simd_width;
  Alcotest.(check bool) "bw grows slower than compute" true
    (g2.dram_bw_gbs /. Machine.westmere.dram_bw_gbs
    < float_of_int (g2.cores * g2.simd_width)
      /. float_of_int (Machine.westmere.cores * Machine.westmere.simd_width))

let test_gather_cost () =
  let cpu = Machine.westmere in
  let mic = Machine.knights_ferry in
  Alcotest.(check (float 1e-9)) "emulated = 2W" 8. (Machine.gather_cost cpu);
  Alcotest.(check (float 1e-9)) "native = W/4" 4. (Machine.gather_cost mic)

(* A small streaming program to exercise timing end to end; [work] adds
   extra per-element FP operations to make the kernel compute-bound. *)
let streaming_program ?(work = 0) n =
  let b = Builder.create ~name:"stream" in
  let x = Builder.buffer_f b "x" in
  let y = Builder.buffer_f b "y" in
  Builder.par_phase b (fun () ->
      let nreg = Builder.iconst b n in
      let lo, hi = Builder.thread_range_aligned b ~n:nreg in
      let w = Isa.vector_width_reg in
      Builder.for_ b ~lo ~hi ~step:w (fun i ->
          let v = Builder.vf b in
          Builder.emit b (Vloadf { dst = v; buf = x; idx = i; mask = None });
          let acc = ref (Builder.vfbin b Fadd v v) in
          for _ = 1 to work do
            acc := Builder.vfbin b Fmul !acc v
          done;
          Builder.emit b (Vstoref { buf = y; idx = i; src = !acc; mask = None })));
  Builder.finish b

let run_streaming ?work ~machine ~n_threads n =
  let prog = streaming_program ?work n in
  let mem =
    Memory.create prog
      [ ("x", Memory.Fbuf (Array.make n 1.)); ("y", Memory.Fbuf (Array.make n 0.)) ]
  in
  Timing.simulate ~machine ~n_threads prog mem

let test_timing_threads_speedup () =
  let n = 1 lsl 14 in
  let r1 = run_streaming ~work:20 ~machine:Machine.westmere ~n_threads:1 n in
  let r6 = run_streaming ~work:20 ~machine:Machine.westmere ~n_threads:6 n in
  Alcotest.(check bool) "parallel faster" true (r6.cycles < r1.cycles)

let test_timing_deterministic () =
  let n = 1 lsl 12 in
  let r1 = run_streaming ~machine:Machine.westmere ~n_threads:6 n in
  let r2 = run_streaming ~machine:Machine.westmere ~n_threads:6 n in
  Alcotest.(check (float 1e-9)) "same cycles" r1.cycles r2.cycles

let test_timing_bandwidth_bound () =
  (* very large stream: DRAM time must dominate *)
  let r = run_streaming ~machine:Machine.westmere ~n_threads:6 (1 lsl 18) in
  Alcotest.(check string) "bandwidth bound" "bandwidth" (Timing.bound_name r.bound)

let test_timing_traffic_accounting () =
  let n = 1 lsl 14 in
  let r = run_streaming ~machine:Machine.westmere ~n_threads:1 n in
  (* reads: x (n*4) + write-allocate on y (n*4); writes drained: n*4 *)
  let expected_read = 2 * n * 4 in
  Alcotest.(check int) "read bytes" expected_read r.dram_read_bytes;
  Alcotest.(check int) "write bytes" (n * 4) r.dram_write_bytes

let test_timing_rejects_oversubscription () =
  Alcotest.check_raises "too many threads" (Failure "inv") (fun () ->
      try ignore (run_streaming ~machine:Machine.westmere ~n_threads:7 64)
      with Invalid_argument _ -> raise (Failure "inv"))

let test_speedup_and_flops () =
  let n = 1 lsl 12 in
  let r = run_streaming ~machine:Machine.westmere ~n_threads:1 n in
  (* one vector add per W elements: n flops total *)
  Alcotest.(check (float 1.)) "flops" (float_of_int n) (Timing.flops r);
  Alcotest.(check (float 1e-9)) "self speedup" 1.0 (Timing.speedup ~baseline:r r)

(* ---- qcheck properties for the cache ----
   The pure LRU model of [Models] (per-set MRU-first association lists)
   differentially checked against Cache.access, plus counter and
   full-associativity invariants. *)

module Lru_model = Models.Lru_model

(* (sets, assoc, accesses): small geometries so eviction is exercised *)
let cache_trace_gen =
  QCheck.make
    ~print:(fun (s, a, tr) ->
      Fmt.str "sets=%d assoc=%d trace=%a" s a
        Fmt.(Dump.list (Dump.pair int bool))
        tr)
    QCheck.Gen.(
      triple (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2; 4; 8 ])
        (list_size (1 -- 300) (pair (int_bound 40) bool)))

let prop_cache_matches_lru_model =
  QCheck.Test.make ~name:"access stream matches reference LRU model" ~count:300
    cache_trace_gen
    (fun (n_sets, assoc, trace) ->
      let c =
        Cache.create
          { size_bytes = n_sets * assoc * 64; assoc; line_bytes = 64; latency = 1 }
      in
      let m = Lru_model.create ~n_sets ~assoc in
      List.for_all
        (fun (line_addr, write) ->
          Cache.access c ~line_addr ~write
          = Lru_model.access m ~line_addr ~write)
        trace)

let prop_cache_hits_plus_misses =
  QCheck.Test.make ~name:"hits + misses = accesses" ~count:300 cache_trace_gen
    (fun (n_sets, assoc, trace) ->
      let c =
        Cache.create
          { size_bytes = n_sets * assoc * 64; assoc; line_bytes = 64; latency = 1 }
      in
      List.iter (fun (line_addr, write) -> ignore (Cache.access c ~line_addr ~write)) trace;
      Cache.stats_hits c + Cache.stats_misses c = List.length trace)

let prop_fully_assoc_no_eviction_within_capacity =
  (* a fully-associative cache touched with <= capacity distinct lines:
     misses = compulsory only, nothing is ever displaced *)
  QCheck.Test.make
    ~name:"fully-associative: within-capacity working set never evicts" ~count:300
    (QCheck.make
       ~print:(fun (cap, tr) -> Fmt.str "cap=%d trace=%a" cap Fmt.(Dump.list int) tr)
       QCheck.Gen.(
         oneofl [ 1; 2; 4; 8; 16 ] >>= fun cap ->
         list_size (1 -- 200) (int_bound (cap - 1)) >|= fun picks -> (cap, picks)))
    (fun (cap, picks) ->
      let c =
        Cache.create { size_bytes = cap * 64; assoc = cap; line_bytes = 64; latency = 1 }
      in
      let distinct = List.sort_uniq compare picks in
      let no_evict =
        List.for_all
          (fun line_addr ->
            (Cache.access c ~line_addr ~write:true).evicted_dirty = None)
          picks
      in
      no_evict
      && Cache.stats_misses c = List.length distinct
      && List.for_all (fun a -> Cache.probe c ~line_addr:a) distinct)

let prop_cache_most_recent_present =
  QCheck.Test.make ~name:"most recent access always resident" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 1000))
    (fun addrs ->
      let c = tiny_cache () in
      List.for_all
        (fun a ->
          ignore (Cache.access c ~line_addr:a ~write:false);
          Cache.probe c ~line_addr:a)
        addrs)

let suite =
  ( "arch",
    [ Alcotest.test_case "cache hit after fill" `Quick test_cache_hit_after_fill;
      Alcotest.test_case "cache LRU" `Quick test_cache_lru_eviction;
      Alcotest.test_case "cache dirty eviction" `Quick test_cache_dirty_eviction;
      Alcotest.test_case "cache dirty count" `Quick test_cache_dirty_count;
      Alcotest.test_case "cache non-pow2 sets" `Quick test_cache_non_pow2_sets;
      Alcotest.test_case "prefetch stream" `Quick test_prefetch_stream_detected;
      Alcotest.test_case "prefetch random" `Quick test_prefetch_random_not_covered;
      Alcotest.test_case "hierarchy levels" `Quick test_hierarchy_levels;
      Alcotest.test_case "hierarchy nt write" `Quick test_hierarchy_nt_write;
      Alcotest.test_case "hierarchy drain" `Quick test_hierarchy_drain;
      Alcotest.test_case "machine presets" `Quick test_machine_presets;
      Alcotest.test_case "future scaling" `Quick test_future_scaling;
      Alcotest.test_case "gather cost" `Quick test_gather_cost;
      Alcotest.test_case "threads speed up" `Quick test_timing_threads_speedup;
      Alcotest.test_case "timing deterministic" `Quick test_timing_deterministic;
      Alcotest.test_case "bandwidth bound" `Quick test_timing_bandwidth_bound;
      Alcotest.test_case "traffic accounting" `Quick test_timing_traffic_accounting;
      Alcotest.test_case "oversubscription rejected" `Quick test_timing_rejects_oversubscription;
      Alcotest.test_case "flops and speedup" `Quick test_speedup_and_flops;
      QCheck_alcotest.to_alcotest prop_cache_most_recent_present;
      QCheck_alcotest.to_alcotest prop_cache_matches_lru_model;
      QCheck_alcotest.to_alcotest prop_cache_hits_plus_misses;
      QCheck_alcotest.to_alcotest prop_fully_assoc_no_eviction_within_capacity ] )
