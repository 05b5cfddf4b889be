(* Cache-model microbenchmark: ns per access of the timing model's
   access port ([Timing.stall_port]) and of [Prefetch.observe], by
   replaying access streams straight into the model, with no
   interpreter in the loop.

     dune exec tools/probe_cache.exe [-- REPS]

   Streams, all on Westmere:
   - NBody naive serial and TreeSearch ninja, recorded from the compiled
     executor's port (NBody: all but 450 of 7.3 M accesses hit L1);
   - synthetic L2 hits: 2048 lines (128 KiB) in a fixed random order,
     200 passes, so every access misses L1 and hits L2;
   - synthetic DRAM misses: 1 M lines (64 MiB) in a fixed random order,
     twice;
   - [Prefetch.observe] on the lines of TreeSearch's stream that miss a
     lone L1, with a 32-stream table.
   Each figure is the median of REPS replays (default 7), each on a
   fresh hierarchy. *)

module Machine = Ninja_arch.Machine
module Cache = Ninja_arch.Cache
module Hierarchy = Ninja_arch.Hierarchy
module Prefetch = Ninja_arch.Prefetch
module Timing = Ninja_arch.Timing
module Driver = Ninja_kernels.Driver

(* A growable stream of accesses, each packed into one int. *)
type stream = { mutable a : int array; mutable n : int }

let push s v =
  if s.n = Array.length s.a then begin
    let b = Array.make ((2 * s.n) + 16) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let pack ~thread ~addr ~bytes ~write ~chain ~nt =
  (addr lsl 20) lor (bytes lsl 8) lor (thread lsl 3)
  lor (if write then 4 else 0)
  lor (if chain then 2 else 0)
  lor if nt then 1 else 0

let record bench step_name (m : Machine.t) =
  let b = Ninja_kernels.Registry.find bench in
  let step =
    List.find (fun (s : Driver.step) -> s.step_name = step_name) (b.steps ~scale:b.default_scale)
  in
  let prog = step.make ~machine:m in
  let mem = Driver.memory_for prog (step.bindings ()) in
  let s = { a = [||]; n = 0 } in
  let port ~thread ~addr ~bytes ~write ~chain ~nt =
    push s (pack ~thread ~addr ~bytes ~write ~chain ~nt)
  in
  let n_threads = if step.parallel then m.cores else 1 in
  let launch = Ninja_vm.Interp.session ~n_threads ~width:m.simd_width ~port prog mem in
  for run = 0 to step.runs m - 1 do
    step.prepare m run mem;
    ignore (launch () : Ninja_vm.Interp.result)
  done;
  s

(* [lines] distinct lines visited [passes] times in one fixed random order *)
let synthetic ~lines ~passes =
  let perm = Array.init lines Fun.id in
  let r = ref 12345 in
  for i = lines - 1 downto 1 do
    r := ((!r * 1103515245) + 12345) land 0x3fffffff;
    let j = !r mod (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let s = { a = [||]; n = 0 } in
  for _ = 1 to passes do
    Array.iter
      (fun l -> push s (pack ~thread:0 ~addr:(l * 64) ~bytes:8 ~write:false ~chain:false ~nt:false))
      perm
  done;
  s

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let replay_port ~reps name (m : Machine.t) s =
  let levels = ref [] in
  let dt =
    median
      (List.init reps (fun _ ->
           let hier = Hierarchy.create m in
           let port = Timing.stall_port m hier (Array.make m.cores 0.) in
           let a = s.a in
           let dt =
             timed (fun () ->
                 for k = 0 to s.n - 1 do
                   let v = Array.unsafe_get a k in
                   port ~thread:((v lsr 3) land 31) ~addr:(v lsr 20)
                     ~bytes:((v lsr 8) land 0xfff) ~write:(v land 4 <> 0)
                     ~chain:(v land 2 <> 0) ~nt:(v land 1 <> 0)
                 done)
           in
           levels := List.map (Hierarchy.accesses hier) Hierarchy.[ L1; L2; LLC; Dram ];
           dt))
  in
  Fmt.pr "%-30s %8.1f ns/access  (%d accesses; L1/L2/LLC/DRAM %a)@." name
    (dt *. 1e9 /. float_of_int s.n)
    s.n
    Fmt.(list ~sep:(any "/") int)
    !levels

let replay_prefetch ~reps name (m : Machine.t) s =
  let l1 = Cache.create m.l1 and lines = { a = [||]; n = 0 } in
  for k = 0 to s.n - 1 do
    let v = s.a.(k) in
    let addr = v lsr 20 and bytes = (v lsr 8) land 0xfff in
    for line_addr = addr lsr 6 to (addr + bytes - 1) lsr 6 do
      if not (Cache.access l1 ~line_addr ~write:false).hit then push lines line_addr
    done
  done;
  let dt =
    median
      (List.init reps (fun _ ->
           let p = Prefetch.create ~streams:32 () in
           timed (fun () ->
               for k = 0 to lines.n - 1 do
                 ignore (Prefetch.observe p ~line_addr:(Array.unsafe_get lines.a k) : bool)
               done)))
  in
  Fmt.pr "%-30s %8.1f ns/call    (%d calls)@." name
    (dt *. 1e9 /. float_of_int lines.n)
    lines.n

let () =
  let reps = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 7 in
  let w = Machine.westmere in
  replay_port ~reps "L1 hit: NBody naive serial" w (record "NBody" "naive serial" w);
  replay_port ~reps "L2 hit: 128 KiB random" w (synthetic ~lines:2048 ~passes:200);
  replay_port ~reps "DRAM miss: 64 MiB random" w (synthetic ~lines:(1 lsl 20) ~passes:2);
  let tree = record "TreeSearch" "ninja" w in
  replay_port ~reps "mixed: TreeSearch ninja" w tree;
  replay_prefetch ~reps "Prefetch.observe: TreeSearch" w tree
