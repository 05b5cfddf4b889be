(* TreeSearch: batched lookups in a large binary search tree — the suite's
   memory-latency-bound benchmark.

   The naive code walks the tree pointer-chasing style: each level's load
   address depends on the previous level's comparison, so misses serialize
   (the compiler's taint analysis marks them as dependent chains) and the
   loop cannot vectorize at all. The algorithmic change is the paper's
   level-synchronous ("SIMD-across-queries") restructuring: one kernel
   launch advances every query by one level, which vectorizes into gathers
   and exposes memory-level parallelism across queries. Ninja code keeps the
   whole walk in one launch with per-packet gathers; on machines with
   hardware gather (MIC) it is dramatically cheaper. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

let naive_src =
  {|
kernel treesearch_naive(tree : float[], queries : float[], result : int[],
                        nq : int, depth : int) {
  var q : int;
  var d : int;
  pragma parallel
  for (q = 0; q < nq; q = q + 1) {
    var node : int = 0;
    var key : float = queries[q];
    for (d = 0; d < depth; d = d + 1) {
      var kn : float = tree[node];
      if (key < kn) { node = 2 * node + 1; } else { node = 2 * node + 2; }
    }
    result[q] = node;
  }
}
|}

(* One level for every query; the harness launches this [depth] times. *)
let opt_src =
  {|
kernel treesearch_level(tree : float[], queries : float[], result : int[], nq : int) {
  var q : int;
  pragma parallel
  pragma simd
  for (q = 0; q < nq; q = q + 1) {
    var node : int = result[q];
    var key : float = queries[q];
    var kn : float = tree[node];
    var l : int = 2 * node + 1;
    var r : int = 2 * node + 2;
    if (key < kn) { node = l; } else { node = r; }
    result[q] = node;
  }
}
|}

let reference ~tree ~queries ~depth =
  Array.map
    (fun key ->
      let node = ref 0 in
      for _ = 1 to depth do
        node := if key < tree.(!node) then (2 * !node) + 1 else (2 * !node) + 2
      done;
      !node)
    queries

let ninja ~machine =
  ignore machine;
  let b = Builder.create ~name:"treesearch [ninja]" in
  let tree = Builder.buffer_f b "tree" in
  let queries = Builder.buffer_f b "queries" in
  let result = Builder.buffer_i b "result" in
  let nq_cell = Builder.param_cell_i b "nq" in
  let depth_cell = Builder.param_cell_i b "depth" in
  Builder.par_phase b (fun () ->
      let nq = Builder.load_param_i b nq_cell in
      let depth = Builder.load_param_i b depth_cell in
      let w = Isa.vector_width_reg in
      let lo, hi = Builder.thread_range_aligned b ~n:nq in
      let zero = Builder.iconst b 0 in
      let one = Builder.iconst b 1 in
      let two = Builder.vbroadcasti b (Builder.iconst b 2) in
      let vone = Builder.vbroadcasti b one in
      let vtwo_c = Builder.vbroadcasti b (Builder.iconst b 2) in
      Builder.for_ b ~lo ~hi ~step:w (fun i ->
          let keys = Builder.vf b in
          Builder.emit b (Vloadf { dst = keys; buf = queries; idx = i; mask = None });
          let nodes = Builder.vbroadcasti b zero in
          Builder.for_ b ~lo:zero ~hi:depth ~step:one (fun _d ->
              let kn = Builder.vf b in
              Builder.emit b
                (Vgatherf { dst = kn; buf = tree; idx = nodes; mask = None; chain = false });
              let go_left = Builder.vm b in
              Builder.emit b (Vfcmp (Clt, go_left, keys, kn));
              (* node = 2*node + (left ? 1 : 2) *)
              let doubled = Builder.vibin b Imul nodes two in
              let off = Builder.vi b in
              Builder.emit b (Vselecti (off, go_left, vone, vtwo_c));
              Builder.emit b (Vibin (Iadd, nodes, doubled, off)));
          Builder.emit b (Vstorei { buf = result; idx = i; src = nodes; mask = None })));
  Builder.finish b

(* Tree depth grows with scale so that large scales spill out of the LLC;
   at the default scale the leaf levels live in DRAM. The tree has
   [depth + 1] full levels, so every walk ends on a valid node index. *)
type dims = { depth : int; nq : int }

let dims ~scale = { depth = 14 + scale; nq = 512 * scale }
let tree_len dm = (1 lsl (dm.depth + 1)) - 1

type dataset = { tree : float array; queries : float array; expected : int array }

let dataset { depth; nq } =
  let tree = Ninja_workloads.Gen.bst_level_order ~seed:71 ~depth:(depth + 1) in
  let queries = Ninja_workloads.Gen.floats ~seed:72 ~lo:0. ~hi:1000. nq in
  { tree; queries; expected = reference ~tree ~queries ~depth }

(* The level-synchronous variant takes no [depth]: it seeds [result] with
   the root and launches once per level. *)
let io ~with_depth dm d : Driver.io =
  {
    shapes =
      [ ("tree", Driver.F_array (tree_len dm));
        ("queries", Driver.F_array dm.nq);
        ("result", Driver.I_array dm.nq);
        ("nq", Driver.I_scalar) ]
      @ if with_depth then [ ("depth", Driver.I_scalar) ] else [];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("tree", Driver.Farr d.tree) (* read-only: shared, not copied *);
          ("queries", Driver.Farr (Array.copy d.queries));
          ("result", Driver.Iarr (Array.make dm.nq 0));
          ("nq", Driver.Iscalar dm.nq) ]
        @ if with_depth then [ ("depth", Driver.Iscalar dm.depth) ] else []);
    check =
      (fun mem ->
        let d = Driver.force d in
        Driver.check_ints ~expected:d.expected (Driver.output_i mem "result"));
  }

let benchmark : Driver.benchmark =
  {
    b_name = "TreeSearch";
    b_desc = "batched binary-tree lookups (memory latency bound)";
    b_algo_note = "level-synchronous SIMD-across-queries restructuring (gathers)";
    b_sources = [ ("naive", naive_src); ("algo", opt_src) ];
    default_scale = 8;
    steps =
      (fun ~scale ->
        let dm = dims ~scale in
        let d = Driver.once (fun () -> dataset dm) in
        let walk = io ~with_depth:true dm d in
        let naive_k = Common.parse_kernel naive_src in
        let opt_k = Common.parse_kernel opt_src in
        let simple name flags parallel =
          Driver.simple_step ~name ~parallel
            ~make:(fun ~machine -> Common.compile_with flags ~machine naive_k)
            walk
        in
        [ simple "naive serial" Ninja_lang.Codegen.o2 false;
          simple "+autovec" Ninja_lang.Codegen.o2_vec false;
          simple "+parallel" Ninja_lang.Codegen.o2_vec_par true;
          { (Driver.simple_step ~name:"+algorithmic" ~parallel:true
               ~make:(fun ~machine ->
                 Common.compile_with Ninja_lang.Codegen.o2_vec_par ~machine opt_k)
               (io ~with_depth:false dm d))
            with runs = (fun _ -> dm.depth) };
          Driver.simple_step ~name:"ninja" ~parallel:true
            ~make:(fun ~machine -> ninja ~machine)
            walk ]);
  }
