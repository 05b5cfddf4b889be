(* MergeSort (bottom-up, one kernel launch per pass).

   The merge inner loop carries a data-dependent control dependence, so no
   traditional-code restructuring lets the compiler vectorize it: the
   vectorizer reports the while-loop, and the paper's fix — SIMD merge
   networks — is intrinsics-level Ninja code by nature. The ladder therefore
   keeps the same source for "+algorithmic" (documented in T2), and the
   Ninja implementation merges W-wide blocks through an in-register bitonic
   merge network (with an in-register bitonic sort pass to build the initial
   W-element runs). Thread scaling also collapses in the last passes when
   there are fewer run pairs than cores — visible in the results, as in the
   paper. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

(* One merge pass: merge sorted runs of length [width] from [a] into [b],
   then copy back (so that every pass reads from [a]). *)
let naive_src =
  {|
kernel merge_pass(a : float[], b : float[], n : int, width : int) {
  var pair : int;
  var npairs : int = (n + 2 * width - 1) / (2 * width);
  pragma parallel
  for (pair = 0; pair < npairs; pair = pair + 1) {
    var lo : int = pair * 2 * width;
    var mid : int = lo + width;
    var hi : int = lo + 2 * width;
    if (mid > n) { mid = n; }
    if (hi > n) { hi = n; }
    var i : int = lo;
    var j : int = mid;
    var k : int = lo;
    while (i < mid && j < hi) {
      var x : float = a[i];
      var y : float = a[j];
      if (x <= y) {
        b[k] = x;
        i = i + 1;
      } else {
        b[k] = y;
        j = j + 1;
      }
      k = k + 1;
    }
    while (i < mid) {
      b[k] = a[i];
      i = i + 1;
      k = k + 1;
    }
    while (j < hi) {
      b[k] = a[j];
      j = j + 1;
      k = k + 1;
    }
    var t : int;
    for (t = lo; t < hi; t = t + 1) {
      a[t] = b[t];
    }
  }
}
|}

let reference input =
  let out = Array.copy input in
  Array.sort Float.compare out;
  out

(* ------------------------------------------------------------------ *)
(* Ninja: in-register bitonic sort + W-wide bitonic merge network       *)

(* Compare-exchange stage at distance [j]: every lane takes min or max of
   (itself, lane xor j) according to [take_min]. *)
let stage b v ~j ~take_min ~w =
  let partner = Builder.vf b in
  Builder.emit b (Vpermutef (partner, v, Array.init w (fun p -> p lxor j)));
  let mn = Builder.vfbin b Fmin v partner in
  let mx = Builder.vfbin b Fmax v partner in
  let m = Builder.vm b in
  Builder.emit b (Mpattern (m, take_min));
  Builder.emit b (Vselectf (v, m, mn, mx))

(* Full ascending bitonic sort of the W lanes of [v] (in place). *)
let sort_in_register b v ~w =
  let k = ref 2 in
  while !k <= w do
    let j = ref (!k / 2) in
    while !j >= 1 do
      let take_min =
        Array.init w (fun p -> (p land !j = 0) = (p land !k = 0))
      in
      stage b v ~j:!j ~take_min ~w;
      j := !j / 2
    done;
    k := !k * 2
  done

(* Cleanup of a W-lane bitonic sequence into ascending order (in place). *)
let bitonic_cleanup b v ~w =
  let j = ref (w / 2) in
  while !j >= 1 do
    stage b v ~j:!j ~take_min:(Array.init w (fun p -> p land !j = 0)) ~w;
    j := !j / 2
  done

(* Merge two ascending registers: [lo_dst] <- the W smallest, [hi_dst] <-
   the W largest (both ascending). *)
let bitonic_merge b ~l ~h ~lo_dst ~hi_dst ~w =
  let rev = Builder.vf b in
  Builder.emit b (Vpermutef (rev, h, Array.init w (fun p -> w - 1 - p)));
  let mn = Builder.vfbin b Fmin l rev in
  let mx = Builder.vfbin b Fmax l rev in
  Builder.emit b (Vmovf (lo_dst, mn));
  Builder.emit b (Vmovf (hi_dst, mx));
  bitonic_cleanup b lo_dst ~w;
  bitonic_cleanup b hi_dst ~w

let ninja ~machine =
  let w = machine.Machine.simd_width in
  let b = Builder.create ~name:"mergesort [ninja]" in
  let ba = Builder.buffer_f b "a" in
  let bb = Builder.buffer_f b "b" in
  let n_cell = Builder.param_cell_i b "n" in
  let width_cell = Builder.param_cell_i b "width" in
  Builder.par_phase b (fun () ->
      let n = Builder.load_param_i b n_cell in
      let width = Builder.load_param_i b width_cell in
      let wreg = Isa.vector_width_reg in
      let zero = Builder.iconst b 0 in
      let one = Builder.iconst b 1 in
      let two = Builder.iconst b 2 in
      let vload buf idx = let r = Builder.vf b in
        Builder.emit b (Vloadf { dst = r; buf; idx; mask = None }); r in
      let is_sort_pass = Builder.si b in
      Builder.emit b (Icmp (Ceq, is_sort_pass, width, zero));
      Builder.if_ b ~cond:is_sort_pass
        (fun () ->
          (* pass 0: sort each W-element block in-register *)
          let lo, hi = Builder.thread_range_aligned b ~n in
          Builder.for_ b ~lo ~hi ~step:wreg (fun i ->
              let v = vload ba i in
              sort_in_register b v ~w;
              Builder.emit b (Vstoref { buf = ba; idx = i; src = v; mask = None })))
        ~else_:(fun () ->
          (* merge pass: runs of [width] (a multiple of W) from a into b *)
          let twow = Builder.ibin b Imul two width in
          let npairs = Builder.ibin b Idiv n twow in
          let plo, phi = Builder.thread_range b ~n:npairs in
          Builder.for_ b ~lo:plo ~hi:phi ~step:one (fun pair ->
              let lo = Builder.ibin b Imul pair twow in
              let mid = Builder.ibin b Iadd lo width in
              let hi = Builder.ibin b Iadd lo twow in
              let ia = Builder.si b in
              Builder.emit b (Imov (ia, lo));
              let ib = Builder.si b in
              Builder.emit b (Imov (ib, mid));
              let k = Builder.si b in
              Builder.emit b (Imov (k, lo));
              let rest = Builder.vf b in
              let out = Builder.vf b in
              let advance src_idx =
                (* load a block at [src_idx], bump it by W *)
                let v = vload ba src_idx in
                Builder.emit b (Ibin (Iadd, src_idx, src_idx, wreg));
                v
              in
              let emit_merge next =
                let lo_d = Builder.vf b in
                bitonic_merge b ~l:rest ~h:next ~lo_dst:lo_d ~hi_dst:rest ~w;
                Builder.emit b (Vmovf (out, lo_d));
                Builder.emit b (Vstoref { buf = bb; idx = k; src = out; mask = None });
                Builder.emit b (Ibin (Iadd, k, k, wreg))
              in
              (* prime with the first block of each run *)
              let va = advance ia in
              let vb = advance ib in
              let lo_d = Builder.vf b in
              bitonic_merge b ~l:va ~h:vb ~lo_dst:lo_d ~hi_dst:rest ~w;
              Builder.emit b (Vstoref { buf = bb; idx = k; src = lo_d; mask = None });
              Builder.emit b (Ibin (Iadd, k, k, wreg));
              (* main loop: take the block whose head is smaller *)
              Builder.while_ b
                ~cond:(fun () ->
                  let ca = Builder.si b in
                  Builder.emit b (Icmp (Clt, ca, ia, mid));
                  let cb = Builder.si b in
                  Builder.emit b (Icmp (Clt, cb, ib, hi));
                  Builder.ibin b Iand ca cb)
                (fun () ->
                  let ha = Builder.sf b in
                  Builder.emit b (Loadf { dst = ha; buf = ba; idx = ia; chain = false });
                  let hb = Builder.sf b in
                  Builder.emit b (Loadf { dst = hb; buf = ba; idx = ib; chain = false });
                  let take_a = Builder.si b in
                  Builder.emit b (Fcmp (Cle, take_a, ha, hb));
                  Builder.if_ b ~cond:take_a
                    (fun () -> emit_merge (advance ia))
                    ~else_:(fun () -> emit_merge (advance ib)));
              (* drain whichever run has blocks left *)
              Builder.while_ b
                ~cond:(fun () ->
                  let c = Builder.si b in
                  Builder.emit b (Icmp (Clt, c, ia, mid));
                  c)
                (fun () -> emit_merge (advance ia));
              Builder.while_ b
                ~cond:(fun () ->
                  let c = Builder.si b in
                  Builder.emit b (Icmp (Clt, c, ib, hi));
                  c)
                (fun () -> emit_merge (advance ib));
              Builder.emit b (Vstoref { buf = bb; idx = k; src = rest; mask = None });
              (* copy the merged range back into a *)
              Builder.for_ b ~lo ~hi ~step:wreg (fun t ->
                  let v = vload bb t in
                  Builder.emit b (Vstoref { buf = ba; idx = t; src = v; mask = None })))));
  Builder.finish b

let size ~scale =
  let n = 1024 * scale in
  if n land (n - 1) <> 0 then invalid_arg "Mergesort: scale must make n a power of two";
  n

type dataset = { input : float array; expected : float array }

let dataset n =
  let input = Ninja_workloads.Gen.floats ~seed:101 ~lo:0. ~hi:1e6 n in
  { input; expected = reference input }

let io n d : Driver.io =
  {
    shapes =
      [ ("a", Driver.F_array n); ("b", Driver.F_array n);
        ("n", Driver.I_scalar); ("width", Driver.I_scalar) ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("a", Driver.Farr (Array.copy d.input));
          ("b", Driver.Farr (Array.make n 0.));
          ("n", Driver.Iscalar n);
          ("width", Driver.Iscalar 1) ]);
    check =
      (fun mem ->
        let d = Driver.force d in
        Driver.check_floats ~rtol:0. ~atol:0. ~expected:d.expected (Driver.output_f mem "a"));
  }

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let compiled_step n io name flags =
  let k = Common.parse_kernel naive_src in
  {
    (Driver.simple_step ~name ~parallel:flags.Ninja_lang.Codegen.parallelize
       ~make:(fun ~machine -> Common.compile_with flags ~machine k)
       io)
    with
    runs = (fun _ -> log2i n);
    prepare = (fun _ run mem -> Driver.set_scalar_i mem "width" (1 lsl run));
  }

let ninja_step n io =
  {
    (Driver.simple_step ~name:"ninja" ~parallel:true ~make:(fun ~machine -> ninja ~machine) io)
    with
    runs = (fun machine -> 1 + log2i (n / machine.Ninja_arch.Machine.simd_width));
    prepare =
      (fun machine run mem ->
        let w = machine.Ninja_arch.Machine.simd_width in
        Driver.set_scalar_i mem "width" (if run = 0 then 0 else w lsl (run - 1)));
  }

let benchmark : Driver.benchmark =
  {
    b_name = "MergeSort";
    b_desc = "bottom-up merge sort (data-dependent control flow)";
    b_algo_note = "none expressible traditionally: SIMD merge networks are intrinsics-level";
    b_sources = [ ("naive", naive_src) ];
    default_scale = 16;
    steps =
      (fun ~scale ->
        let n = size ~scale in
        let io = io n (Driver.once (fun () -> dataset n)) in
        [ compiled_step n io "naive serial" Ninja_lang.Codegen.o2;
          compiled_step n io "+autovec" Ninja_lang.Codegen.o2_vec;
          compiled_step n io "+parallel" Ninja_lang.Codegen.o2_vec_par;
          compiled_step n io "+algorithmic" Ninja_lang.Codegen.o2_vec_par;
          ninja_step n io ]);
  }
