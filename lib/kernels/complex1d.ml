(* Complex 1-D convolution (FIR filter over complex samples).

   The naive code keeps complex numbers interleaved (re, im, re, im, ...):
   every access in the vectorized tap loop then has stride 2 and is priced
   as a gather-emulation sequence. The algorithmic change splits the signal
   and taps into separate real/imaginary arrays (AoS -> SoA), making every
   access unit-stride. Unlike BlackScholes, there is almost no
   transcendental math to hide behind, so the layout change is the whole
   story. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

let naive_src =
  {|
kernel cconv_naive(sig : float[], taps : float[], out : float[], n : int, t : int) {
  var i : int;
  var j : int;
  pragma parallel
  for (i = 0; i < n; i = i + 1) {
    var acc_re : float = 0.0;
    var acc_im : float = 0.0;
    for (j = 0; j < t; j = j + 1) {
      var sr : float = sig[2 * (i + j)];
      var si : float = sig[2 * (i + j) + 1];
      var cr : float = taps[2 * j];
      var ci : float = taps[2 * j + 1];
      acc_re = acc_re + (sr * cr - si * ci);
      acc_im = acc_im + (sr * ci + si * cr);
    }
    out[2 * i] = acc_re;
    out[2 * i + 1] = acc_im;
  }
}
|}

let opt_src =
  {|
kernel cconv_soa(sr : float[], si : float[], tr : float[], ti : float[],
                 outr : float[], outi : float[], n : int, t : int) {
  var i : int;
  var j : int;
  pragma parallel
  for (i = 0; i < n; i = i + 1) {
    var acc_re : float = 0.0;
    var acc_im : float = 0.0;
    pragma simd
    for (j = 0; j < t; j = j + 1) {
      acc_re = acc_re + (sr[i + j] * tr[j] - si[i + j] * ti[j]);
      acc_im = acc_im + (sr[i + j] * ti[j] + si[i + j] * tr[j]);
    }
    outr[i] = acc_re;
    outi[i] = acc_im;
  }
}
|}

let reference ~sr ~si ~tr ~ti ~n ~t =
  let outr = Array.make n 0. and outi = Array.make n 0. in
  for i = 0 to n - 1 do
    let ar = ref 0. and ai = ref 0. in
    for j = 0 to t - 1 do
      ar := !ar +. (sr.(i + j) *. tr.(j)) -. (si.(i + j) *. ti.(j));
      ai := !ai +. (sr.(i + j) *. ti.(j)) +. (si.(i + j) *. tr.(j))
    done;
    outr.(i) <- !ar;
    outi.(i) <- !ai
  done;
  (outr, outi)

(* Ninja: SoA, vectorized over OUTPUT samples (i) rather than taps, with tap
   scalars broadcast per tap — unit-stride loads of the signal, two
   accumulators, FMA chains. *)
let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"cconv [ninja]" in
  let bsr = Builder.buffer_f b "sr" in
  let bsi = Builder.buffer_f b "si" in
  let btr = Builder.buffer_f b "tr" in
  let bti = Builder.buffer_f b "ti" in
  let boutr = Builder.buffer_f b "outr" in
  let bouti = Builder.buffer_f b "outi" in
  let n_cell = Builder.param_cell_i b "n" in
  let t_cell = Builder.param_cell_i b "t" in
  Builder.par_phase b (fun () ->
      let n = Builder.load_param_i b n_cell in
      let t = Builder.load_param_i b t_cell in
      let w = Isa.vector_width_reg in
      let lo, hi = Builder.thread_range_aligned b ~n in
      let one = Builder.iconst b 1 in
      let zero = Builder.iconst b 0 in
      Builder.for_ b ~lo ~hi ~step:w (fun i ->
          let accr = Builder.vf b in
          Builder.emit b (Vbroadcastf (accr, Builder.fconst b 0.));
          let acci = Builder.vf b in
          Builder.emit b (Vbroadcastf (acci, Builder.fconst b 0.));
          Builder.for_ b ~lo:zero ~hi:t ~step:one (fun j ->
              let idx = Builder.ibin b Iadd i j in
              let vload buf idx =
                let r = Builder.vf b in
                Builder.emit b (Vloadf { dst = r; buf; idx; mask = None });
                r
              in
              let sr = vload bsr idx and si = vload bsi idx in
              let sload buf =
                let r = Builder.sf b in
                Builder.emit b (Loadf { dst = r; buf; idx = j; chain = false });
                Builder.vbroadcastf b r
              in
              let cr = sload btr and ci = sload bti in
              if fma then begin
                Builder.emit b (Vfma (accr, sr, cr, accr));
                let neg_ci = Builder.vfunop b Fneg ci in
                Builder.emit b (Vfma (accr, si, neg_ci, accr));
                Builder.emit b (Vfma (acci, sr, ci, acci));
                Builder.emit b (Vfma (acci, si, cr, acci))
              end
              else begin
                let a = Builder.vfbin b Fmul sr cr in
                let c = Builder.vfbin b Fmul si ci in
                let re = Builder.vfbin b Fsub a c in
                Builder.emit b (Vfbin (Fadd, accr, accr, re));
                let d = Builder.vfbin b Fmul sr ci in
                let e = Builder.vfbin b Fmul si cr in
                let im = Builder.vfbin b Fadd d e in
                Builder.emit b (Vfbin (Fadd, acci, acci, im))
              end);
          Builder.emit b (Vstoref { buf = boutr; idx = i; src = accr; mask = None });
          Builder.emit b (Vstoref { buf = bouti; idx = i; src = acci; mask = None })));
  Builder.finish b

type dims = { n : int; t : int }

let dims ~scale = { n = 1024 * scale; t = 16 }

type dataset = {
  sr : float array;
  si : float array;
  tr : float array;
  ti : float array;
  eoutr : float array;
  eouti : float array;
}

let dataset { n; t } =
  let len = n + t in
  let sr = Ninja_workloads.Gen.floats ~seed:61 ~lo:(-1.) ~hi:1. len in
  let si = Ninja_workloads.Gen.floats ~seed:62 ~lo:(-1.) ~hi:1. len in
  let tr = Ninja_workloads.Gen.floats ~seed:63 ~lo:(-1.) ~hi:1. t in
  let ti = Ninja_workloads.Gen.floats ~seed:64 ~lo:(-1.) ~hi:1. t in
  let eoutr, eouti = reference ~sr ~si ~tr ~ti ~n ~t in
  { sr; si; tr; ti; eoutr; eouti }

let params dm = [ ("n", Driver.Iscalar dm.n); ("t", Driver.Iscalar dm.t) ]
let param_shapes = [ ("n", Driver.I_scalar); ("t", Driver.I_scalar) ]

let io_naive dm d : Driver.io =
  {
    shapes =
      [ ("sig", Driver.F_array (2 * (dm.n + dm.t)));
        ("taps", Driver.F_array (2 * dm.t));
        ("out", Driver.F_array (2 * dm.n)) ]
      @ param_shapes;
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("sig", Driver.Farr (Ninja_workloads.Gen.interleave2 d.sr d.si));
          ("taps", Driver.Farr (Ninja_workloads.Gen.interleave2 d.tr d.ti));
          ("out", Driver.Farr (Array.make (2 * dm.n) 0.)) ]
        @ params dm);
    check =
      (fun mem ->
        let d = Driver.force d in
        let expected = Ninja_workloads.Gen.interleave2 d.eoutr d.eouti in
        Driver.check_floats ~rtol:1e-3 ~atol:1e-4 ~expected (Driver.output_f mem "out"));
  }

let io_soa dm d : Driver.io =
  {
    shapes =
      List.map (fun name -> (name, Driver.F_array (dm.n + dm.t))) [ "sr"; "si" ]
      @ List.map (fun name -> (name, Driver.F_array dm.t)) [ "tr"; "ti" ]
      @ List.map (fun name -> (name, Driver.F_array dm.n)) [ "outr"; "outi" ]
      @ param_shapes;
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("sr", Driver.Farr (Array.copy d.sr));
          ("si", Driver.Farr (Array.copy d.si));
          ("tr", Driver.Farr (Array.copy d.tr));
          ("ti", Driver.Farr (Array.copy d.ti));
          ("outr", Driver.Farr (Array.make dm.n 0.));
          ("outi", Driver.Farr (Array.make dm.n 0.)) ]
        @ params dm);
    check =
      (fun mem ->
        let d = Driver.force d in
        let ( let* ) = Result.bind in
        let* () = Driver.check_floats ~rtol:1e-3 ~atol:1e-4 ~expected:d.eoutr (Driver.output_f mem "outr") in
        Driver.check_floats ~rtol:1e-3 ~atol:1e-4 ~expected:d.eouti (Driver.output_f mem "outi"));
  }

let benchmark : Driver.benchmark =
  {
    b_name = "ComplexConv1D";
    b_desc = "complex FIR filter (layout-sensitive SIMD)";
    b_algo_note = "AoS (interleaved re/im) -> SoA split of signal and taps";
    b_sources = [ ("naive", naive_src); ("algo", opt_src) ];
    default_scale = 8;
    steps =
      (fun ~scale ->
        let dm = dims ~scale in
        let d = Driver.once (fun () -> dataset dm) in
        let soa = io_soa dm d in
        Common.ladder
          ~sources:{ naive = naive_src; opt = opt_src; ninja }
          ~naive:(io_naive dm d) ~opt:soa ~ninja:soa);
  }
