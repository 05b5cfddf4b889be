(* Black-Scholes European option pricing — the suite's vector-math-bound
   benchmark.

   Naive code keeps option records in an array-of-structures layout
   (S,K,T,r,v interleaved), which forces the vectorizer into strided loads;
   the algorithmic change is the classic AoS -> SoA conversion, after which
   the loop vectorizes with unit strides. Ninja code is hand-vectorized SoA
   with FMA polynomial evaluation. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

let fields = 5 (* S, K, T, r, v *)

(* The cumulative normal distribution via the Abramowitz-Stegun polynomial
   (the approximation every Black-Scholes kernel in the paper's era used). *)
let cnd x =
  let ax = Float.abs x in
  let k = 1. /. (1. +. (0.2316419 *. ax)) in
  let poly =
    k
    *. (0.319381530
       +. (k
          *. (-0.356563782
             +. (k *. (1.781477937 +. (k *. (-1.821255978 +. (k *. 1.330274429))))))))
  in
  let c = 1. -. (0.39894228 *. Float.exp (-0.5 *. ax *. ax) *. poly) in
  if x < 0. then 1. -. c else c

let price ~s ~k ~t ~r ~v =
  let sq = Float.sqrt t in
  let d1 = (Float.log (s /. k) +. ((r +. (v *. v *. 0.5)) *. t)) /. (v *. sq) in
  let d2 = d1 -. (v *. sq) in
  (s *. cnd d1) -. (k *. Float.exp (-.r *. t) *. cnd d2)

(* Cee text of the CND polynomial, shared by both variants (the language has
   no functions, so — like the naive C programmer — we inline it). [x] is
   the input variable name, [out] the result variable (must be declared). *)
let cnd_src ~x ~out =
  Fmt.str
    {|
    var ax_%s : float = fabsf(%s);
    var kk_%s : float = 1.0 / (1.0 + 0.2316419 * ax_%s);
    var poly_%s : float =
      kk_%s * (0.319381530 + kk_%s * (0.0 - 0.356563782 + kk_%s *
        (1.781477937 + kk_%s * (0.0 - 1.821255978 + kk_%s * 1.330274429))));
    %s = 1.0 - 0.39894228 * expf(0.0 - 0.5 * ax_%s * ax_%s) * poly_%s;
    if (%s < 0.0) { %s = 1.0 - %s; }
|}
    x x x x x x x x x x out x x x x out out

let body_src =
  Fmt.str
    {|
    var sqrt_t : float = sqrtf(t);
    var d1 : float = (logf(s / k) + (r + v * v * 0.5) * t) / (v * sqrt_t);
    var d2 : float = d1 - v * sqrt_t;
    var nd1 : float = 0.0;
    var nd2 : float = 0.0;
    %s
    %s
    out[i] = s * nd1 - k * expf(0.0 - r * t) * nd2;
|}
    (cnd_src ~x:"d1" ~out:"nd1")
    (cnd_src ~x:"d2" ~out:"nd2")

let naive_src =
  Fmt.str
    {|
kernel blackscholes_naive(data : float[], out : float[], n : int) {
  var i : int;
  pragma parallel
  for (i = 0; i < n; i = i + 1) {
    var s : float = data[i * 5];
    var k : float = data[i * 5 + 1];
    var t : float = data[i * 5 + 2];
    var r : float = data[i * 5 + 3];
    var v : float = data[i * 5 + 4];
    %s
  }
}
|}
    body_src

let opt_src =
  Fmt.str
    {|
kernel blackscholes_soa(sa : float[], ka : float[], ta : float[],
                        ra : float[], va : float[], out : float[], n : int) {
  var i : int;
  pragma parallel
  pragma simd
  for (i = 0; i < n; i = i + 1) {
    var s : float = sa[i];
    var k : float = ka[i];
    var t : float = ta[i];
    var r : float = ra[i];
    var v : float = va[i];
    %s
  }
}
|}
    body_src

(* ------------------------------------------------------------------ *)
(* Ninja implementation: hand-vectorized SoA                           *)

let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"blackscholes [ninja]" in
  let sa = Builder.buffer_f b "sa" in
  let ka = Builder.buffer_f b "ka" in
  let ta = Builder.buffer_f b "ta" in
  let ra = Builder.buffer_f b "ra" in
  let va = Builder.buffer_f b "va" in
  let out = Builder.buffer_f b "out" in
  let n_cell = Builder.param_cell_i b "n" in
  Builder.par_phase b (fun () ->
      let n = Builder.load_param_i b n_cell in
      let w = Isa.vector_width_reg in
      let lo, hi = Builder.thread_range_aligned b ~n in
      (* constants hoisted out of the loop, Ninja style *)
      let const x = Builder.vbroadcastf b (Builder.fconst b x) in
      let one = const 1.0 in
      let zero = const 0.0 in
      let half = const 0.5 in
      let halfneg = const (-0.5) in
      let c0 = const 0.2316419 in
      let coef = const 0.39894228 in
      let a5 = const 1.330274429 in
      let a4 = const (-1.821255978) in
      let a3 = const 1.781477937 in
      let a2 = const (-0.356563782) in
      let a1 = const 0.319381530 in
      (* vectorized CND: c = 1 - phi(|x|)poly(|x|), then blend for x < 0 *)
      let vcnd x =
        let ax = Builder.vfunop b Fabs x in
        let kk =
          let denom = Builder.vmuladd b ~fma c0 ax one in
          Builder.vfbin b Fdiv one denom
        in
        let horner acc coeff = Builder.vmuladd b ~fma acc kk coeff in
        let p = horner a5 a4 in
        let p = horner p a3 in
        let p = horner p a2 in
        let p = horner p a1 in
        let poly = Builder.vfbin b Fmul kk p in
        let x2 = Builder.vfbin b Fmul ax ax in
        let e = Builder.vfunop b Fexp (Builder.vfbin b Fmul halfneg x2) in
        let prod = Builder.vfbin b Fmul (Builder.vfbin b Fmul coef e) poly in
        let c = Builder.vfbin b Fsub one prod in
        let neg = Builder.vm b in
        Builder.emit b (Vfcmp (Clt, neg, x, zero));
        let flipped = Builder.vfbin b Fsub one c in
        let r = Builder.vf b in
        Builder.emit b (Vselectf (r, neg, flipped, c));
        r
      in
      Builder.region b "option pricing loop" @@ fun () ->
      Builder.for_ b ~lo ~hi ~step:w (fun i ->
          let vload buf =
            let r = Builder.vf b in
            Builder.emit b (Vloadf { dst = r; buf; idx = i; mask = None });
            r
          in
          let s = vload sa and k = vload ka and t = vload ta in
          let r = vload ra and v = vload va in
          let sq = Builder.vfunop b Fsqrt t in
          let v2h = Builder.vfbin b Fmul (Builder.vfbin b Fmul v v) half in
          let drift = Builder.vfbin b Fadd r v2h in
          let lg = Builder.vfunop b Flog (Builder.vfbin b Fdiv s k) in
          let num = Builder.vmuladd b ~fma drift t lg in
          let vsq = Builder.vfbin b Fmul v sq in
          let d1 = Builder.vfbin b Fdiv num vsq in
          let d2 = Builder.vfbin b Fsub d1 vsq in
          let nd1 = vcnd d1 in
          let nd2 = vcnd d2 in
          let negrt = Builder.vfunop b Fneg (Builder.vfbin b Fmul r t) in
          let disc = Builder.vfunop b Fexp negrt in
          let call =
            Builder.vfbin b Fsub
              (Builder.vfbin b Fmul s nd1)
              (Builder.vfbin b Fmul (Builder.vfbin b Fmul k disc) nd2)
          in
          Builder.emit b (Vstoref { buf = out; idx = i; src = call; mask = None })));
  Builder.finish b

(* ------------------------------------------------------------------ *)
(* Dataset, bindings, checks                                           *)

let size ~scale = 2048 * scale

type dataset = {
  s : float array;
  k : float array;
  t : float array;
  r : float array;
  v : float array;
  expected : float array;
}

let dataset n =
  let s = Ninja_workloads.Gen.floats ~seed:11 ~lo:5. ~hi:30. n in
  let k = Ninja_workloads.Gen.floats ~seed:12 ~lo:10. ~hi:25. n in
  let t = Ninja_workloads.Gen.floats ~seed:13 ~lo:0.25 ~hi:10. n in
  let r = Array.make n 0.02 in
  let v = Ninja_workloads.Gen.floats ~seed:14 ~lo:0.05 ~hi:0.65 n in
  let expected =
    Array.init n (fun i -> price ~s:s.(i) ~k:k.(i) ~t:t.(i) ~r:r.(i) ~v:v.(i))
  in
  { s; k; t; r; v; expected }

let check d mem =
  let d = Driver.force d in
  Driver.check_floats ~rtol:1e-3 ~expected:d.expected (Driver.output_f mem "out")

let io_naive n d : Driver.io =
  {
    shapes = [ ("data", Driver.F_array (5 * n)); ("out", Driver.F_array n); ("n", Driver.I_scalar) ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        let data = Ninja_workloads.Gen.interleave [ d.s; d.k; d.t; d.r; d.v ] in
        [ ("data", Driver.Farr data);
          ("out", Driver.Farr (Array.make n 0.));
          ("n", Driver.Iscalar n) ]);
    check = check d;
  }

let io_soa n d : Driver.io =
  {
    shapes =
      List.map (fun name -> (name, Driver.F_array n)) [ "sa"; "ka"; "ta"; "ra"; "va"; "out" ]
      @ [ ("n", Driver.I_scalar) ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("sa", Driver.Farr (Array.copy d.s));
          ("ka", Driver.Farr (Array.copy d.k));
          ("ta", Driver.Farr (Array.copy d.t));
          ("ra", Driver.Farr (Array.copy d.r));
          ("va", Driver.Farr (Array.copy d.v));
          ("out", Driver.Farr (Array.make n 0.));
          ("n", Driver.Iscalar n) ]);
    check = check d;
  }

let benchmark : Driver.benchmark =
  {
    b_name = "BlackScholes";
    b_desc = "European option pricing (vector transcendental math)";
    b_algo_note = "AoS -> SoA conversion of the option records";
    b_sources = [ ("naive", naive_src); ("algo", opt_src) ];
    default_scale = 8;
    steps =
      (fun ~scale ->
        let n = size ~scale in
        let d = Driver.once (fun () -> dataset n) in
        let soa = io_soa n d in
        Common.ladder
          ~sources:{ naive = naive_src; opt = opt_src; ninja }
          ~naive:(io_naive n d) ~opt:soa ~ninja:soa);
  }
