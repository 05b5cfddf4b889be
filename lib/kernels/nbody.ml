(* N-Body gravity (O(N^2) force computation) — the suite's compute-bound
   benchmark.

   The data is already structure-of-arrays, so the inner interaction loop
   auto-vectorizes once the compiler is allowed to (the [i]-body loads hoist
   as invariant broadcasts, the accumulations are sum reductions) — NBody is
   one of the paper's examples where compiler technology alone bridges the
   gap, and no algorithmic restructuring is needed at cache-resident body
   counts. The improved variant only adds the pragmas; Ninja code
   hand-schedules the inner loop with rsqrt and FMA. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

let body_loop ~pragmas =
  Fmt.str
    {|
kernel nbody(x : float[], y : float[], z : float[], m : float[],
             ax : float[], ay : float[], az : float[], n : int, eps : float) {
  var i : int;
  var j : int;
  pragma parallel
  for (i = 0; i < n; i = i + 1) {
    var axi : float = 0.0;
    var ayi : float = 0.0;
    var azi : float = 0.0;
    %s
    for (j = 0; j < n; j = j + 1) {
      var dx : float = x[j] - x[i];
      var dy : float = y[j] - y[i];
      var dz : float = z[j] - z[i];
      var r2 : float = dx * dx + dy * dy + dz * dz + eps;
      var inv : float = 1.0 / sqrtf(r2);
      var inv3 : float = inv * inv * inv * m[j];
      axi = axi + dx * inv3;
      ayi = ayi + dy * inv3;
      azi = azi + dz * inv3;
    }
    ax[i] = axi;
    ay[i] = ayi;
    az[i] = azi;
  }
}
|}
    pragmas

let naive_src = body_loop ~pragmas:""
let opt_src = body_loop ~pragmas:"pragma simd"

let reference ~x ~y ~z ~m ~eps =
  let n = Array.length x in
  let ax = Array.make n 0. and ay = Array.make n 0. and az = Array.make n 0. in
  for i = 0 to n - 1 do
    let axi = ref 0. and ayi = ref 0. and azi = ref 0. in
    for j = 0 to n - 1 do
      let dx = x.(j) -. x.(i) and dy = y.(j) -. y.(i) and dz = z.(j) -. z.(i) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. eps in
      let inv = 1. /. Float.sqrt r2 in
      let inv3 = inv *. inv *. inv *. m.(j) in
      axi := !axi +. (dx *. inv3);
      ayi := !ayi +. (dy *. inv3);
      azi := !azi +. (dz *. inv3)
    done;
    ax.(i) <- !axi;
    ay.(i) <- !ayi;
    az.(i) <- !azi
  done;
  (ax, ay, az)

(* Hand-vectorized inner loop: invariant broadcasts hoisted, rsqrt instead
   of divide+sqrt, FMA where the machine has it, three vector accumulators
   reduced once per outer iteration. *)
let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"nbody [ninja]" in
  let bx = Builder.buffer_f b "x" in
  let by = Builder.buffer_f b "y" in
  let bz = Builder.buffer_f b "z" in
  let bm = Builder.buffer_f b "m" in
  let bax = Builder.buffer_f b "ax" in
  let bay = Builder.buffer_f b "ay" in
  let baz = Builder.buffer_f b "az" in
  let n_cell = Builder.param_cell_i b "n" in
  let eps_cell = Builder.param_cell_f b "eps" in
  Builder.par_phase b (fun () ->
      let n = Builder.load_param_i b n_cell in
      let eps = Builder.load_param_f b eps_cell in
      let veps = Builder.vbroadcastf b eps in
      let w = Isa.vector_width_reg in
      let lo, hi = Builder.thread_range b ~n in
      let one = Builder.iconst b 1 in
      Builder.for_ b ~lo ~hi ~step:one (fun i ->
          let sload buf =
            let r = Builder.sf b in
            Builder.emit b (Loadf { dst = r; buf; idx = i; chain = false });
            r
          in
          let xi = Builder.vbroadcastf b (sload bx) in
          let yi = Builder.vbroadcastf b (sload by) in
          let zi = Builder.vbroadcastf b (sload bz) in
          let acc () =
            let r = Builder.vf b in
            Builder.emit b (Vbroadcastf (r, Builder.fconst b 0.));
            r
          in
          let accx = acc () and accy = acc () and accz = acc () in
          let zero = Builder.iconst b 0 in
          Builder.for_ b ~lo:zero ~hi:n ~step:w (fun j ->
              let vload buf =
                let r = Builder.vf b in
                Builder.emit b (Vloadf { dst = r; buf; idx = j; mask = None });
                r
              in
              let dx = Builder.vfbin b Fsub (vload bx) xi in
              let dy = Builder.vfbin b Fsub (vload by) yi in
              let dz = Builder.vfbin b Fsub (vload bz) zi in
              let r2 =
                let t = Builder.vmuladd b ~fma dx dx veps in
                let t = Builder.vmuladd b ~fma dy dy t in
                Builder.vmuladd b ~fma dz dz t
              in
              let inv = Builder.vfunop b Frsqrt r2 in
              let inv2 = Builder.vfbin b Fmul inv inv in
              let inv3 = Builder.vfbin b Fmul inv2 inv in
              let s = Builder.vfbin b Fmul inv3 (vload bm) in
              let accumulate acc d =
                if fma then Builder.emit b (Vfma (acc, d, s, acc))
                else begin
                  let p = Builder.vfbin b Fmul d s in
                  Builder.emit b (Vfbin (Fadd, acc, acc, p))
                end
              in
              accumulate accx dx;
              accumulate accy dy;
              accumulate accz dz);
          let store buf acc =
            let r = Builder.sf b in
            Builder.emit b (Vreducef (Rsum, r, acc));
            Builder.emit b (Storef { buf; idx = i; src = r })
          in
          store bax accx;
          store bay accy;
          store baz accz));
  Builder.finish b

type dims = { n : int; eps : float }

let dims ~scale = { n = 256 * scale; eps = 0.01 }

type dataset = {
  x : float array;
  y : float array;
  z : float array;
  m : float array;
  eax : float array;
  eay : float array;
  eaz : float array;
}

let dataset { n; eps } =
  let x = Ninja_workloads.Gen.floats ~seed:21 ~lo:(-1.) ~hi:1. n in
  let y = Ninja_workloads.Gen.floats ~seed:22 ~lo:(-1.) ~hi:1. n in
  let z = Ninja_workloads.Gen.floats ~seed:23 ~lo:(-1.) ~hi:1. n in
  let m = Ninja_workloads.Gen.floats ~seed:24 ~lo:0.1 ~hi:1. n in
  let eax, eay, eaz = reference ~x ~y ~z ~m ~eps in
  { x; y; z; m; eax; eay; eaz }

let io dm d : Driver.io =
  {
    shapes =
      List.map (fun name -> (name, Driver.F_array dm.n)) [ "x"; "y"; "z"; "m"; "ax"; "ay"; "az" ]
      @ [ ("n", Driver.I_scalar); ("eps", Driver.F_scalar) ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("x", Driver.Farr (Array.copy d.x));
          ("y", Driver.Farr (Array.copy d.y));
          ("z", Driver.Farr (Array.copy d.z));
          ("m", Driver.Farr (Array.copy d.m));
          ("ax", Driver.Farr (Array.make dm.n 0.));
          ("ay", Driver.Farr (Array.make dm.n 0.));
          ("az", Driver.Farr (Array.make dm.n 0.));
          ("n", Driver.Iscalar dm.n);
          ("eps", Driver.Fscalar dm.eps) ]);
    check =
      (fun mem ->
        let d = Driver.force d in
        let ( let* ) = Result.bind in
        let* () = Driver.check_floats ~rtol:2e-3 ~atol:1e-3 ~expected:d.eax (Driver.output_f mem "ax") in
        let* () = Driver.check_floats ~rtol:2e-3 ~atol:1e-3 ~expected:d.eay (Driver.output_f mem "ay") in
        Driver.check_floats ~rtol:2e-3 ~atol:1e-3 ~expected:d.eaz (Driver.output_f mem "az"));
  }

let benchmark : Driver.benchmark =
  {
    b_name = "NBody";
    b_desc = "O(N^2) gravitational force computation (compute bound)";
    b_algo_note = "none required (SoA layout; compiler vectorizes the interaction loop)";
    b_sources = [ ("naive", naive_src); ("algo", opt_src) ];
    default_scale = 4;
    steps =
      (fun ~scale ->
        let dm = dims ~scale in
        let io = io dm (Driver.once (fun () -> dataset dm)) in
        Common.ladder
          ~sources:{ naive = naive_src; opt = opt_src; ninja }
          ~naive:io ~opt:io ~ninja:io);
  }
