(* 5x5 2D convolution over a padded image.

   The naive code loops over the 25 taps with two short nested loops; the
   compiler's cost model refuses to vectorize a 5-trip loop, so only the
   scalar pipeline runs. The algorithmic change is the classic one: unroll
   the tap loops by hand so that the pixel (x) loop becomes the innermost
   loop and vectorizes with unit strides and hoisted coefficient
   broadcasts. Ninja code is the same structure scheduled by hand. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

let taps = 5

let naive_src =
  {|
kernel conv2d_naive(img : float[], coef : float[], out : float[], w : int, h : int) {
  var x : int;
  var y : int;
  var ky : int;
  var kx : int;
  pragma parallel
  for (y = 0; y < h; y = y + 1) {
    for (x = 0; x < w; x = x + 1) {
      var acc : float = 0.0;
      for (ky = 0; ky < 5; ky = ky + 1) {
        for (kx = 0; kx < 5; kx = kx + 1) {
          acc = acc + img[(y + ky) * (w + 4) + x + kx] * coef[ky * 5 + kx];
        }
      }
      out[y * w + x] = acc;
    }
  }
}
|}

(* Tap loops unrolled by hand: the x loop is now innermost and vectorizes. *)
let opt_src =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    {|
kernel conv2d_unrolled(img : float[], coef : float[], out : float[], w : int, h : int) {
  var x : int;
  var y : int;
  pragma parallel
  for (y = 0; y < h; y = y + 1) {
    var row : int = y * (w + 4);
    pragma simd
    for (x = 0; x < w; x = x + 1) {
      var acc : float = 0.0;
|};
  for ky = 0 to taps - 1 do
    for kx = 0 to taps - 1 do
      Buffer.add_string buf
        (Fmt.str "      acc = acc + img[row + %d * (w + 4) + x + %d] * coef[%d];\n"
           ky kx ((ky * taps) + kx))
    done
  done;
  Buffer.add_string buf {|
      out[y * w + x] = acc;
    }
  }
}
|};
  Buffer.contents buf

let reference ~img ~coef ~w ~h =
  let pw = w + 4 in
  let out = Array.make (w * h) 0. in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let acc = ref 0. in
      for ky = 0 to taps - 1 do
        for kx = 0 to taps - 1 do
          acc := !acc +. (img.(((y + ky) * pw) + x + kx) *. coef.((ky * taps) + kx))
        done
      done;
      out.((y * w) + x) <- !acc
    done
  done;
  out

let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"conv2d [ninja]" in
  let img = Builder.buffer_f b "img" in
  let coef = Builder.buffer_f b "coef" in
  let out = Builder.buffer_f b "out" in
  let w_cell = Builder.param_cell_i b "w" in
  let h_cell = Builder.param_cell_i b "h" in
  Builder.par_phase b (fun () ->
      let w = Builder.load_param_i b w_cell in
      let h = Builder.load_param_i b h_cell in
      let vw = Isa.vector_width_reg in
      (* hoisted coefficient broadcasts *)
      let coefs =
        Array.init (taps * taps) (fun k ->
            let idx = Builder.iconst b k in
            let s = Builder.sf b in
            Builder.emit b (Loadf { dst = s; buf = coef; idx; chain = false });
            Builder.vbroadcastf b s)
      in
      let four = Builder.iconst b 4 in
      let pw = Builder.ibin b Iadd w four in
      (* rows are chunked across threads; each row's x loop is vectorized
         (w is kept a multiple of the widest SIMD width by the dataset) *)
      let row_lo, row_hi = Builder.thread_range b ~n:h in
      let one = Builder.iconst b 1 in
      let zero = Builder.iconst b 0 in
      Builder.for_ b ~lo:row_lo ~hi:row_hi ~step:one (fun y ->
          let row = Builder.ibin b Imul y pw in
          let out_row = Builder.ibin b Imul y w in
          Builder.for_ b ~lo:zero ~hi:w ~step:vw (fun x ->
              let acc = Builder.vf b in
              Builder.emit b (Vbroadcastf (acc, Builder.fconst b 0.));
              for ky = 0 to taps - 1 do
                let krow =
                  if ky = 0 then row
                  else begin
                    let o = Builder.iconst b ky in
                    let t = Builder.ibin b Imul o pw in
                    Builder.ibin b Iadd row t
                  end
                in
                for kx = 0 to taps - 1 do
                  let base =
                    if kx = 0 then Builder.ibin b Iadd krow x
                    else begin
                      let o = Builder.iconst b kx in
                      let t = Builder.ibin b Iadd krow o in
                      Builder.ibin b Iadd t x
                    end
                  in
                  let v = Builder.vf b in
                  Builder.emit b (Vloadf { dst = v; buf = img; idx = base; mask = None });
                  if fma then Builder.emit b (Vfma (acc, v, coefs.((ky * taps) + kx), acc))
                  else begin
                    let p = Builder.vfbin b Fmul v coefs.((ky * taps) + kx) in
                    Builder.emit b (Vfbin (Fadd, acc, acc, p))
                  end
                done
              done;
              let oidx = Builder.ibin b Iadd out_row x in
              Builder.emit b (Vstoref { buf = out; idx = oidx; src = acc; mask = None }))));
  Builder.finish b

type dims = { w : int; h : int }

let dims ~scale = { w = 64 * scale; h = 32 * scale }

type dataset = { img : float array; coef : float array; expected : float array }

let dataset { w; h } =
  let img = Ninja_workloads.Gen.floats ~seed:31 ~lo:0. ~hi:1. ((w + 4) * (h + 4)) in
  let coef = Ninja_workloads.Gen.floats ~seed:32 ~lo:(-0.2) ~hi:0.2 (taps * taps) in
  { img; coef; expected = reference ~img ~coef ~w ~h }

let io dm d : Driver.io =
  {
    shapes =
      [ ("img", Driver.F_array ((dm.w + 4) * (dm.h + 4)));
        ("coef", Driver.F_array (taps * taps));
        ("out", Driver.F_array (dm.w * dm.h));
        ("w", Driver.I_scalar);
        ("h", Driver.I_scalar) ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("img", Driver.Farr (Array.copy d.img));
          ("coef", Driver.Farr (Array.copy d.coef));
          ("out", Driver.Farr (Array.make (dm.w * dm.h) 0.));
          ("w", Driver.Iscalar dm.w);
          ("h", Driver.Iscalar dm.h) ]);
    check =
      (fun mem ->
        let d = Driver.force d in
        Driver.check_floats ~rtol:1e-3 ~atol:1e-4 ~expected:d.expected (Driver.output_f mem "out"));
  }

let benchmark : Driver.benchmark =
  {
    b_name = "Conv2D";
    b_desc = "5x5 image convolution (regular compute, register reuse)";
    b_algo_note = "unroll the 5x5 tap loops so the pixel loop vectorizes";
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
