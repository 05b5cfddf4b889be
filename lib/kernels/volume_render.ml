(* Volume Rendering: per-pixel ray marching with front-to-back compositing
   and early ray termination — the suite's divergence-and-gather benchmark.

   The naive code walks each ray with a data-dependent [while] (terminate
   when opacity saturates), which cannot vectorize. The algorithmic change
   converts the walk to a fixed-trip loop with a guarding [if] (the paper's
   "ray packet" restructuring): the pixel loop then vectorizes with masked
   gathers, at the cost of marching every ray to the common step bound.
   Ninja code restores early exit per packet: it marches W rays together
   and breaks as soon as the whole packet saturates. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

(* Shared ray setup: a tilted parallel projection through the volume. *)
let ray_setup =
  {|
    var px : int = p % w;
    var py : int = p / w;
    var fx : float = float(px) * float(nx - 8) / float(w) + 1.0;
    var fy : float = float(py) * float(ny - 8) / float(h) + 1.0;
    var fz : float = 1.0;
    var dx : float = 0.2 + 0.3 * float(px) / float(w);
    var dy : float = 0.1 + 0.2 * float(py) / float(h);
    var dz : float = 1.0;
|}

let sample_and_composite =
  {|
      var ix : int = int(fx);
      var iy : int = int(fy);
      var iz : int = int(fz);
      var s : float = vol[ix + nx * (iy + ny * iz)];
      var alpha : float = fminf(fmaxf(0.4 * s - 0.05, 0.0), 1.0);
      acc = acc + trans * alpha * s;
      trans = trans * (1.0 - alpha);
      fx = fx + dx;
      fy = fy + dy;
      fz = fz + dz;
|}

let naive_src =
  Fmt.str
    {|
kernel vr_naive(vol : float[], img : float[], w : int, h : int,
                nx : int, ny : int, nz : int, nsteps : int) {
  var p : int;
  pragma parallel
  for (p = 0; p < w * h; p = p + 1) {
%s
    var acc : float = 0.0;
    var trans : float = 1.0;
    var step : int = 0;
    while (step < nsteps && trans > 0.02) {
%s
      step = step + 1;
    }
    img[p] = acc;
  }
}
|}
    ray_setup sample_and_composite

(* Level-synchronous marching: one kernel launch advances every live ray by
   one step, with per-ray state held in arrays (the scalar-state-to-array
   restructuring that lets the pixel loop vectorize with masked gathers).
   The harness launches it [nsteps] times; ray setup is precomputed into
   the state arrays by the binding. *)
let opt_src =
  {|
kernel vr_step(vol : float[], fxa : float[], fya : float[], fza : float[],
               dxa : float[], dya : float[], acca : float[], transa : float[],
               npix : int, nx : int, ny : int) {
  var p : int;
  pragma parallel
  pragma simd
  for (p = 0; p < npix; p = p + 1) {
    var trans : float = transa[p];
    var ix : int = int(fxa[p]);
    var iy : int = int(fya[p]);
    var iz : int = int(fza[p]);
    var s : float = vol[ix + nx * (iy + ny * iz)];
    var alpha : float = fminf(fmaxf(0.4 * s - 0.05, 0.0), 1.0);
    if (trans > 0.02) {
      acca[p] = acca[p] + trans * alpha * s;
      transa[p] = trans * (1.0 - alpha);
      fxa[p] = fxa[p] + dxa[p];
      fya[p] = fya[p] + dya[p];
      fza[p] = fza[p] + 1.0;
    }
  }
}
|}

let reference ~vol ~w ~h ~nx ~ny ~nz ~nsteps =
  ignore nz;
  let img = Array.make (w * h) 0. in
  for p = 0 to (w * h) - 1 do
    let px = p mod w and py = p / w in
    let fx = ref (1.0 +. (float_of_int px *. float_of_int (nx - 8) /. float_of_int w)) in
    let fy = ref (1.0 +. (float_of_int py *. float_of_int (ny - 8) /. float_of_int h)) in
    let fz = ref 1.0 in
    let dx = 0.2 +. (0.3 *. float_of_int px /. float_of_int w) in
    let dy = 0.1 +. (0.2 *. float_of_int py /. float_of_int h) in
    let dz = 1.0 in
    let acc = ref 0. and trans = ref 1.0 in
    let step = ref 0 in
    while !step < nsteps && !trans > 0.02 do
      let ix = int_of_float !fx and iy = int_of_float !fy and iz = int_of_float !fz in
      let s = vol.(ix + (nx * (iy + (ny * iz)))) in
      let alpha = Float.min (Float.max ((0.4 *. s) -. 0.05) 0.) 1. in
      acc := !acc +. (!trans *. alpha *. s);
      trans := !trans *. (1. -. alpha);
      fx := !fx +. dx;
      fy := !fy +. dy;
      fz := !fz +. dz;
      incr step
    done;
    img.(p) <- !acc
  done;
  img

(* Ninja: W-ray packets with whole-packet early termination. *)
let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"vr [ninja]" in
  let vol = Builder.buffer_f b "vol" in
  let img = Builder.buffer_f b "img" in
  let cells = [ "w"; "h"; "nx"; "ny"; "nz"; "nsteps" ] in
  let cell_map = List.map (fun n -> (n, Builder.param_cell_i b n)) cells in
  Builder.par_phase b (fun () ->
      let param n = Builder.load_param_i b (List.assoc n cell_map) in
      let w = param "w" in
      let h = param "h" in
      let nx = param "nx" in
      let ny = param "ny" in
      let _nz = param "nz" in
      let nsteps = param "nsteps" in
      let vw = Isa.vector_width_reg in
      let npix = Builder.ibin b Imul w h in
      let lo, hi = Builder.thread_range_aligned b ~n:npix in
      let fconstv x = Builder.vbroadcastf b (Builder.fconst b x) in
      let vone = fconstv 1.0 in
      let vzero = fconstv 0.0 in
      let thresh = fconstv 0.02 in
      let c04 = fconstv 0.4 in
      let c005 = fconstv 0.05 in
      let f_of i = let r = Builder.vf b in Builder.emit b (Vfofi (r, i)); r
      in
      Builder.for_ b ~lo ~hi ~step:vw (fun i ->
          let lanes = Builder.vi b in
          Builder.emit b (Viota lanes);
          let vp = Builder.vibin b Iadd (Builder.vbroadcasti b i) lanes in
          let vwv = Builder.vbroadcasti b w in
          let vpx = Builder.vibin b Imod vp vwv in
          let vpy = Builder.vibin b Idiv vp vwv in
          let fpx = f_of vpx and fpy = f_of vpy in
          let wf = Builder.vbroadcastf b (let r = Builder.sf b in Builder.emit b (Fofi (r, w)); r) in
          let hf = Builder.vbroadcastf b (let r = Builder.sf b in Builder.emit b (Fofi (r, h)); r) in
          let nx8 =
            let t = Builder.ibin b Isub nx (Builder.iconst b 8) in
            Builder.vbroadcastf b (let r = Builder.sf b in Builder.emit b (Fofi (r, t)); r)
          in
          let ny8 =
            let t = Builder.ibin b Isub ny (Builder.iconst b 8) in
            Builder.vbroadcastf b (let r = Builder.sf b in Builder.emit b (Fofi (r, t)); r)
          in
          let fx = Builder.vf b in
          Builder.emit b (Vmovf (fx, (let t = Builder.vfbin b Fmul fpx nx8 in
                                      let t = Builder.vfbin b Fdiv t wf in
                                      Builder.vfbin b Fadd t vone)));
          let fy = Builder.vf b in
          Builder.emit b (Vmovf (fy, (let t = Builder.vfbin b Fmul fpy ny8 in
                                      let t = Builder.vfbin b Fdiv t hf in
                                      Builder.vfbin b Fadd t vone)));
          let fz = Builder.vf b in
          Builder.emit b (Vmovf (fz, vone));
          let dx =
            let t = Builder.vfbin b Fmul (fconstv 0.3) (Builder.vfbin b Fdiv fpx wf) in
            Builder.vfbin b Fadd (fconstv 0.2) t
          in
          let dy =
            let t = Builder.vfbin b Fmul (fconstv 0.2) (Builder.vfbin b Fdiv fpy hf) in
            Builder.vfbin b Fadd (fconstv 0.1) t
          in
          let acc = Builder.vf b in
          Builder.emit b (Vmovf (acc, vzero));
          let trans = Builder.vf b in
          Builder.emit b (Vmovf (trans, vone));
          let step = Builder.si b in
          Builder.emit b (Imov (step, Builder.iconst b 0));
          let vnx = Builder.vbroadcasti b nx in
          let vny = Builder.vbroadcasti b ny in
          (* march until the whole packet saturates or steps run out *)
          Builder.while_ b
            ~cond:(fun () ->
              let live = Builder.vm b in
              Builder.emit b (Vfcmp (Cgt, live, trans, thresh));
              let any = Builder.si b in
              Builder.emit b (Many (any, live));
              let more = Builder.si b in
              Builder.emit b (Icmp (Clt, more, step, nsteps));
              let both = Builder.si b in
              Builder.emit b (Ibin (Iand, both, any, more));
              both)
            (fun () ->
              let live = Builder.vm b in
              Builder.emit b (Vfcmp (Cgt, live, trans, thresh));
              let ix = Builder.vi b in
              Builder.emit b (Vioff (ix, fx));
              let iy = Builder.vi b in
              Builder.emit b (Vioff (iy, fy));
              let iz = Builder.vi b in
              Builder.emit b (Vioff (iz, fz));
              let t = Builder.vibin b Imul vny iz in
              let t = Builder.vibin b Iadd t iy in
              let t = Builder.vibin b Imul vnx t in
              let idx = Builder.vibin b Iadd t ix in
              let s = Builder.vf b in
              Builder.emit b (Vgatherf { dst = s; buf = vol; idx; mask = Some live; chain = false });
              let alpha =
                let t = Builder.vmuladd b ~fma c04 s (Builder.vfunop b Fneg c005) in
                Builder.vfbin b Fmin (Builder.vfbin b Fmax t vzero) vone
              in
              let contrib = Builder.vfbin b Fmul (Builder.vfbin b Fmul trans alpha) s in
              let acc' = Builder.vfbin b Fadd acc contrib in
              Builder.emit b (Vselectf (acc, live, acc', acc));
              let trans' = Builder.vfbin b Fmul trans (Builder.vfbin b Fsub vone alpha) in
              Builder.emit b (Vselectf (trans, live, trans', trans));
              Builder.emit b (Vfbin (Fadd, fx, fx, dx));
              Builder.emit b (Vfbin (Fadd, fy, fy, dy));
              Builder.emit b (Vfbin (Fadd, fz, fz, vone));
              Builder.emit b (Ibin (Iadd, step, step, Builder.iconst b 1)));
          Builder.emit b (Vstoref { buf = img; idx = i; src = acc; mask = None })));
  Builder.finish b

type dims = { w : int; h : int; nx : int; ny : int; nz : int; nsteps : int }

let dims ~scale =
  let nsteps = 48 in
  { w = 32 * scale; h = 16 * scale; nx = 64; ny = 64; nz = nsteps + 4; nsteps }

type dataset = { vol : float array; expected : float array }

let dataset ({ w; h; nx; ny; nz; nsteps } : dims) =
  let vol = Ninja_workloads.Gen.grid3d ~seed:91 ~nx ~ny ~nz in
  (* normalize the field into [0, 1.2] so opacities are sensible *)
  let vol = Array.map (fun x -> Float.min 1.2 (Float.max 0. (0.4 *. (x +. 1.2))) ) vol in
  { vol; expected = reference ~vol ~w ~h ~nx ~ny ~nz ~nsteps }

let check d ~out mem =
  let d = Driver.force d in
  Driver.check_floats ~rtol:2e-3 ~atol:1e-3 ~expected:d.expected (Driver.output_f mem out)

let io dm d : Driver.io =
  {
    shapes =
      [ ("vol", Driver.F_array (dm.nx * dm.ny * dm.nz)); ("img", Driver.F_array (dm.w * dm.h)) ]
      @ List.map (fun name -> (name, Driver.I_scalar)) [ "w"; "h"; "nx"; "ny"; "nz"; "nsteps" ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("vol", Driver.Farr d.vol);
          ("img", Driver.Farr (Array.make (dm.w * dm.h) 0.));
          ("w", Driver.Iscalar dm.w);
          ("h", Driver.Iscalar dm.h);
          ("nx", Driver.Iscalar dm.nx);
          ("ny", Driver.Iscalar dm.ny);
          ("nz", Driver.Iscalar dm.nz);
          ("nsteps", Driver.Iscalar dm.nsteps) ]);
    check = check d ~out:"img";
  }

(* ray state for the level-synchronous variant *)
let ray_state dm =
  let npix = dm.w * dm.h in
  let fxa = Array.make npix 0. and fya = Array.make npix 0. in
  let fza = Array.make npix 1. in
  let dxa = Array.make npix 0. and dya = Array.make npix 0. in
  for p = 0 to npix - 1 do
    let px = p mod dm.w and py = p / dm.w in
    fxa.(p) <- 1.0 +. (float_of_int px *. float_of_int (dm.nx - 8) /. float_of_int dm.w);
    fya.(p) <- 1.0 +. (float_of_int py *. float_of_int (dm.ny - 8) /. float_of_int dm.h);
    dxa.(p) <- 0.2 +. (0.3 *. float_of_int px /. float_of_int dm.w);
    dya.(p) <- 0.1 +. (0.2 *. float_of_int py /. float_of_int dm.h)
  done;
  (fxa, fya, fza, dxa, dya)

let io_rays dm d : Driver.io =
  let npix = dm.w * dm.h in
  {
    shapes =
      ("vol", Driver.F_array (dm.nx * dm.ny * dm.nz))
      :: List.map (fun name -> (name, Driver.F_array npix))
           [ "fxa"; "fya"; "fza"; "dxa"; "dya"; "acca"; "transa" ]
      @ List.map (fun name -> (name, Driver.I_scalar)) [ "npix"; "nx"; "ny" ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        let fxa, fya, fza, dxa, dya = ray_state dm in
        [ ("vol", Driver.Farr d.vol);
          ("fxa", Driver.Farr fxa); ("fya", Driver.Farr fya); ("fza", Driver.Farr fza);
          ("dxa", Driver.Farr dxa); ("dya", Driver.Farr dya);
          ("acca", Driver.Farr (Array.make npix 0.));
          ("transa", Driver.Farr (Array.make npix 1.));
          ("npix", Driver.Iscalar npix);
          ("nx", Driver.Iscalar dm.nx);
          ("ny", Driver.Iscalar dm.ny) ]);
    check = check d ~out:"acca";
  }

let benchmark : Driver.benchmark =
  {
    b_name = "VolumeRender";
    b_desc = "ray marching with early termination (divergence + gathers)";
    b_algo_note = "level-synchronous masked marching with ray state in arrays";
    b_sources = [ ("naive", naive_src); ("algo", opt_src) ];
    default_scale = 4;
    steps =
      (fun ~scale ->
        let dm = dims ~scale in
        let d = Driver.once (fun () -> dataset dm) in
        let walk = io dm d in
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
          (* one launch per marching step, ray state kept in arrays *)
          { (Driver.simple_step ~name:"+algorithmic" ~parallel:true
               ~make:(fun ~machine ->
                 Common.compile_with Ninja_lang.Codegen.o2_vec_par ~machine opt_k)
               (io_rays dm d))
            with runs = (fun _ -> dm.nsteps) };
          Driver.simple_step ~name:"ninja" ~parallel:true
            ~make:(fun ~machine -> ninja ~machine)
            walk ]);
  }
