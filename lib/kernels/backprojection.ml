(* BackProjection: 2-D filtered backprojection of sinogram data (CT
   reconstruction style) — gather-heavy compute.

   For every image pixel, the detector coordinate under each projection
   angle is a data-dependent function of the pixel position, so the inner
   angle loop vectorizes only through (CPU-emulated) gathers. The
   algorithmic change hoists the per-angle geometry into precomputed tables
   and asserts vectorization; the remaining gap is exactly the gather
   emulation cost, which hardware gather support (experiment F6, MIC)
   removes — the paper's "hardware support for programmability" case. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

let naive_src =
  {|
kernel backproj_naive(proj : float[], ca : float[], sa : float[],
                      img : float[], w : int, h : int, na : int, nu : int) {
  var p : int;
  var a : int;
  pragma parallel
  for (p = 0; p < w * h; p = p + 1) {
    var px : float = float(p % w) - float(w) * 0.5;
    var py : float = float(p / w) - float(h) * 0.5;
    var acc : float = 0.0;
    for (a = 0; a < na; a = a + 1) {
      var u : float = px * ca[a] + py * sa[a] + float(nu) * 0.5;
      var iu : int = int(u);
      acc = acc + proj[a * nu + iu];
    }
    img[p] = acc;
  }
}
|}

(* Same structure with the angle loop asserted vectorizable; the geometry
   (px/py) hoists, and the subscript's data dependence becomes a gather. *)
let opt_src =
  {|
kernel backproj_simd(proj : float[], ca : float[], sa : float[],
                     img : float[], w : int, h : int, na : int, nu : int) {
  var p : int;
  var a : int;
  pragma parallel
  for (p = 0; p < w * h; p = p + 1) {
    var px : float = float(p % w) - float(w) * 0.5;
    var py : float = float(p / w) - float(h) * 0.5;
    var acc : float = 0.0;
    pragma simd
    for (a = 0; a < na; a = a + 1) {
      var u : float = px * ca[a] + py * sa[a] + float(nu) * 0.5;
      var iu : int = int(u);
      acc = acc + proj[a * nu + iu];
    }
    img[p] = acc;
  }
}
|}

let reference ~proj ~ca ~sa ~w ~h ~na ~nu =
  let img = Array.make (w * h) 0. in
  for p = 0 to (w * h) - 1 do
    let px = float_of_int (p mod w) -. (float_of_int w *. 0.5) in
    let py = float_of_int (p / w) -. (float_of_int h *. 0.5) in
    let acc = ref 0. in
    for a = 0 to na - 1 do
      let u = (px *. ca.(a)) +. (py *. sa.(a)) +. (float_of_int nu *. 0.5) in
      let iu = int_of_float u in
      acc := !acc +. proj.((a * nu) + iu)
    done;
    img.(p) <- !acc
  done;
  img

let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"backproj [ninja]" in
  let proj = Builder.buffer_f b "proj" in
  let bca = Builder.buffer_f b "ca" in
  let bsa = Builder.buffer_f b "sa" in
  let img = Builder.buffer_f b "img" in
  let w_cell = Builder.param_cell_i b "w" in
  let h_cell = Builder.param_cell_i b "h" in
  let na_cell = Builder.param_cell_i b "na" in
  let nu_cell = Builder.param_cell_i b "nu" in
  Builder.par_phase b (fun () ->
      let w = Builder.load_param_i b w_cell in
      let h = Builder.load_param_i b h_cell in
      let na = Builder.load_param_i b na_cell in
      let nu = Builder.load_param_i b nu_cell in
      let vw = Isa.vector_width_reg in
      let npix = Builder.ibin b Imul w h in
      (* vectorize across PIXELS (unit-stride image stores), gathering from
         the sinogram; per-angle scalars broadcast in the angle loop *)
      let lo, hi = Builder.thread_range_aligned b ~n:npix in
      let one = Builder.iconst b 1 in
      let zero = Builder.iconst b 0 in
      let half = Builder.fconst b 0.5 in
      let wf = Builder.sf b in
      Builder.emit b (Fofi (wf, w));
      let hf = Builder.sf b in
      Builder.emit b (Fofi (hf, h));
      let nuf = Builder.sf b in
      Builder.emit b (Fofi (nuf, nu));
      let wc = Builder.fbin b Fmul wf half in
      let hc = Builder.fbin b Fmul hf half in
      let uc = Builder.fbin b Fmul nuf half in
      let vwc = Builder.vbroadcastf b wc in
      let vhc = Builder.vbroadcastf b hc in
      let vuc = Builder.vbroadcastf b uc in
      Builder.for_ b ~lo ~hi ~step:vw (fun i ->
          (* per-lane pixel coordinates *)
          let lanes = Builder.vi b in
          Builder.emit b (Viota lanes);
          let vbase = Builder.vbroadcasti b i in
          let vp = Builder.vibin b Iadd vbase lanes in
          let vwv = Builder.vbroadcasti b w in
          let vxi = Builder.vibin b Imod vp vwv in
          let vyi = Builder.vibin b Idiv vp vwv in
          let vpx0 = Builder.vf b in
          Builder.emit b (Vfofi (vpx0, vxi));
          let vpy0 = Builder.vf b in
          Builder.emit b (Vfofi (vpy0, vyi));
          let vpx = Builder.vfbin b Fsub vpx0 vwc in
          let vpy = Builder.vfbin b Fsub vpy0 vhc in
          let acc = Builder.vf b in
          Builder.emit b (Vbroadcastf (acc, Builder.fconst b 0.));
          Builder.for_ b ~lo:zero ~hi:na ~step:one (fun a ->
              let sload buf =
                let r = Builder.sf b in
                Builder.emit b (Loadf { dst = r; buf; idx = a; chain = false });
                Builder.vbroadcastf b r
              in
              let vca = sload bca and vsa = sload bsa in
              let u =
                let t = Builder.vmuladd b ~fma vpy vsa vuc in
                Builder.vmuladd b ~fma vpx vca t
              in
              let iu = Builder.vi b in
              Builder.emit b (Vioff (iu, u));
              let rowbase = Builder.ibin b Imul a nu in
              let vrow = Builder.vbroadcasti b rowbase in
              let idx = Builder.vibin b Iadd vrow iu in
              let s = Builder.vf b in
              Builder.emit b (Vgatherf { dst = s; buf = proj; idx; mask = None; chain = false });
              Builder.emit b (Vfbin (Fadd, acc, acc, s)));
          Builder.emit b (Vstoref { buf = img; idx = i; src = acc; mask = None })));
  Builder.finish b

type dims = { w : int; h : int; na : int; nu : int }

let dims ~scale =
  let w = 32 * scale and h = 16 * scale in
  (* detector wide enough that every u lands in range *)
  { w; h; na = 64; nu = 4 * (w + h) }

type dataset = { proj : float array; ca : float array; sa : float array; expected : float array }

let dataset { w; h; na; nu } =
  let proj = Ninja_workloads.Gen.floats ~seed:81 ~lo:0. ~hi:1. (na * nu) in
  let ca = Array.init na (fun a -> Float.cos (Float.pi *. float_of_int a /. float_of_int na)) in
  let sa = Array.init na (fun a -> Float.sin (Float.pi *. float_of_int a /. float_of_int na)) in
  { proj; ca; sa; expected = reference ~proj ~ca ~sa ~w ~h ~na ~nu }

let io dm d : Driver.io =
  {
    shapes =
      [ ("proj", Driver.F_array (dm.na * dm.nu));
        ("ca", Driver.F_array dm.na);
        ("sa", Driver.F_array dm.na);
        ("img", Driver.F_array (dm.w * dm.h)) ]
      @ List.map (fun name -> (name, Driver.I_scalar)) [ "w"; "h"; "na"; "nu" ];
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("proj", Driver.Farr d.proj);
          ("ca", Driver.Farr (Array.copy d.ca));
          ("sa", Driver.Farr (Array.copy d.sa));
          ("img", Driver.Farr (Array.make (dm.w * dm.h) 0.));
          ("w", Driver.Iscalar dm.w);
          ("h", Driver.Iscalar dm.h);
          ("na", Driver.Iscalar dm.na);
          ("nu", Driver.Iscalar dm.nu) ]);
    (* FMA contraction and packetized evaluation can flip the [int()]
       truncation of a knife-edge detector coordinate: allow a small
       fraction of pixels to differ. *)
    check =
      (fun mem ->
        let d = Driver.force d in
        Driver.check_floats_mostly ~rtol:1e-3 ~atol:1e-3 ~max_bad_frac:0.01
          ~expected:d.expected (Driver.output_f mem "img"));
  }

let benchmark : Driver.benchmark =
  {
    b_name = "BackProjection";
    b_desc = "sinogram backprojection (gather-dominated compute)";
    b_algo_note = "precomputed geometry + asserted SIMD; relies on gather hardware";
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
