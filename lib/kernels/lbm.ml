(* Lattice Boltzmann (D2Q9, BGK collision, pull streaming) — one time step
   over the interior of a 2D lattice.

   The naive code keeps the nine distributions per cell interleaved (AoS):
   every access in the vectorized cell loop then has stride 9, which the
   compiler must emulate with gather-priced sequences. The algorithmic
   change is AoS -> SoA (one array per direction), making every access unit
   stride; Ninja code additionally streams the output distributions with
   non-temporal stores. *)

open Ninja_vm
module Machine = Ninja_arch.Machine

(* D2Q9 directions and weights, index order: rest, E, W, N, S, NE, SW, SE, NW *)
let dirs = [| (0, 0); (1, 0); (-1, 0); (0, 1); (0, -1); (1, 1); (-1, -1); (1, -1); (-1, 1) |]

let weights =
  [| 4. /. 9.; 1. /. 9.; 1. /. 9.; 1. /. 9.; 1. /. 9.;
     1. /. 36.; 1. /. 36.; 1. /. 36.; 1. /. 36. |]

let q = Array.length dirs

(* Shared collision text: assumes f0..f8 (pulled distributions) are in
   scope, writes the post-collision values through [store k expr]. *)
let collision_src ~store =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "      var rho : float = f0 + f1 + f2 + f3 + f4 + f5 + f6 + f7 + f8;\n";
  Buffer.add_string buf
    "      var ux : float = (f1 - f2 + f5 - f6 + f7 - f8) / rho;\n";
  Buffer.add_string buf
    "      var uy : float = (f3 - f4 + f5 - f6 - f7 + f8) / rho;\n";
  Buffer.add_string buf "      var usq : float = 1.5 * (ux * ux + uy * uy);\n";
  Array.iteri
    (fun k (ex, ey) ->
      let cu =
        match (ex, ey) with
        | 0, 0 -> "0.0"
        | _ ->
            let term c v =
              if c = 0 then None
              else if c = 1 then Some v
              else Some ("(0.0 - " ^ v ^ ")")
            in
            let parts = List.filter_map Fun.id [ term ex "ux"; term ey "uy" ] in
            "3.0 * (" ^ String.concat " + " parts ^ ")"
      in
      Buffer.add_string buf (Fmt.str "      var cu%d : float = %s;\n" k cu);
      Buffer.add_string buf
        (Fmt.str
           "      var feq%d : float = %.9f * rho * (1.0 + cu%d + 0.5 * cu%d * cu%d - usq);\n"
           k weights.(k) k k k);
      Buffer.add_string buf (store k (Fmt.str "(f%d - omega * (f%d - feq%d))" k k k)))
    dirs;
  Buffer.contents buf

let naive_src =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    {|
kernel lbm_naive(f : float[], g : float[], w : int, h : int, omega : float) {
  var x : int;
  var y : int;
  pragma parallel
  for (y = 1; y < h - 1; y = y + 1) {
    for (x = 1; x < w - 1; x = x + 1) {
|};
  (* pull: incoming distribution k comes from the neighbor opposite to e_k *)
  Array.iteri
    (fun k (ex, ey) ->
      Buffer.add_string buf
        (Fmt.str "      var f%d : float = f[((y - %d) * w + (x - %d)) * 9 + %d];\n" k ey
           ex k))
    dirs;
  Buffer.add_string buf
    (collision_src ~store:(fun k e ->
         Fmt.str "      g[(y * w + x) * 9 + %d] = %s;\n" k e));
  Buffer.add_string buf "    }\n  }\n}\n";
  Buffer.contents buf

let opt_src =
  let buf = Buffer.create 4096 in
  let params =
    String.concat ", "
      (List.concat
         [ List.init q (fun k -> Fmt.str "f%da : float[]" k);
           List.init q (fun k -> Fmt.str "g%da : float[]" k) ])
  in
  Buffer.add_string buf
    (Fmt.str
       {|
kernel lbm_soa(%s, w : int, h : int, omega : float) {
  var x : int;
  var y : int;
  pragma parallel
  for (y = 1; y < h - 1; y = y + 1) {
    var row : int = y * w;
    pragma simd
    for (x = 1; x < w - 1; x = x + 1) {
|}
       params);
  Array.iteri
    (fun k (ex, ey) ->
      Buffer.add_string buf
        (Fmt.str "      var f%d : float = f%da[row - %d * w + x - %d];\n" k k ey ex))
    dirs;
  Buffer.add_string buf
    (collision_src ~store:(fun k e -> Fmt.str "      g%da[row + x] = %s;\n" k e));
  Buffer.add_string buf "    }\n  }\n}\n";
  Buffer.contents buf

let reference ~f ~w ~h ~omega =
  (* f is AoS: f.((y*w + x)*9 + k); returns the AoS post-step lattice *)
  let g = Array.copy f in
  for y = 1 to h - 2 do
    for x = 1 to w - 2 do
      let fk =
        Array.init q (fun k ->
            let ex, ey = dirs.(k) in
            f.((((y - ey) * w) + (x - ex)) * q + k))
      in
      let rho = Array.fold_left ( +. ) 0. fk in
      let ux = (fk.(1) -. fk.(2) +. fk.(5) -. fk.(6) +. fk.(7) -. fk.(8)) /. rho in
      let uy = (fk.(3) -. fk.(4) +. fk.(5) -. fk.(6) -. fk.(7) +. fk.(8)) /. rho in
      let usq = 1.5 *. ((ux *. ux) +. (uy *. uy)) in
      for k = 0 to q - 1 do
        let ex, ey = dirs.(k) in
        let cu = 3. *. ((float_of_int ex *. ux) +. (float_of_int ey *. uy)) in
        let feq = weights.(k) *. rho *. (1. +. cu +. (0.5 *. cu *. cu) -. usq) in
        g.((((y * w) + x) * q) + k) <- fk.(k) -. (omega *. (fk.(k) -. feq))
      done
    done
  done;
  g

let ninja ~machine =
  let fma = machine.Machine.fma_native in
  let b = Builder.create ~name:"lbm [ninja]" in
  let fbufs = Array.init q (fun k -> Builder.buffer_f b (Fmt.str "f%da" k)) in
  let gbufs = Array.init q (fun k -> Builder.buffer_f b (Fmt.str "g%da" k)) in
  let w_cell = Builder.param_cell_i b "w" in
  let h_cell = Builder.param_cell_i b "h" in
  let omega_cell = Builder.param_cell_f b "omega" in
  Builder.par_phase b (fun () ->
      let w = Builder.load_param_i b w_cell in
      let h = Builder.load_param_i b h_cell in
      let omega = Builder.vbroadcastf b (Builder.load_param_f b omega_cell) in
      let vw = Isa.vector_width_reg in
      let one = Builder.iconst b 1 in
      let const x = Builder.vbroadcastf b (Builder.fconst b x) in
      let one_f = const 1.0 and half = const 0.5 in
      let three = const 3.0 and c15 = const 1.5 in
      let vweights = Array.map (fun wk -> const wk) weights in
      let rows = Builder.ibin b Isub h (Builder.iconst b 2) in
      let ylo0, yhi0 = Builder.thread_range b ~n:rows in
      let ylo = Builder.ibin b Iadd ylo0 one in
      let yhi = Builder.ibin b Iadd yhi0 one in
      let w_m1 = Builder.ibin b Isub w one in
      Builder.for_ b ~lo:ylo ~hi:yhi ~step:one (fun y ->
          let row = Builder.ibin b Imul y w in
          Builder.for_ b ~lo:one ~hi:w_m1 ~step:vw (fun x ->
              let idx = Builder.ibin b Iadd row x in
              let fk =
                Array.init q (fun k ->
                    let ex, ey = dirs.(k) in
                    let off = -(ey * 1) in
                    (* neighbor index: (y - ey) * w + (x - ex) *)
                    let i =
                      let base =
                        if ey = 0 then idx
                        else begin
                          let d = Builder.ibin b Imul (Builder.iconst b off) w in
                          Builder.ibin b Iadd idx d
                        end
                      in
                      if ex = 0 then base
                      else Builder.ibin b Iadd base (Builder.iconst b (-ex))
                    in
                    let r = Builder.vf b in
                    Builder.emit b (Vloadf { dst = r; buf = fbufs.(k); idx = i; mask = None });
                    r)
              in
              let sum2 a c = Builder.vfbin b Fadd a c in
              let rho =
                Array.fold_left (fun acc r -> sum2 acc r) fk.(0) (Array.sub fk 1 (q - 1))
              in
              let sub a c = Builder.vfbin b Fsub a c in
              let ux_num = sub (sum2 (sum2 (sub fk.(1) fk.(2)) (sub fk.(5) fk.(6))) fk.(7)) fk.(8) in
              let uy_num = sum2 (sub (sub (sum2 (sub fk.(3) fk.(4)) fk.(5)) fk.(6)) fk.(7)) fk.(8) in
              let ux = Builder.vfbin b Fdiv ux_num rho in
              let uy = Builder.vfbin b Fdiv uy_num rho in
              let u2 =
                let xx = Builder.vfbin b Fmul ux ux in
                let t = Builder.vmuladd b ~fma uy uy xx in
                Builder.vfbin b Fmul c15 t
              in
              Array.iteri
                (fun k (ex, ey) ->
                  let cu =
                    match (ex, ey) with
                    | 0, 0 -> None
                    | _ ->
                        let eu =
                          match (ex, ey) with
                          | 1, 0 -> ux
                          | -1, 0 -> Builder.vfunop b Fneg ux
                          | 0, 1 -> uy
                          | 0, -1 -> Builder.vfunop b Fneg uy
                          | 1, 1 -> sum2 ux uy
                          | -1, -1 -> Builder.vfunop b Fneg (sum2 ux uy)
                          | 1, -1 -> sub ux uy
                          | -1, 1 -> sub uy ux
                          | _ -> assert false
                        in
                        Some (Builder.vfbin b Fmul three eu)
                  in
                  let inner =
                    match cu with
                    | None -> sub one_f u2
                    | Some cu ->
                        let t = sub (sum2 one_f cu) u2 in
                        let cu2h = Builder.vfbin b Fmul half (Builder.vfbin b Fmul cu cu) in
                        sum2 t cu2h
                  in
                  let feq = Builder.vfbin b Fmul (Builder.vfbin b Fmul vweights.(k) rho) inner in
                  let diff = sub fk.(k) feq in
                  let relaxed = sub fk.(k) (Builder.vfbin b Fmul omega diff) in
                  Builder.emit b (Vstoref_nt { buf = gbufs.(k); idx; src = relaxed }))
                dirs)));
  Builder.finish b

type dims = { w : int; h : int; omega : float }

let dims ~scale = { w = (32 * scale) + 2; h = 16 * scale; omega = 1.2 }

type dataset = { f_aos : float array; expected_aos : float array }

let dataset { w; h; omega } =
  let n = w * h in
  let f_aos = Array.make (n * q) 0. in
  let rng = Ninja_util.Rng.create 51 in
  for c = 0 to n - 1 do
    for k = 0 to q - 1 do
      (* near-equilibrium initial state *)
      f_aos.((c * q) + k) <- weights.(k) *. (1. +. Ninja_util.Rng.float_range rng (-0.05) 0.05)
    done
  done;
  { f_aos; expected_aos = reference ~f:f_aos ~w ~h ~omega }

let soa_of_aos aos ~cells k = Array.init cells (fun c -> aos.((c * q) + k))

let params dm =
  [ ("w", Driver.Iscalar dm.w); ("h", Driver.Iscalar dm.h); ("omega", Driver.Fscalar dm.omega) ]

let param_shapes = [ ("w", Driver.I_scalar); ("h", Driver.I_scalar); ("omega", Driver.F_scalar) ]

let io_naive dm d : Driver.io =
  let len = dm.w * dm.h * q in
  {
    shapes = [ ("f", Driver.F_array len); ("g", Driver.F_array len) ] @ param_shapes;
    bindings =
      (fun () ->
        let d = Driver.force d in
        [ ("f", Driver.Farr (Array.copy d.f_aos)); ("g", Driver.Farr (Array.copy d.f_aos)) ]
        @ params dm);
    check =
      (fun mem ->
        let d = Driver.force d in
        Driver.check_floats ~rtol:1e-3 ~atol:1e-5 ~expected:d.expected_aos
          (Driver.output_f mem "g"));
  }

let io_soa dm d : Driver.io =
  let cells = dm.w * dm.h in
  let names prefix = List.init q (fun k -> Fmt.str "%s%da" prefix k) in
  {
    shapes =
      List.map (fun name -> (name, Driver.F_array cells)) (names "f" @ names "g") @ param_shapes;
    bindings =
      (fun () ->
        let d = Driver.force d in
        let dists prefix =
          List.mapi (fun k name -> (name, Driver.Farr (soa_of_aos d.f_aos ~cells k))) (names prefix)
        in
        dists "f" @ dists "g" @ params dm);
    check =
      (fun mem ->
        let d = Driver.force d in
        let rec go k =
          if k >= q then Ok ()
          else
            let expected = soa_of_aos d.expected_aos ~cells k in
            match
              Driver.check_floats ~rtol:1e-3 ~atol:1e-5 ~expected
                (Driver.output_f mem (Fmt.str "g%da" k))
            with
            | Ok () -> go (k + 1)
            | Error e -> Error (Fmt.str "direction %d: %s" k e)
        in
        go 0);
  }

let benchmark : Driver.benchmark =
  {
    b_name = "LBM";
    b_desc = "lattice Boltzmann D2Q9 time step (streaming + collision)";
    b_algo_note = "AoS -> SoA distributions; ninja adds streaming stores";
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
