(* Functional interpreter for the vector ISA.

   The interpreter serves two purposes:
   - correctness: kernels (and the compiler that produced them) are checked
     against OCaml reference implementations on real data;
   - instrumentation: it produces the per-class instruction counts and the
     memory-address event stream that the timing model prices.

   [Par] phases are executed thread-after-thread; this equals parallel
   execution for race-free programs, and [~check_races:true] verifies that
   property (any location written by one thread and touched by another
   within the same phase is reported).

   Two execution strategies produce bit-identical registers, memory,
   counts, event streams and traps:

   - [Tree] walks the structured statement lists through small per-register
     accessor closures — the original, obviously-correct reference,
     deliberately left structurally untouched so it doubles as the
     performance baseline the self-benchmark measures against.
   - [Compiled config] (the simulation default, see [default_strategy])
     decodes the program into {!Decode}'s flat op arrays, runs the
     configured {!Optimize} passes over them, and compiles each phase
     through {!Compile} into chained pre-resolved closures — threaded code
     with basic-block superinstructions. [Compiled Optimize.none] executes
     the plain decoded arrays.

   Equivalence is property-tested instruction-by-instruction in
   test/test_fastpath.ml, test/test_optimize.ml (every pass config) and
   test/test_compile.ml, and pinned suite-wide by the experiments golden.
   The compiled path's access port is devirtualized: it is selected once
   per session on tracker/port presence, so the no-profiler case pays no
   per-access option matching and the timing model's port is called
   directly, with no event record built. *)

exception Trap = Memory.Trap

type result = { counts : Counts.t; instructions : int }

type strategy = Tree | Compiled of Optimize.config

(* The strategy every run resolves an absent ?strategy to — bare [run]
   and the simulation surfaces (Timing.simulate, and through it
   experiments, ladder, bench and serve) alike. A process-wide cell
   rather than a [run] default so one --backend flag can steer every
   simulation a command performs. *)
let default_strategy_ref = ref (Compiled Optimize.default)
let default_strategy () = !default_strategy_ref
let set_default_strategy s = default_strategy_ref := s

let strategy_tag = function
  | Tree -> "tree"
  | Compiled c -> "compiled:" ^ Optimize.tag c

let strategy_of_name name =
  match name with
  | "tree" -> Some Tree
  | "compiled" -> Some (Compiled Optimize.default)
  | _ -> None

type thread_state = {
  si : int array;
  sf : float array;
  vf : float array array;
  vi : int array array;
  vm : bool array array;
}

let make_state (regs : Isa.reg_counts) ~width =
  {
    si = Array.make (max regs.si 1) 0;
    sf = Array.make (max regs.sf 1) 0.;
    vf = Array.init (max regs.vf 1) (fun _ -> Array.make width 0.);
    vi = Array.init (max regs.vi 1) (fun _ -> Array.make width 0);
    vm = Array.init (max regs.vm 1) (fun _ -> Array.make width false);
  }

let eval_ibin op a b =
  match (op : Isa.ibin) with
  | Iadd -> a + b
  | Isub -> a - b
  | Imul -> a * b
  | Idiv -> if b = 0 then Memory.trap "integer division by zero" else a / b
  | Imod -> if b = 0 then Memory.trap "integer modulo by zero" else a mod b
  | Iand -> a land b
  | Ior -> a lor b
  | Ixor -> a lxor b
  | Ishl -> a lsl b
  | Ishr -> a asr b
  | Imin -> min a b
  | Imax -> max a b

let eval_fbin op a b =
  match (op : Isa.fbin) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> Float.min a b
  | Fmax -> Float.max a b

let eval_funop op a =
  match (op : Isa.funop) with
  | Fneg -> -.a
  | Fabs -> Float.abs a
  | Fsqrt -> Float.sqrt a
  | Frsqrt -> 1. /. Float.sqrt a
  | Fexp -> Float.exp a
  | Flog -> Float.log a
  | Ffloor -> Float.floor a

let eval_icmp op a b =
  match (op : Isa.cmp) with
  | Ceq -> a = b
  | Cne -> a <> b
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

let eval_fcmp op a b =
  match (op : Isa.cmp) with
  | Ceq -> Float.equal a b
  | Cne -> not (Float.equal a b)
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

type race_tracker = {
  writes : (int, int) Hashtbl.t; (* addr -> writing thread *)
  reads : (int, int) Hashtbl.t; (* addr -> a reading thread (-1: several) *)
  mutable races : string list;
}

let race_tracker () = { writes = Hashtbl.create 4096; reads = Hashtbl.create 4096; races = [] }

let note_race rt fmt = Fmt.kstr (fun s -> if List.length rt.races < 16 then rt.races <- s :: rt.races) fmt

let track_access rt ~thread ~addr ~(kind : Event.kind) =
  match kind with
  | Write -> (
      (match Hashtbl.find_opt rt.reads addr with
      | Some t when t <> thread -> note_race rt "write by t%d races read by t%d at 0x%x" thread t addr
      | _ -> ());
      match Hashtbl.find_opt rt.writes addr with
      | Some t when t <> thread -> note_race rt "write by t%d races write by t%d at 0x%x" thread t addr
      | Some _ -> ()
      | None -> Hashtbl.replace rt.writes addr thread)
  | Read -> (
      (match Hashtbl.find_opt rt.writes addr with
      | Some t when t <> thread -> note_race rt "read by t%d races write by t%d at 0x%x" thread t addr
      | _ -> ());
      match Hashtbl.find_opt rt.reads addr with
      | Some t when t <> thread -> Hashtbl.replace rt.reads addr (-1)
      | Some _ -> ()
      | None -> Hashtbl.replace rt.reads addr thread)

exception Race of string list

(* The work one thread performs in one phase: the structured block (tree
   walk) or a phase pre-compiled by {!Compile.compile} — one compilation,
   shared by every thread that executes the phase. *)
type work = Wtree of Isa.block | Wcomp of (Compile.tctx -> unit)

let session ?(n_threads = 1) ?(width = 4) ?sink ?port ?trace ?fuel
    ?(check_races = false) ?strategy ?decoded ?on_states
    (prog : Isa.program) (mem : Memory.t) =
  Isa.validate prog;
  if n_threads < 1 then invalid_arg "Interp.run: n_threads < 1";
  if width < 1 then invalid_arg "Interp.run: width < 1";
  (* One event channel per backend: the compiled executor hands accesses
     to a port, the tree walker to a sink; whichever one the caller
     supplied is adapted to the other. *)
  let port, sink =
    match (port, sink) with
    | Some _, Some _ -> invalid_arg "Interp.run: both ?sink and ?port"
    | None, None -> (None, None)
    | Some p, None ->
        ( Some p,
          Some
            (fun (e : Event.t) ->
              p ~thread:e.thread ~addr:e.addr ~bytes:e.bytes
                ~write:(match e.kind with Event.Write -> true | Event.Read -> false)
                ~chain:e.chain ~nt:e.nt) )
    | None, Some f ->
        ( Some
            (fun ~thread ~addr ~bytes ~write ~chain ~nt ->
              f
                { Event.thread; addr; bytes;
                  kind = (if write then Event.Write else Event.Read); chain; nt }),
          Some f )
  in
  let strategy = match strategy with Some s -> s | None -> default_strategy () in
  let counts = Counts.create n_threads in
  let instructions = ref 0 in
  (* The fuel cell is shared by every launch of the session and never
     re-armed: a multi-launch step spends one budget. *)
  let remaining_fuel = match fuel with Some f -> f | None -> ref max_int in
  let states = Array.init n_threads (fun _ -> make_state prog.regs ~width) in
  let scratch = Array.make width 0. in
  let all_true = Array.make width true in
  let tracker = if check_races then Some (race_tracker ()) else None in
  (* The flat form to compile, if any: a pre-supplied one (possibly
     hand-transformed or deliberately broken — the substrate of the
     optimizer's and compiler's mutation tests) always runs compiled, as
     is; otherwise [Compiled config] decodes and optimizes [prog]. *)
  let flat =
    match (decoded, strategy) with
    | Some d, _ -> Some d
    | None, Tree -> None
    | None, Compiled config -> Some (Optimize.run ~config (Decode.decode prog))
  in
  (* Compile each flat phase once, up front — the closures take the
     per-thread state as an argument ({!Compile.tctx}), so a parallel
     phase's n_threads executions share one compilation. The per-loop
     slots are safe as plain arrays: threads run one after another and a
     loop cannot be re-entered before it exits. *)
  let phase_work =
    match flat with
    | None ->
        List.map
          (function
            | Isa.Par b -> (true, Wtree b)
            | Isa.Seq b -> (false, Wtree b))
          prog.phases
    | Some (d : Decode.t) ->
        let slots () = Array.make (max d.n_fors 1) 0 in
        let cctx =
          {
            Compile.mem;
            width;
            scratch;
            all_true;
            instructions;
            fuel = remaining_fuel;
            prog_name = prog.prog_name;
            for_cur = slots ();
            for_hi = slots ();
            for_step = slots ();
            trace;
          }
        in
        Array.to_list
          (Array.map
             (fun (ph : Decode.phase) -> (ph.parallel, Wcomp (Compile.compile cctx ph.code)))
             d.phases)
  in

  (* ---- tree walker: the reference implementation, kept structurally
     identical to the original interpreter (per-register accessor closures,
     classify-on-execute) so it stays the honest performance baseline. ---- *)
  let run_tree ~thread st block =
    let count cls n =
      Counts.add counts ~thread cls n;
      instructions := !instructions + n;
      remaining_fuel := !remaining_fuel - n;
      if !remaining_fuel < 0 then Memory.trap "fuel exhausted in %s" prog.prog_name;
      match trace with
      | Some f -> for _ = 1 to n do f (Trace.Op { thread; cls }) done
      | None -> ()
    in
    let emit ?(nt = false) ~buf ~idx ~bytes ~kind ~chain () =
      (match tracker with
      | Some rt ->
          let base = Memory.address mem buf idx in
          let n = bytes / 4 in
          for k = 0 to n - 1 do
            track_access rt ~thread ~addr:(base + (k * 4)) ~kind
          done
      | None -> ());
      match sink with
      | Some f ->
          f { Event.thread; addr = Memory.address mem buf idx; bytes; kind; chain; nt }
      | None -> ()
    in
    let geti (Isa.Si r) = st.si.(r) in
    let seti (Isa.Si r) v = st.si.(r) <- v in
    let getf (Isa.Sf r) = st.sf.(r) in
    let setf (Isa.Sf r) v = st.sf.(r) <- v in
    let getvf (Isa.Vf r) = st.vf.(r) in
    let getvi (Isa.Vi r) = st.vi.(r) in
    let getvm (Isa.Vm r) = st.vm.(r) in
    let lane_active mask l =
      match mask with None -> true | Some m -> (getvm m).(l)
    in
    (* SIMD utilization of a masked vector memory access; only computed when
       a profiler is listening. *)
    let emit_lanes mask =
      match trace with
      | None -> ()
      | Some f ->
          let active =
            match mask with
            | None -> width
            | Some m ->
                Array.fold_left (fun a b -> if b then a + 1 else a) 0 (getvm m)
          in
          f (Trace.Lanes { thread; active; width })
    in
    let exec_instr instr =
      count (Isa.classify instr) 1;
      match (instr : Isa.instr) with
      | Iconst (d, n) -> seti d n
      | Fconst (d, x) -> setf d x
      | Imov (d, a) -> seti d (geti a)
      | Fmov (d, a) -> setf d (getf a)
      | Ibin (op, d, a, b) -> seti d (eval_ibin op (geti a) (geti b))
      | Fbin (op, d, a, b) -> setf d (eval_fbin op (getf a) (getf b))
      | Fma (d, a, b, c) -> setf d ((getf a *. getf b) +. getf c)
      | Funop (op, d, a) -> setf d (eval_funop op (getf a))
      | Icmp (op, d, a, b) -> seti d (if eval_icmp op (geti a) (geti b) then 1 else 0)
      | Fcmp (op, d, a, b) -> seti d (if eval_fcmp op (getf a) (getf b) then 1 else 0)
      | Iselect (d, c, a, b) -> seti d (if geti c <> 0 then geti a else geti b)
      | Fselect (d, c, a, b) -> setf d (if geti c <> 0 then getf a else getf b)
      | Fofi (d, a) -> setf d (float_of_int (geti a))
      | Ioff (d, a) -> seti d (int_of_float (getf a))
      | Loadf { dst; buf; idx; chain } ->
          let i = geti idx in
          setf dst (Memory.get_f mem buf i);
          emit ~buf ~idx:i ~bytes:4 ~kind:Read ~chain ()
      | Loadi { dst; buf; idx; chain } ->
          let i = geti idx in
          seti dst (Memory.get_i mem buf i);
          emit ~buf ~idx:i ~bytes:4 ~kind:Read ~chain ()
      | Storef { buf; idx; src } ->
          let i = geti idx in
          Memory.set_f mem buf i (getf src);
          emit ~buf ~idx:i ~bytes:4 ~kind:Write ~chain:false ()
      | Storei { buf; idx; src } ->
          let i = geti idx in
          Memory.set_i mem buf i (geti src);
          emit ~buf ~idx:i ~bytes:4 ~kind:Write ~chain:false ()
      | Vmovf (d, a) -> Array.blit (getvf a) 0 (getvf d) 0 width
      | Vmovi (d, a) -> Array.blit (getvi a) 0 (getvi d) 0 width
      | Vbroadcastf (d, a) -> Array.fill (getvf d) 0 width (getf a)
      | Vbroadcasti (d, a) -> Array.fill (getvi d) 0 width (geti a)
      | Viota d ->
          let v = getvi d in
          for l = 0 to width - 1 do v.(l) <- l done
      | Vfbin (op, d, a, b) ->
          let d = getvf d and a = getvf a and b = getvf b in
          for l = 0 to width - 1 do d.(l) <- eval_fbin op a.(l) b.(l) done
      | Vfma (d, a, b, c) ->
          let d = getvf d and a = getvf a and b = getvf b and c = getvf c in
          for l = 0 to width - 1 do d.(l) <- (a.(l) *. b.(l)) +. c.(l) done
      | Vfunop (op, d, a) ->
          let d = getvf d and a = getvf a in
          for l = 0 to width - 1 do d.(l) <- eval_funop op a.(l) done
      | Vibin (op, d, a, b) ->
          let d = getvi d and a = getvi a and b = getvi b in
          for l = 0 to width - 1 do d.(l) <- eval_ibin op a.(l) b.(l) done
      | Vfcmp (op, d, a, b) ->
          let d = getvm d and a = getvf a and b = getvf b in
          for l = 0 to width - 1 do d.(l) <- eval_fcmp op a.(l) b.(l) done
      | Vicmp (op, d, a, b) ->
          let d = getvm d and a = getvi a and b = getvi b in
          for l = 0 to width - 1 do d.(l) <- eval_icmp op a.(l) b.(l) done
      | Vselectf (d, m, a, b) ->
          let d = getvf d and m = getvm m and a = getvf a and b = getvf b in
          for l = 0 to width - 1 do d.(l) <- (if m.(l) then a.(l) else b.(l)) done
      | Vselecti (d, m, a, b) ->
          let d = getvi d and m = getvm m and a = getvi a and b = getvi b in
          for l = 0 to width - 1 do d.(l) <- (if m.(l) then a.(l) else b.(l)) done
      | Vfofi (d, a) ->
          let d = getvf d and a = getvi a in
          for l = 0 to width - 1 do d.(l) <- float_of_int a.(l) done
      | Vioff (d, a) ->
          let d = getvi d and a = getvf a in
          for l = 0 to width - 1 do d.(l) <- int_of_float a.(l) done
      | Vpermutef (d, a, pat) ->
          let d = getvf d and a = getvf a in
          let n = Array.length pat in
          for l = 0 to width - 1 do
            let s = pat.(l mod n) in
            if s < 0 || s >= width then Memory.trap "vperm lane %d out of range" s;
            scratch.(l) <- a.(s)
          done;
          Array.blit scratch 0 d 0 width
      | Vextractf (d, a, lane) ->
          let l = geti lane in
          if l < 0 || l >= width then Memory.trap "vextract lane %d out of range" l;
          setf d (getvf a).(l)
      | Vinsertf (d, lane, a) ->
          let l = geti lane in
          if l < 0 || l >= width then Memory.trap "vinsert lane %d out of range" l;
          (getvf d).(l) <- getf a
      | Vreducef (r, d, a) ->
          let a = getvf a in
          let acc = ref a.(0) in
          for l = 1 to width - 1 do
            acc :=
              (match r with
              | Rsum -> !acc +. a.(l)
              | Rmin -> Float.min !acc a.(l)
              | Rmax -> Float.max !acc a.(l))
          done;
          setf d !acc
      | Vreducei (r, d, a) ->
          let a = getvi a in
          let acc = ref a.(0) in
          for l = 1 to width - 1 do
            acc :=
              (match r with
              | Rsum -> !acc + a.(l)
              | Rmin -> min !acc a.(l)
              | Rmax -> max !acc a.(l))
          done;
          seti d !acc
      | Mconst (d, v) -> Array.fill (getvm d) 0 width v
      | Mpattern (d, pat) ->
          let d = getvm d in
          let n = Array.length pat in
          for l = 0 to width - 1 do d.(l) <- pat.(l mod n) done
      | Mfirst (d, n) ->
          let d = getvm d and n = geti n in
          for l = 0 to width - 1 do d.(l) <- l < n done
      | Mnot (d, a) ->
          let d = getvm d and a = getvm a in
          for l = 0 to width - 1 do d.(l) <- not a.(l) done
      | Mand (d, a, b) ->
          let d = getvm d and a = getvm a and b = getvm b in
          for l = 0 to width - 1 do d.(l) <- a.(l) && b.(l) done
      | Mor (d, a, b) ->
          let d = getvm d and a = getvm a and b = getvm b in
          for l = 0 to width - 1 do d.(l) <- a.(l) || b.(l) done
      | Many (d, a) -> seti d (if Array.exists Fun.id (getvm a) then 1 else 0)
      | Mall (d, a) -> seti d (if Array.for_all Fun.id (getvm a) then 1 else 0)
      | Mcount (d, a) ->
          seti d (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 (getvm a))
      | Vloadf { dst; buf; idx; mask } ->
          emit_lanes mask;
          let base = geti idx in
          let d = getvf dst in
          let any = ref false in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              d.(l) <- Memory.get_f mem buf (base + l);
              any := true
            end
          done;
          if !any then emit ~buf ~idx:base ~bytes:(width * 4) ~kind:Read ~chain:false ()
      | Vloadi { dst; buf; idx; mask } ->
          emit_lanes mask;
          let base = geti idx in
          let d = getvi dst in
          let any = ref false in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              d.(l) <- Memory.get_i mem buf (base + l);
              any := true
            end
          done;
          if !any then emit ~buf ~idx:base ~bytes:(width * 4) ~kind:Read ~chain:false ()
      | Vloadf_strided { dst; buf; idx; stride } ->
          let base = geti idx and s = geti stride in
          let d = getvf dst in
          for l = 0 to width - 1 do
            let i = base + (l * s) in
            d.(l) <- Memory.get_f mem buf i;
            emit ~buf ~idx:i ~bytes:4 ~kind:Read ~chain:false ()
          done
      | Vgatherf { dst; buf; idx; mask; chain } ->
          emit_lanes mask;
          let d = getvf dst and ix = getvi idx in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              d.(l) <- Memory.get_f mem buf ix.(l);
              emit ~buf ~idx:ix.(l) ~bytes:4 ~kind:Read ~chain ()
            end
          done
      | Vgatheri { dst; buf; idx; mask; chain } ->
          emit_lanes mask;
          let d = getvi dst and ix = getvi idx in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              d.(l) <- Memory.get_i mem buf ix.(l);
              emit ~buf ~idx:ix.(l) ~bytes:4 ~kind:Read ~chain ()
            end
          done
      | Vstoref { buf; idx; src; mask } ->
          emit_lanes mask;
          let base = geti idx in
          let s = getvf src in
          let any = ref false in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              Memory.set_f mem buf (base + l) s.(l);
              any := true
            end
          done;
          if !any then emit ~buf ~idx:base ~bytes:(width * 4) ~kind:Write ~chain:false ()
      | Vstorei { buf; idx; src; mask } ->
          emit_lanes mask;
          let base = geti idx in
          let s = getvi src in
          let any = ref false in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              Memory.set_i mem buf (base + l) s.(l);
              any := true
            end
          done;
          if !any then emit ~buf ~idx:base ~bytes:(width * 4) ~kind:Write ~chain:false ()
      | Vstoref_nt { buf; idx; src } ->
          let base = geti idx in
          let s = getvf src in
          for l = 0 to width - 1 do
            Memory.set_f mem buf (base + l) s.(l)
          done;
          emit ~nt:true ~buf ~idx:base ~bytes:(width * 4) ~kind:Write ~chain:false ()
      | Vstoref_strided { buf; idx; stride; src } ->
          let base = geti idx and st' = geti stride in
          let s = getvf src in
          for l = 0 to width - 1 do
            let i = base + (l * st') in
            Memory.set_f mem buf i s.(l);
            emit ~buf ~idx:i ~bytes:4 ~kind:Write ~chain:false ()
          done
      | Vscatterf { buf; idx; src; mask } ->
          emit_lanes mask;
          let ix = getvi idx and s = getvf src in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              Memory.set_f mem buf ix.(l) s.(l);
              emit ~buf ~idx:ix.(l) ~bytes:4 ~kind:Write ~chain:false ()
            end
          done
      | Vscatteri { buf; idx; src; mask } ->
          emit_lanes mask;
          let ix = getvi idx and s = getvi src in
          for l = 0 to width - 1 do
            if lane_active mask l then begin
              Memory.set_i mem buf ix.(l) s.(l);
              emit ~buf ~idx:ix.(l) ~bytes:4 ~kind:Write ~chain:false ()
            end
          done
    in
    let rec exec_block b = List.iter exec_stmt b
    and exec_stmt = function
      | Isa.I i -> exec_instr i
      | Isa.For { idx; lo; hi; step; body } ->
          let lo = geti lo and hi = geti hi and step = geti step in
          if step <= 0 then Memory.trap "for loop with non-positive step %d" step;
          let i = ref lo in
          while !i < hi do
            seti idx !i;
            (* loop bookkeeping: induction update + compare, and the branch *)
            count Salu 1;
            count Branch 1;
            exec_block body;
            i := !i + step
          done
      | Isa.While { cond_block; cond; body } ->
          let continue = ref true in
          while !continue do
            exec_block cond_block;
            count Branch 1;
            if geti cond <> 0 then exec_block body else continue := false
          done
      | Isa.If { cond; then_; else_ } ->
          count Branch 1;
          if geti cond <> 0 then exec_block then_ else exec_block else_
      | Isa.Region { label; body } ->
          (match trace with
          | Some f -> f (Trace.Enter { thread; scope = Loop label })
          | None -> ());
          exec_block body;
          (match trace with
          | Some f -> f (Trace.Exit { thread; scope = Loop label })
          | None -> ())
    in
    exec_block block
  in

  (* ---- compiled executor: run one thread through a phase closure
     pre-compiled by {!Compile} (see the phase_work mapping above). The
     memory-access port is devirtualized: selected once per session on
     port/tracker presence, so the common no-instrumentation case is a
     constant no-op closure and the timing model's port is called
     directly, with no event record in between. ---- *)
  let compiled_port : Event.port =
    match (tracker, port) with
    | None, None -> fun ~thread:_ ~addr:_ ~bytes:_ ~write:_ ~chain:_ ~nt:_ -> ()
    | None, Some p -> p
    | Some rt, _ ->
        fun ~thread ~addr ~bytes ~write ~chain ~nt ->
          let kind = if write then Event.Write else Event.Read in
          for k = 0 to (bytes / 4) - 1 do
            track_access rt ~thread ~addr:(addr + (k * 4)) ~kind
          done;
          match port with
          | Some p -> p ~thread ~addr ~bytes ~write ~chain ~nt
          | None -> ()
  in
  let run_compiled ~thread st (k : Compile.tctx -> unit) =
    k
      {
        Compile.si = st.si;
        sf = st.sf;
        vf = st.vf;
        vi = st.vi;
        vm = st.vm;
        row = Counts.thread_row counts ~thread;
        thread;
        port = compiled_port;
      }
  in

  let run_block ~thread st = function
    | Wtree b -> run_tree ~thread st b
    | Wcomp k -> run_compiled ~thread st k
  in

  let init_thread tid =
    let st = states.(tid) in
    let (Isa.Si t) = Isa.thread_id_reg in
    let (Isa.Si n) = Isa.num_threads_reg in
    let (Isa.Si w) = Isa.vector_width_reg in
    st.si.(t) <- tid;
    st.si.(n) <- n_threads;
    st.si.(w) <- width
  in
  (* The launch thunk: everything above (decode, optimize, compile,
     executor selection) ran once; each call below is one kernel launch
     against the same memory. Per-launch architectural state — counts,
     the register files — is reset so launch N is indistinguishable from
     a fresh [run] call; only the fuel cell spans launches. *)
  fun () ->
    Counts.clear counts;
    instructions := 0;
    Array.iter
      (fun st ->
        Array.fill st.si 0 (Array.length st.si) 0;
        Array.fill st.sf 0 (Array.length st.sf) 0.;
        Array.iter (fun a -> Array.fill a 0 width 0.) st.vf;
        Array.iter (fun a -> Array.fill a 0 width 0) st.vi;
        Array.iter (fun a -> Array.fill a 0 width false) st.vm)
      states;
    List.iteri
      (fun phase_idx (parallel, work) ->
        (match tracker with
        | Some rt ->
            Hashtbl.reset rt.writes;
            Hashtbl.reset rt.reads
        | None -> ());
        let run_thread ~parallel tid work =
          init_thread tid;
          let scope = Trace.Phase { index = phase_idx; parallel } in
          (match trace with
          | Some f -> f (Trace.Enter { thread = tid; scope })
          | None -> ());
          run_block ~thread:tid states.(tid) work;
          match trace with
          | Some f -> f (Trace.Exit { thread = tid; scope })
          | None -> ()
        in
        if parallel then
          for tid = 0 to n_threads - 1 do
            run_thread ~parallel:true tid work
          done
        else run_thread ~parallel:false 0 work;
        match tracker with
        | Some rt when rt.races <> [] -> raise (Race (List.rev rt.races))
        | _ -> ())
      phase_work;
    (match on_states with Some f -> f states | None -> ());
    { counts = Counts.copy counts; instructions = !instructions }

let run ?n_threads ?width ?sink ?port ?trace ?fuel ?check_races ?strategy
    ?decoded ?on_states prog mem =
  let fuel = Option.map ref fuel in
  (session ?n_threads ?width ?sink ?port ?trace ?fuel ?check_races ?strategy
     ?decoded ?on_states prog mem)
    ()
