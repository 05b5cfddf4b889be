(* Static linter for virtual-ISA programs. See verify.mli for scope.

   The core is an abstract interpretation over the structured program:
   - per-register definedness, with three levels: undefined, defined on
     thread 0 only (written in a [Seq] phase), defined on every thread
     (written in a [Par] phase). Register files persist across phases in
     the interpreter, so the levels persist here too.
   - an interval domain for scalar-int and vector-int registers, used to
     prove accesses out of bounds. Intervals are over-approximations, so
     only accesses whose *entire* index range falls outside the buffer
     are reported; "might be out of bounds" is deliberately silent
     (remainder handling and strip-mined strided loops would drown the
     report otherwise). *)

type issue = { where : string; what : string }

let pp_issue ppf i = Fmt.pf ppf "%s: %s" i.where i.what

(* ------------------------------------------------------------------ *)
(* Interval domain                                                     *)

type itv = Top | R of int * int

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | R (a1, a2), R (b1, b2) -> R (min a1 b1, max a2 b2)

let itv_const n = R (n, n)

let itv_ibin (op : Isa.ibin) a b =
  match (op, a, b) with
  | Isa.Iadd, R (a1, a2), R (b1, b2) -> R (a1 + b1, a2 + b2)
  | Isa.Isub, R (a1, a2), R (b1, b2) -> R (a1 - b2, a2 - b1)
  | Isa.Imul, R (a1, a2), R (b1, b2) ->
      let p = [ a1 * b1; a1 * b2; a2 * b1; a2 * b2 ] in
      R (List.fold_left min max_int p, List.fold_left max min_int p)
  | Isa.Idiv, R (a1, a2), R (b1, b2) when a1 >= 0 && b1 >= 1 ->
      (* non-negative dividend, positive divisor: truncation = floor *)
      R (a1 / b2, a2 / b1)
  | Isa.Imod, R (a1, _), R (b1, b2) when a1 >= 0 && b1 >= 1 -> R (0, b2 - 1)
  | Isa.Imin, R (a1, a2), R (b1, b2) -> R (min a1 b1, min a2 b2)
  | Isa.Imax, R (a1, a2), R (b1, b2) -> R (max a1 b1, max a2 b2)
  | _ -> Top

(* ------------------------------------------------------------------ *)
(* Operand extraction (reads, writes) per register file                *)

type operand =
  | Osi of Isa.si_reg
  | Osf of Isa.sf_reg
  | Ovf of Isa.vf_reg
  | Ovi of Isa.vi_reg
  | Ovm of Isa.vm_reg

let om = function None -> [] | Some m -> [ Ovm m ]

(* (reads, writes) of an instruction. [Vinsertf] lists its destination as
   a read as well (untouched lanes are preserved); the leniency filter in
   [exec_instr] drops that read, treating the insert as a definition. *)
let operands (i : Isa.instr) : operand list * operand list =
  match i with
  | Iconst (d, _) -> ([], [ Osi d ])
  | Fconst (d, _) -> ([], [ Osf d ])
  | Imov (d, a) -> ([ Osi a ], [ Osi d ])
  | Fmov (d, a) -> ([ Osf a ], [ Osf d ])
  | Ibin (_, d, a, b) -> ([ Osi a; Osi b ], [ Osi d ])
  | Fbin (_, d, a, b) -> ([ Osf a; Osf b ], [ Osf d ])
  | Fma (d, a, b, c) -> ([ Osf a; Osf b; Osf c ], [ Osf d ])
  | Funop (_, d, a) -> ([ Osf a ], [ Osf d ])
  | Icmp (_, d, a, b) -> ([ Osi a; Osi b ], [ Osi d ])
  | Fcmp (_, d, a, b) -> ([ Osf a; Osf b ], [ Osi d ])
  | Iselect (d, c, a, b) -> ([ Osi c; Osi a; Osi b ], [ Osi d ])
  | Fselect (d, c, a, b) -> ([ Osi c; Osf a; Osf b ], [ Osf d ])
  | Fofi (d, a) -> ([ Osi a ], [ Osf d ])
  | Ioff (d, a) -> ([ Osf a ], [ Osi d ])
  | Loadf { dst; idx; _ } -> ([ Osi idx ], [ Osf dst ])
  | Loadi { dst; idx; _ } -> ([ Osi idx ], [ Osi dst ])
  | Storef { idx; src; _ } -> ([ Osi idx; Osf src ], [])
  | Storei { idx; src; _ } -> ([ Osi idx; Osi src ], [])
  | Vmovf (d, a) -> ([ Ovf a ], [ Ovf d ])
  | Vmovi (d, a) -> ([ Ovi a ], [ Ovi d ])
  | Vbroadcastf (d, a) -> ([ Osf a ], [ Ovf d ])
  | Vbroadcasti (d, a) -> ([ Osi a ], [ Ovi d ])
  | Viota d -> ([], [ Ovi d ])
  | Vfbin (_, d, a, b) -> ([ Ovf a; Ovf b ], [ Ovf d ])
  | Vfma (d, a, b, c) -> ([ Ovf a; Ovf b; Ovf c ], [ Ovf d ])
  | Vfunop (_, d, a) -> ([ Ovf a ], [ Ovf d ])
  | Vibin (_, d, a, b) -> ([ Ovi a; Ovi b ], [ Ovi d ])
  | Vfcmp (_, d, a, b) -> ([ Ovf a; Ovf b ], [ Ovm d ])
  | Vicmp (_, d, a, b) -> ([ Ovi a; Ovi b ], [ Ovm d ])
  | Vselectf (d, m, a, b) -> ([ Ovm m; Ovf a; Ovf b ], [ Ovf d ])
  | Vselecti (d, m, a, b) -> ([ Ovm m; Ovi a; Ovi b ], [ Ovi d ])
  | Vfofi (d, a) -> ([ Ovi a ], [ Ovf d ])
  | Vioff (d, a) -> ([ Ovf a ], [ Ovi d ])
  | Vpermutef (d, a, _) -> ([ Ovf a ], [ Ovf d ])
  | Vextractf (d, a, l) -> ([ Ovf a; Osi l ], [ Osf d ])
  | Vinsertf (d, l, a) -> ([ Ovf d; Osi l; Osf a ], [ Ovf d ])
  | Vreducef (_, d, a) -> ([ Ovf a ], [ Osf d ])
  | Vreducei (_, d, a) -> ([ Ovi a ], [ Osi d ])
  | Mconst (d, _) -> ([], [ Ovm d ])
  | Mpattern (d, _) -> ([], [ Ovm d ])
  | Mfirst (d, n) -> ([ Osi n ], [ Ovm d ])
  | Mnot (d, a) -> ([ Ovm a ], [ Ovm d ])
  | Mand (d, a, b) | Mor (d, a, b) -> ([ Ovm a; Ovm b ], [ Ovm d ])
  | Many (d, a) | Mall (d, a) | Mcount (d, a) -> ([ Ovm a ], [ Osi d ])
  | Vloadf { dst; idx; mask; _ } -> (Osi idx :: om mask, [ Ovf dst ])
  | Vloadi { dst; idx; mask; _ } -> (Osi idx :: om mask, [ Ovi dst ])
  | Vloadf_strided { dst; idx; stride; _ } -> ([ Osi idx; Osi stride ], [ Ovf dst ])
  | Vgatherf { dst; idx; mask; _ } -> (Ovi idx :: om mask, [ Ovf dst ])
  | Vgatheri { dst; idx; mask; _ } -> (Ovi idx :: om mask, [ Ovi dst ])
  | Vstoref { idx; src; mask; _ } -> (Osi idx :: Ovf src :: om mask, [])
  | Vstoref_nt { idx; src; _ } -> ([ Osi idx; Ovf src ], [])
  | Vstorei { idx; src; mask; _ } -> (Osi idx :: Ovi src :: om mask, [])
  | Vstoref_strided { idx; stride; src; _ } ->
      ([ Osi idx; Osi stride; Ovf src ], [])
  | Vscatterf { idx; src; mask; _ } -> (Ovi idx :: Ovf src :: om mask, [])
  | Vscatteri { idx; src; mask; _ } -> (Ovi idx :: Ovi src :: om mask, [])

(* ------------------------------------------------------------------ *)
(* Abstract state                                                      *)

(* Definedness levels. *)
let undef = 0
let solo = 1 (* defined on thread 0 only (written in a Seq phase) *)
let everywhere = 2

type st = {
  si_def : int array;
  si_itv : itv array;
  sf_def : int array;
  vf_def : int array;
  vi_def : int array;
  vi_itv : itv array;
  vm_def : int array;
}

let make_st (r : Isa.reg_counts) =
  {
    si_def = Array.make (max r.si Isa.reserved_si_regs) undef;
    si_itv = Array.make (max r.si Isa.reserved_si_regs) Top;
    sf_def = Array.make (max r.sf 1) undef;
    vf_def = Array.make (max r.vf 1) undef;
    vi_def = Array.make (max r.vi 1) undef;
    vi_itv = Array.make (max r.vi 1) Top;
    vm_def = Array.make (max r.vm 1) undef;
  }

let copy_st st =
  {
    si_def = Array.copy st.si_def;
    si_itv = Array.copy st.si_itv;
    sf_def = Array.copy st.sf_def;
    vf_def = Array.copy st.vf_def;
    vi_def = Array.copy st.vi_def;
    vi_itv = Array.copy st.vi_itv;
    vm_def = Array.copy st.vm_def;
  }

(* After an [If], a register counts as defined only if both branches
   (or the pre-state) define it; intervals join. *)
let merge_into dst a b =
  let m_def d x y = Array.iteri (fun i _ -> d.(i) <- min x.(i) y.(i)) d in
  let m_itv d x y = Array.iteri (fun i _ -> d.(i) <- join x.(i) y.(i)) d in
  m_def dst.si_def a.si_def b.si_def;
  m_itv dst.si_itv a.si_itv b.si_itv;
  m_def dst.sf_def a.sf_def b.sf_def;
  m_def dst.vf_def a.vf_def b.vf_def;
  m_def dst.vi_def a.vi_def b.vi_def;
  m_itv dst.vi_itv a.vi_itv b.vi_itv;
  m_def dst.vm_def a.vm_def b.vm_def

(* ------------------------------------------------------------------ *)
(* Main pass                                                           *)

type mode = Mpar | Mseq

(* Where an issue was found; formatted, behind its phase context, only
   when the issue is reported. *)
type loc =
  | Whole of string  (* the whole program: "structure", "buffers" *)
  | Instr of Isa.instr
  | For_header of Isa.si_reg * Isa.si_reg * Isa.si_reg  (* idx, lo, hi *)
  | While_header of Isa.si_reg
  | If_header of Isa.si_reg

let pp_loc buffers ctx ppf = function
  | Whole what -> Fmt.string ppf what
  | Instr i -> Fmt.pf ppf "%s: %a" ctx (Isa.pp_instr buffers) i
  | For_header (idx, lo, hi) ->
      Fmt.pf ppf "%s: for %a = %a to %a" ctx Isa.pp_si idx Isa.pp_si lo Isa.pp_si hi
  | While_header cond -> Fmt.pf ppf "%s: while %a" ctx Isa.pp_si cond
  | If_header cond -> Fmt.pf ppf "%s: if %a" ctx Isa.pp_si cond

let verify ?(width = 4) ?(n_threads = 4) ?(lengths = []) (p : Isa.program) :
    issue list =
  (* Issues are kept with their location unformatted: [where] strings are
     built only for recorded issues, once, at the end. The phase context
     is taken when the issue is recorded, i.e. while its statement is
     visited. *)
  let phase_ctx = ref "" in
  let issues = ref [] in
  let add ~where fmt =
    Fmt.kstr (fun what -> issues := (!phase_ctx, where, what) :: !issues) fmt
  in
  let finish () =
    List.rev_map
      (fun (ctx, loc, what) -> { where = Fmt.str "%a" (pp_loc p.buffers ctx) loc; what })
      !issues
  in
  (* Structural checks first; a malformed program (register indices out of
     range) cannot be interpreted abstractly, so bail out after reporting. *)
  let structurally_ok =
    match Isa.validate p with
    | () -> true
    | exception Isa.Invalid_program msg ->
        add ~where:(Whole "structure") "%s" msg;
        false
  in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (b : Isa.buffer_decl) ->
      if Hashtbl.mem seen b.buf_name then
        add ~where:(Whole "buffers") "duplicate buffer name %s" b.buf_name;
      Hashtbl.replace seen b.buf_name ())
    p.buffers;
  if not structurally_ok then finish ()
  else begin
    let len_of =
      Array.map
        (fun (b : Isa.buffer_decl) -> List.assoc_opt b.buf_name lengths)
        p.buffers
    in
    let buf_name (Isa.Buf b) = p.buffers.(b).buf_name in
    let st = make_st p.regs in
    (* Thread id / thread count / vector width are set by the interpreter
       at every phase entry, on every participating thread. *)
    st.si_def.(0) <- everywhere;
    st.si_itv.(0) <- R (0, n_threads - 1);
    st.si_def.(1) <- everywhere;
    st.si_itv.(1) <- itv_const n_threads;
    st.si_def.(2) <- everywhere;
    st.si_itv.(2) <- itv_const width;
    let itv_si (Isa.Si r) = st.si_itv.(r) in
    let itv_vi (Isa.Vi r) = st.vi_itv.(r) in
    (* Read check. Cascade suppression: a register read while undefined is
       reported once, then treated as defined. *)
    let rd ~mode ~where o =
      let check name def i =
        if def.(i) = undef then begin
          add ~where "read of undefined register %s%d" name i;
          def.(i) <- everywhere
        end
        else if def.(i) = solo && mode = Mpar then begin
          add ~where
            "register %s%d was last written in a sequential phase and holds \
             its value on thread 0 only; route it through a buffer"
            name i;
          def.(i) <- everywhere
        end
      in
      match o with
      | Osi (Si r) -> check "i" st.si_def r
      | Osf (Sf r) -> check "f" st.sf_def r
      | Ovf (Vf r) -> check "v" st.vf_def r
      | Ovi (Vi r) -> check "x" st.vi_def r
      | Ovm (Vm r) -> check "m" st.vm_def r
    in
    let def_level ~mode old = match mode with Mpar -> everywhere | Mseq -> max old solo in
    let wr_si ~mode ~where (Isa.Si r) itv =
      if r < Isa.reserved_si_regs then
        add ~where "write to reserved register i%d" r;
      st.si_def.(r) <- def_level ~mode st.si_def.(r);
      st.si_itv.(r) <- itv
    in
    let wr_vi ~mode (Isa.Vi r) itv =
      st.vi_def.(r) <- def_level ~mode st.vi_def.(r);
      st.vi_itv.(r) <- itv
    in
    let wr ~mode ~where o =
      match o with
      | Osi r -> wr_si ~mode ~where r Top
      | Osf (Sf r) -> st.sf_def.(r) <- def_level ~mode st.sf_def.(r)
      | Ovf (Vf r) -> st.vf_def.(r) <- def_level ~mode st.vf_def.(r)
      | Ovi r -> wr_vi ~mode r Top
      | Ovm (Vm r) -> st.vm_def.(r) <- def_level ~mode st.vm_def.(r)
    in
    (* Provable out-of-bounds: the whole index interval lies outside the
       buffer. [span] is the reach beyond the first element (unit-stride
       vector ops touch idx .. idx+width-1). For an exact (singleton)
       index the span participates; for a range only the provably-wrong
       directions do — the interval is an over-approximation. *)
    let oob ~where b first span =
      match len_of.(let (Isa.Buf i) = b in i) with
      | None -> ()
      | Some len -> (
          match first with
          | Top -> ()
          | R (lo, hi) when lo = hi ->
              if lo < 0 || lo + span - 1 >= len then
                add ~where
                  "access to %s is out of bounds: touches element %d of %d"
                  (buf_name b)
                  (if lo < 0 then lo else lo + span - 1)
                  len
          | R (lo, hi) ->
              if lo >= len then
                add ~where
                  "access to %s is always out of bounds: index is at least \
                   %d but the buffer has %d elements"
                  (buf_name b) lo len
              else if hi + span - 1 < 0 then
                add ~where "access to %s is always out of bounds: index is negative"
                  (buf_name b))
    in
    let exec_instr ~mode (i : Isa.instr) =
      let where = Instr i in
      (* 1. def-before-use on sources, with codegen-idiom leniency *)
      let reads, writes = operands i in
      let lenient =
        match i with
        | Vselectf (d, _, a, b) when a = d || b = d -> [ Ovf d ]
        | Vselecti (d, _, a, b) when a = d || b = d -> [ Ovi d ]
        | Vinsertf (d, _, _) -> [ Ovf d ]
        | _ -> []
      in
      List.iter
        (fun o -> if not (List.mem o lenient) then rd ~mode ~where o)
        reads;
      (* 2. provable out-of-bounds (masked ops skip: inactive lanes touch
         nothing, and the mask is how remainders stay in bounds) *)
      (match i with
      | Loadf { buf; idx; _ }
      | Loadi { buf; idx; _ }
      | Storef { buf; idx; _ }
      | Storei { buf; idx; _ } ->
          oob ~where buf (itv_si idx) 1
      | Vloadf { buf; idx; mask = None; _ }
      | Vloadi { buf; idx; mask = None; _ }
      | Vstoref { buf; idx; mask = None; _ }
      | Vstorei { buf; idx; mask = None; _ }
      | Vstoref_nt { buf; idx; _ } ->
          oob ~where buf (itv_si idx) width
      | Vloadf_strided { buf; idx; stride; _ }
      | Vstoref_strided { buf; idx; stride; _ } -> (
          match itv_si stride with
          | R (s, s') when s = s' && s >= 1 ->
              oob ~where buf (itv_si idx) (1 + (s * (width - 1)))
          | _ -> ())
      | Vgatherf { buf; idx; mask = None; _ }
      | Vgatheri { buf; idx; mask = None; _ }
      | Vscatterf { buf; idx; mask = None; _ }
      | Vscatteri { buf; idx; mask = None; _ } ->
          oob ~where buf (itv_vi idx) 1
      | _ -> ());
      (* 3. writes, with interval transfer where the domain tracks one *)
      match i with
      | Iconst (d, n) -> wr_si ~mode ~where d (itv_const n)
      | Imov (d, a) -> wr_si ~mode ~where d (itv_si a)
      | Ibin (op, d, a, b) ->
          wr_si ~mode ~where d (itv_ibin op (itv_si a) (itv_si b))
      | Icmp (_, d, _, _) | Fcmp (_, d, _, _) | Many (d, _) | Mall (d, _) ->
          wr_si ~mode ~where d (R (0, 1))
      | Mcount (d, _) -> wr_si ~mode ~where d (R (0, width))
      | Iselect (d, _, a, b) ->
          wr_si ~mode ~where d (join (itv_si a) (itv_si b))
      | Viota d -> wr_vi ~mode d (R (0, width - 1))
      | Vbroadcasti (d, a) -> wr_vi ~mode d (itv_si a)
      | Vmovi (d, a) -> wr_vi ~mode d (itv_vi a)
      | Vibin (op, d, a, b) ->
          wr_vi ~mode d (itv_ibin op (itv_vi a) (itv_vi b))
      | Vselecti (d, _, a, b) -> wr_vi ~mode d (join (itv_vi a) (itv_vi b))
      | _ -> List.iter (wr ~mode ~where) writes
    in
    (* Loop bodies are analyzed once: before entering, every register the
       body can write is widened to Top so first-iteration intervals are
       not mistaken for all-iteration facts. *)
    let rec widen_block b = List.iter widen_stmt b
    and widen_stmt (s : Isa.stmt) =
      match s with
      | I i ->
          let _, writes = operands i in
          List.iter
            (function
              | Osi (Isa.Si r) -> st.si_itv.(r) <- Top
              | Ovi (Isa.Vi r) -> st.vi_itv.(r) <- Top
              | Osf _ | Ovf _ | Ovm _ -> ())
            writes
      | For { idx = Si r; body; _ } ->
          st.si_itv.(r) <- Top;
          widen_block body
      | While { cond_block; body; _ } ->
          widen_block cond_block;
          widen_block body
      | If { then_; else_; _ } ->
          widen_block then_;
          widen_block else_
      | Region { body; _ } -> widen_block body
    in
    let rec block_writes_si target b = List.exists (stmt_writes_si target) b
    and stmt_writes_si target (s : Isa.stmt) =
      match s with
      | I i ->
          let _, writes = operands i in
          List.mem (Osi target) writes
      | For { idx; body; _ } -> idx = target || block_writes_si target body
      | While { cond_block; body; _ } ->
          block_writes_si target cond_block || block_writes_si target body
      | If { then_; else_; _ } ->
          block_writes_si target then_ || block_writes_si target else_
      | Region { body; _ } -> block_writes_si target body
    in
    let rec exec_block ~mode b = List.iter (exec_stmt ~mode) b
    and exec_stmt ~mode (s : Isa.stmt) =
      match s with
      | I i -> exec_instr ~mode i
      | For { idx; lo; hi; step; body } ->
          let where = For_header (idx, lo, hi) in
          List.iter (rd ~mode ~where) [ Osi lo; Osi hi; Osi step ];
          let lo_itv = itv_si lo and hi_itv = itv_si hi in
          widen_block body;
          let idx_itv =
            if block_writes_si idx body then Top
            else
              match (lo_itv, hi_itv) with
              | R (l, _), R (_, h) when h - 1 >= l -> R (l, h - 1)
              | _ -> Top
          in
          wr_si ~mode ~where idx idx_itv;
          (* Defs made in the body are retained after the loop: hand
             kernels store results computed inside; flagging the
             zero-trip case would be all noise. *)
          exec_block ~mode body
      | While { cond_block; cond; body } ->
          let where = While_header cond in
          widen_block cond_block;
          widen_block body;
          exec_block ~mode cond_block;
          rd ~mode ~where (Osi cond);
          exec_block ~mode body
      | If { cond; then_; else_ } ->
          let where = If_header cond in
          rd ~mode ~where (Osi cond);
          let saved = copy_st st in
          exec_block ~mode then_;
          let st_then = copy_st st in
          Array.blit saved.si_def 0 st.si_def 0 (Array.length st.si_def);
          Array.blit saved.si_itv 0 st.si_itv 0 (Array.length st.si_itv);
          Array.blit saved.sf_def 0 st.sf_def 0 (Array.length st.sf_def);
          Array.blit saved.vf_def 0 st.vf_def 0 (Array.length st.vf_def);
          Array.blit saved.vi_def 0 st.vi_def 0 (Array.length st.vi_def);
          Array.blit saved.vi_itv 0 st.vi_itv 0 (Array.length st.vi_itv);
          Array.blit saved.vm_def 0 st.vm_def 0 (Array.length st.vm_def);
          exec_block ~mode else_;
          merge_into st st_then (copy_st st)
      | Region { body; _ } -> exec_block ~mode body
    in
    List.iteri
      (fun n ph ->
        match ph with
        | Isa.Par b ->
            phase_ctx := Fmt.str "phase %d (parallel)" n;
            exec_block ~mode:Mpar b
        | Isa.Seq b ->
            phase_ctx := Fmt.str "phase %d (sequential)" n;
            exec_block ~mode:Mseq b)
      p.phases;
    finish ()
  end

(* ------------------------------------------------------------------ *)
(* Flat-form checker for optimized decoded arrays                      *)

let check_flat (d : Decode.t) : issue list =
  let issues = ref [] in
  let p = d.Decode.prog in
  let regs = p.Isa.regs in
  Array.iteri
    (fun pi (ph : Decode.phase) ->
      let code = ph.Decode.code in
      let len = Array.length code in
      let add i fmt =
        Fmt.kstr
          (fun what ->
            issues := { where = Fmt.str "phase %d op %d" pi i; what } :: !issues)
          fmt
      in
      let chk_target i t =
        if t < 0 || t > len then add i "jump target %d outside [0, %d]" t len
      in
      let chk_reg i name r bound =
        if r < 0 || r >= max bound 1 then add i "%s reg %d out of range" name r
      in
      let chk_si i r = chk_reg i "si" r regs.Isa.si in
      let chk_sf i r = chk_reg i "sf" r regs.Isa.sf in
      let chk_vf i r = chk_reg i "vf" r regs.Isa.vf in
      let chk_operand i = function
        | Osi (Isa.Si r) -> chk_si i r
        | Osf (Isa.Sf r) -> chk_sf i r
        | Ovf (Isa.Vf r) -> chk_vf i r
        | Ovi (Isa.Vi r) -> chk_reg i "vi" r regs.Isa.vi
        | Ovm (Isa.Vm r) -> chk_reg i "vm" r regs.Isa.vm
      in
      let chk_buf i (Isa.Buf b) want =
        if b < 0 || b >= Array.length p.Isa.buffers then
          add i "buffer %d out of range" b
        else if p.Isa.buffers.(b).Isa.elt <> want then
          add i "buffer %s accessed with the wrong element type"
            p.Isa.buffers.(b).Isa.buf_name
      in
      Array.iteri
        (fun i op ->
          match (op : Decode.dop) with
          | Decode.Dinstr { i = instr; cls; cls_idx } ->
              if Isa.classify instr <> cls then add i "stale op class";
              if Isa.op_class_index cls <> cls_idx then add i "stale class index";
              let reads, writes = operands instr in
              List.iter (chk_operand i) reads;
              List.iter (chk_operand i) writes
          | Decode.Dfor { idx; lo; hi; step; id; exit } ->
              List.iter (chk_si i) [ idx; lo; hi; step ];
              if id < 0 || id >= d.Decode.n_fors then add i "for id %d out of range" id;
              chk_target i exit
          | Decode.Dforback { idx; id; body } ->
              chk_si i idx;
              if id < 0 || id >= d.Decode.n_fors then add i "for id %d out of range" id;
              chk_target i body
          | Decode.Dwhile { cond; exit } -> chk_si i cond; chk_target i exit
          | Decode.Dif { cond; else_ } -> chk_si i cond; chk_target i else_
          | Decode.Djmp t -> chk_target i t
          | Decode.Denter _ | Decode.Dexit _ -> ()
          | Decode.Daddi { d; a; _ } | Decode.Dmuli { d; a; _ } ->
              chk_si i d; chk_si i a
          | Decode.Dloadf_at { dst; buf; imm; _ } ->
              chk_sf i dst; chk_buf i buf Isa.F32;
              if imm < 0 then add i "negative load index %d" imm
          | Decode.Dloadi_at { dst; buf; imm; _ } ->
              chk_si i dst; chk_buf i buf Isa.I32;
              if imm < 0 then add i "negative load index %d" imm
          | Decode.Dstoref_at { buf; imm; src } ->
              chk_sf i src; chk_buf i buf Isa.F32;
              if imm < 0 then add i "negative store index %d" imm
          | Decode.Dstorei_at { buf; imm; src } ->
              chk_si i src; chk_buf i buf Isa.I32;
              if imm < 0 then add i "negative store index %d" imm
          | Decode.Dsmuladd { t; a; b; d; x; y } ->
              List.iter (chk_sf i) [ t; a; b; d; x; y ];
              if x <> t && y <> t then add i "muladd does not read its product"
          | Decode.Dvmuladd { t; a; b; d; x; y } ->
              List.iter (chk_vf i) [ t; a; b; d; x; y ];
              if x <> t && y <> t then add i "muladd does not read its product")
        code)
    d.Decode.phases;
  List.rev !issues
