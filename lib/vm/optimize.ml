(* Bytecode optimizer: a pass pipeline over {!Decode}'s flat op arrays.

   The optimizer speeds up the *host* executor, never the *simulated*
   machine: every pass must leave the per-class instruction counts, the
   total dynamic instruction count, the {!Trace} event stream, the memory
   event stream, traps (including their messages and positions), final
   memory contents and the final register files bit-identical to the
   unoptimized decoded program. Timing reports therefore round-trip
   unchanged by construction — the ops/s gain is wall-clock reduction at a
   fixed simulated instruction mix. Concretely, a rewrite replaces an op
   only with a form of the same op class and the same effect: a read
   renamed to an equal register, an [Ibin] or scalar access with a known
   constant operand turned into its immediate form, a mul+add pair fused
   into one op that counts two. No pass removes an op's effect, so every
   trap and memory event stays where it was.

   Each pass is independently correct on *any* valid decoded array, so
   passes compose in every order and the pipeline is idempotent —
   property-tested per pass, pairwise-shuffled, in every full order and
   for the full pipeline as [Compiled config] against the Tree walker in
   test/test_optimize.ml. *)

type pass = Moves | Imm | Peephole

type config = { passes : pass list }

let all_passes = [ Moves; Imm; Peephole ]
let default = { passes = all_passes }
let none = { passes = [] }

let pass_name = function
  | Moves -> "moves"
  | Imm -> "imm"
  | Peephole -> "peephole"

let tag c = String.concat "," (List.map pass_name c.passes)

type pass_stats = { ps_pass : pass; ps_stats : (string * int) list }

type report = { r_prog : string; r_ops : int; r_passes : pass_stats list }

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)

(* Ops with several successors or a non-fallthrough successor: block
   boundaries for the forward const/copy walks. *)
let is_control = function
  | Decode.Dfor _ | Decode.Dforback _ | Decode.Dwhile _ | Decode.Dif _
  | Decode.Djmp _ -> true
  | _ -> false

(* [t.(i)] holds when some op jumps to [i]; index [len] (halt) included. *)
let jump_targets code =
  let t = Array.make (Array.length code + 1) false in
  Array.iter
    (fun op ->
      match (op : Decode.dop) with
      | Decode.Dfor { exit; _ } | Decode.Dwhile { exit; _ } -> t.(exit) <- true
      | Decode.Dforback { body; _ } -> t.(body) <- true
      | Decode.Dif { else_; _ } -> t.(else_) <- true
      | Decode.Djmp k -> t.(k) <- true
      | _ -> ())
    code;
  t

let dop_writes (op : Decode.dop) : Verify.operand list =
  match op with
  | Decode.Dinstr { i; _ } -> snd (Verify.operands i)
  | Decode.Dfor { idx; _ } | Decode.Dforback { idx; _ } ->
      [ Verify.Osi (Isa.Si idx) ]
  | Decode.Daddi { d; _ } | Decode.Dmuli { d; _ } -> [ Verify.Osi (Isa.Si d) ]
  | Decode.Dloadf_at { dst; _ } -> [ Verify.Osf (Isa.Sf dst) ]
  | Decode.Dloadi_at { dst; _ } -> [ Verify.Osi (Isa.Si dst) ]
  | Decode.Dsmuladd { t; d; _ } ->
      [ Verify.Osf (Isa.Sf t); Verify.Osf (Isa.Sf d) ]
  | Decode.Dvmuladd { t; d; _ } ->
      [ Verify.Ovf (Isa.Vf t); Verify.Ovf (Isa.Vf d) ]
  | Decode.Dwhile _ | Decode.Dif _ | Decode.Djmp _ | Decode.Denter _
  | Decode.Dexit _ | Decode.Dstoref_at _ | Decode.Dstorei_at _ -> []

(* imm's per-block known scalar int constants [c] (float and vector
   constants are not tracked), reset at every jump target and after every
   control op. Transfer the (already rewritten) op through them: record
   the constants it produces, kill everything else it writes. *)
let consts_track c (op : Decode.dop) =
  match op with
  | Decode.Dinstr { i = Isa.Iconst (Si d, n); _ } -> Hashtbl.replace c d n
  | Decode.Daddi { d; a; imm } -> (
      match Hashtbl.find_opt c a with
      | Some va -> Hashtbl.replace c d (va + imm)
      | None -> Hashtbl.remove c d)
  | Decode.Dmuli { d; a; imm } -> (
      match Hashtbl.find_opt c a with
      | Some va -> Hashtbl.replace c d (va * imm)
      | None -> Hashtbl.remove c d)
  | _ ->
      List.iter
        (function Verify.Osi (Isa.Si r) -> Hashtbl.remove c r | _ -> ())
        (dop_writes op)

(* ------------------------------------------------------------------ *)
(* moves: copy propagation (operand renaming only)                     *)

(* Rewrites *reads* of a register known to be a copy to read the copy's
   source instead — register contents are never changed, so every
   observable is trivially preserved. A read is never rewritten into a
   register the same op writes: per-lane vector execution and the
   post-write event emission of gathers make fresh intra-op aliasing
   observable, so we simply never introduce any. *)
let moves_pass code =
  let rewritten = ref 0 in
  let tgt = jump_targets code in
  let mi = Hashtbl.create 8 and mf = Hashtbl.create 8 in
  let mvf = Hashtbl.create 8 and mvi = Hashtbl.create 8 in
  let reset () =
    Hashtbl.reset mi; Hashtbl.reset mf; Hashtbl.reset mvf; Hashtbl.reset mvi
  in
  let kill tbl r =
    Hashtbl.remove tbl r;
    let stale = Hashtbl.fold (fun k v acc -> if v = r then k :: acc else acc) tbl [] in
    List.iter (Hashtbl.remove tbl) stale
  in
  let kill_op op =
    List.iter
      (function
        | Verify.Osi (Isa.Si r) -> kill mi r
        | Verify.Osf (Isa.Sf r) -> kill mf r
        | Verify.Ovf (Isa.Vf r) -> kill mvf r
        | Verify.Ovi (Isa.Vi r) -> kill mvi r
        | Verify.Ovm _ -> ())
      (dop_writes op)
  in
  let len = Array.length code in
  for i = 0 to len - 1 do
    if tgt.(i) then reset ();
    let op = code.(i) in
    let writes = dop_writes op in
    let written_si r =
      List.exists (function Verify.Osi (Isa.Si w) -> w = r | _ -> false) writes
    in
    let written_sf r =
      List.exists (function Verify.Osf (Isa.Sf w) -> w = r | _ -> false) writes
    in
    let written_vf r =
      List.exists (function Verify.Ovf (Isa.Vf w) -> w = r | _ -> false) writes
    in
    let written_vi r =
      List.exists (function Verify.Ovi (Isa.Vi w) -> w = r | _ -> false) writes
    in
    let sub tbl written r =
      match Hashtbl.find_opt tbl r with
      | Some r' when not (written r') ->
          incr rewritten;
          r'
      | _ -> r
    in
    let rsi (Isa.Si r) = Isa.Si (sub mi written_si r) in
    let rsf (Isa.Sf r) = Isa.Sf (sub mf written_sf r) in
    let rvf (Isa.Vf r) = Isa.Vf (sub mvf written_vf r) in
    let rvi (Isa.Vi r) = Isa.Vi (sub mvi written_vi r) in
    let subst (instr : Isa.instr) : Isa.instr =
      match instr with
      | Iconst _ | Fconst _ | Viota _ | Mconst _ | Mpattern _ | Mnot _
      | Mand _ | Mor _ | Many _ | Mall _ | Mcount _ -> instr
      | Imov (d, a) -> Imov (d, rsi a)
      | Fmov (d, a) -> Fmov (d, rsf a)
      | Ibin (op, d, a, b) -> Ibin (op, d, rsi a, rsi b)
      | Fbin (op, d, a, b) -> Fbin (op, d, rsf a, rsf b)
      | Fma (d, a, b, c) -> Fma (d, rsf a, rsf b, rsf c)
      | Funop (op, d, a) -> Funop (op, d, rsf a)
      | Icmp (op, d, a, b) -> Icmp (op, d, rsi a, rsi b)
      | Fcmp (op, d, a, b) -> Fcmp (op, d, rsf a, rsf b)
      | Iselect (d, c, a, b) -> Iselect (d, rsi c, rsi a, rsi b)
      | Fselect (d, c, a, b) -> Fselect (d, rsi c, rsf a, rsf b)
      | Fofi (d, a) -> Fofi (d, rsi a)
      | Ioff (d, a) -> Ioff (d, rsf a)
      | Loadf l -> Loadf { l with idx = rsi l.idx }
      | Loadi l -> Loadi { l with idx = rsi l.idx }
      | Storef s -> Storef { s with idx = rsi s.idx; src = rsf s.src }
      | Storei s -> Storei { s with idx = rsi s.idx; src = rsi s.src }
      | Vmovf (d, a) -> Vmovf (d, rvf a)
      | Vmovi (d, a) -> Vmovi (d, rvi a)
      | Vbroadcastf (d, a) -> Vbroadcastf (d, rsf a)
      | Vbroadcasti (d, a) -> Vbroadcasti (d, rsi a)
      | Vfbin (op, d, a, b) -> Vfbin (op, d, rvf a, rvf b)
      | Vfma (d, a, b, c) -> Vfma (d, rvf a, rvf b, rvf c)
      | Vfunop (op, d, a) -> Vfunop (op, d, rvf a)
      | Vibin (op, d, a, b) -> Vibin (op, d, rvi a, rvi b)
      | Vfcmp (op, d, a, b) -> Vfcmp (op, d, rvf a, rvf b)
      | Vicmp (op, d, a, b) -> Vicmp (op, d, rvi a, rvi b)
      | Vselectf (d, m, a, b) -> Vselectf (d, m, rvf a, rvf b)
      | Vselecti (d, m, a, b) -> Vselecti (d, m, rvi a, rvi b)
      | Vfofi (d, a) -> Vfofi (d, rvi a)
      | Vioff (d, a) -> Vioff (d, rvf a)
      | Vpermutef (d, a, pat) -> Vpermutef (d, rvf a, pat)
      | Vextractf (d, a, l) -> Vextractf (d, rvf a, rsi l)
      | Vinsertf (d, l, a) -> Vinsertf (d, rsi l, rsf a) (* d is read+write *)
      | Vreducef (r, d, a) -> Vreducef (r, d, rvf a)
      | Vreducei (r, d, a) -> Vreducei (r, d, rvi a)
      | Mfirst (d, n) -> Mfirst (d, rsi n)
      | Vloadf l -> Vloadf { l with idx = rsi l.idx }
      | Vloadi l -> Vloadi { l with idx = rsi l.idx }
      | Vloadf_strided l ->
          Vloadf_strided { l with idx = rsi l.idx; stride = rsi l.stride }
      | Vgatherf g -> Vgatherf { g with idx = rvi g.idx }
      | Vgatheri g -> Vgatheri { g with idx = rvi g.idx }
      | Vstoref s -> Vstoref { s with idx = rsi s.idx; src = rvf s.src }
      | Vstoref_nt s -> Vstoref_nt { s with idx = rsi s.idx; src = rvf s.src }
      | Vstorei s -> Vstorei { s with idx = rsi s.idx; src = rvi s.src }
      | Vstoref_strided s ->
          Vstoref_strided
            { s with idx = rsi s.idx; stride = rsi s.stride; src = rvf s.src }
      | Vscatterf s -> Vscatterf { s with idx = rvi s.idx; src = rvf s.src }
      | Vscatteri s -> Vscatteri { s with idx = rvi s.idx; src = rvi s.src }
    in
    let op' =
      match op with
      | Decode.Dinstr { i = instr; cls; cls_idx } ->
          Decode.Dinstr { i = subst instr; cls; cls_idx }
      | Decode.Dfor f ->
          let (Isa.Si lo) = rsi (Isa.Si f.lo) in
          let (Isa.Si hi) = rsi (Isa.Si f.hi) in
          let (Isa.Si step) = rsi (Isa.Si f.step) in
          Decode.Dfor { f with lo; hi; step }
      | Decode.Dwhile w ->
          let (Isa.Si cond) = rsi (Isa.Si w.cond) in
          Decode.Dwhile { w with cond }
      | Decode.Dif b ->
          let (Isa.Si cond) = rsi (Isa.Si b.cond) in
          Decode.Dif { b with cond }
      | Decode.Daddi r ->
          let (Isa.Si a) = rsi (Isa.Si r.a) in
          Decode.Daddi { r with a }
      | Decode.Dmuli r ->
          let (Isa.Si a) = rsi (Isa.Si r.a) in
          Decode.Dmuli { r with a }
      | Decode.Dstoref_at s ->
          let (Isa.Sf src) = rsf (Isa.Sf s.src) in
          Decode.Dstoref_at { s with src }
      | Decode.Dstorei_at s ->
          let (Isa.Si src) = rsi (Isa.Si s.src) in
          Decode.Dstorei_at { s with src }
      | _ -> op
    in
    code.(i) <- op';
    (match op' with
    | Decode.Dinstr { i = Isa.Imov (Si d, Si a); _ } ->
        let root = Option.value (Hashtbl.find_opt mi a) ~default:a in
        kill mi d;
        if root <> d then Hashtbl.replace mi d root
    | Decode.Dinstr { i = Isa.Fmov (Sf d, Sf a); _ } ->
        let root = Option.value (Hashtbl.find_opt mf a) ~default:a in
        kill mf d;
        if root <> d then Hashtbl.replace mf d root
    | Decode.Dinstr { i = Isa.Vmovf (Vf d, Vf a); _ } ->
        let root = Option.value (Hashtbl.find_opt mvf a) ~default:a in
        kill mvf d;
        if root <> d then Hashtbl.replace mvf d root
    | Decode.Dinstr { i = Isa.Vmovi (Vi d, Vi a); _ } ->
        let root = Option.value (Hashtbl.find_opt mvi a) ~default:a in
        kill mvi d;
        if root <> d then Hashtbl.replace mvi d root
    | _ -> kill_op op');
    if is_control op' then reset ()
  done;
  [ ("rewritten", !rewritten) ]

(* ------------------------------------------------------------------ *)
(* imm: immediate-operand specialization (ropAddI-style op forms)      *)

let imm_pass code =
  let specialized = ref 0 in
  let tgt = jump_targets code in
  let c = Hashtbl.create 16 in
  let ki r = Hashtbl.find_opt c r in
  let len = Array.length code in
  for i = 0 to len - 1 do
    if tgt.(i) then Hashtbl.reset c;
    let op = code.(i) in
    let spec o =
      incr specialized;
      Some o
    in
    let op' =
      match op with
      | Decode.Dinstr { i = Isa.Ibin (bop, Si d, Si a, Si b); _ } -> (
          match (bop, ki a, ki b) with
          | _, Some _, Some _ -> None (* both known: only a mixed pair specializes *)
          | Isa.Iadd, None, Some vb -> spec (Decode.Daddi { d; a; imm = vb })
          | Isa.Iadd, Some va, None -> spec (Decode.Daddi { d; a = b; imm = va })
          | Isa.Isub, None, Some vb -> spec (Decode.Daddi { d; a; imm = -vb })
          | Isa.Imul, None, Some vb -> spec (Decode.Dmuli { d; a; imm = vb })
          | Isa.Imul, Some va, None -> spec (Decode.Dmuli { d; a = b; imm = va })
          | _ -> None)
      | Decode.Dinstr { i = Isa.Loadf { dst = Sf dst; buf; idx = Si idx; chain }; _ }
        -> (
          match ki idx with
          | Some v when v >= 0 -> spec (Decode.Dloadf_at { dst; buf; imm = v; chain })
          | _ -> None)
      | Decode.Dinstr { i = Isa.Loadi { dst = Si dst; buf; idx = Si idx; chain }; _ }
        -> (
          match ki idx with
          | Some v when v >= 0 -> spec (Decode.Dloadi_at { dst; buf; imm = v; chain })
          | _ -> None)
      | Decode.Dinstr { i = Isa.Storef { buf; idx = Si idx; src = Sf src }; _ } -> (
          match ki idx with
          | Some v when v >= 0 -> spec (Decode.Dstoref_at { buf; imm = v; src })
          | _ -> None)
      | Decode.Dinstr { i = Isa.Storei { buf; idx = Si idx; src = Si src }; _ } -> (
          match ki idx with
          | Some v when v >= 0 -> spec (Decode.Dstorei_at { buf; imm = v; src })
          | _ -> None)
      | _ -> None
    in
    (match op' with Some o -> code.(i) <- o | None -> ());
    let cur = code.(i) in
    consts_track c cur;
    if is_control cur then Hashtbl.reset c
  done;
  [ ("specialized", !specialized) ]

(* ------------------------------------------------------------------ *)
(* peephole: fuse adjacent mul+add pairs                               *)

let peephole_pass code =
  let fused = ref 0 in
  let tgt = jump_targets code in
  let len = Array.length code in
  for i = 0 to len - 2 do
    if not tgt.(i + 1) then
      match (code.(i), code.(i + 1)) with
      | ( Decode.Dinstr { i = Isa.Vfbin (Fmul, Vf t, Vf a, Vf b); _ },
          Decode.Dinstr { i = Isa.Vfbin (Fadd, Vf d, Vf x, Vf y); _ } )
        when x = t || y = t ->
          code.(i) <- Decode.Dvmuladd { t; a; b; d; x; y };
          code.(i + 1) <- Decode.Djmp (i + 2);
          incr fused
      | ( Decode.Dinstr { i = Isa.Fbin (Fmul, Sf t, Sf a, Sf b); _ },
          Decode.Dinstr { i = Isa.Fbin (Fadd, Sf d, Sf x, Sf y); _ } )
        when x = t || y = t ->
          code.(i) <- Decode.Dsmuladd { t; a; b; d; x; y };
          code.(i + 1) <- Decode.Djmp (i + 2);
          incr fused
      | _ -> ()
  done;
  [ ("fused", !fused) ]

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)

let apply p =
  match p with
  | Moves -> moves_pass
  | Imm -> imm_pass
  | Peephole -> peephole_pass

let run_report ?(config = default) (d : Decode.t) : Decode.t * report =
  let phases =
    Array.map
      (fun (ph : Decode.phase) -> { ph with Decode.code = Array.copy ph.Decode.code })
      d.Decode.phases
  in
  let per_pass =
    List.map
      (fun p ->
        let stats =
          Array.fold_left
            (fun acc (ph : Decode.phase) ->
              let s = apply p ph.Decode.code in
              match acc with
              | None -> Some s
              | Some prev ->
                  Some (List.map2 (fun (k, a) (_, b) -> (k, a + b)) prev s))
            None phases
        in
        { ps_pass = p; ps_stats = Option.value stats ~default:[] })
      config.passes
  in
  ( { d with Decode.phases },
    { r_prog = d.Decode.prog.Isa.prog_name;
      r_ops = Decode.size d;
      r_passes = per_pass } )

let run ?config d = fst (run_report ?config d)

let total_rewrites r =
  List.fold_left
    (fun acc ps -> List.fold_left (fun a (_, n) -> a + n) acc ps.ps_stats)
    0 r.r_passes

let pp_report ppf r =
  Fmt.pf ppf "opt-report for program %s (%d ops)@." r.r_prog r.r_ops;
  List.iter
    (fun ps ->
      Fmt.pf ppf "  pass %s: %a@." (pass_name ps.ps_pass)
        Fmt.(list ~sep:(any ", ") (fun ppf (k, n) -> Fmt.pf ppf "%s %d" k n))
        ps.ps_stats)
    r.r_passes;
  Fmt.pf ppf "  total rewrites: %d@." (total_rewrites r)
