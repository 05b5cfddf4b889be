(* Bytecode optimizer: a pass pipeline over {!Decode}'s flat op arrays.

   The optimizer speeds up the *host* executor, never the *simulated*
   machine: every pass must leave the per-class instruction counts, the
   total dynamic instruction count, the {!Trace} event stream, the memory
   event stream, traps (including their messages and positions), final
   memory contents and the final register files bit-identical to the
   unoptimized decoded program. Timing reports therefore round-trip
   unchanged by construction — the ops/s gain is wall-clock reduction at a
   fixed simulated instruction mix. Concretely:

   - a rewrite may replace an op only with one of the same op class
     ([Ibin] folds to [Iconst]: both Salu; [Fdiv]/[Fsqrt]/[Fexp]/[Flog]
     are never folded — their classes differ from [Fconst]'s Sfp);
   - dead ops become {!Decode.Dphantom} stand-ins that keep the
     bookkeeping (counts, fuel, traced ops) without the register work;
   - constant-condition branches become {!Decode.Dgoto}, which still
     counts one Branch op;
   - ops that can trap ([Idiv]/[Imod] with an unproven divisor, lane
     accesses, every memory op) are never removed.

   Each pass is independently correct on *any* valid decoded array, so
   passes compose in every order and the pipeline is idempotent —
   property-tested per pass, pairwise-shuffled and for the full pipeline
   as [Compiled config] against the Tree walker in test/test_optimize.ml. *)

type pass = Fold | Moves | Imm | Dce | Peephole

type config = { passes : pass list }

let all_passes = [ Fold; Moves; Imm; Dce; Peephole ]
let default = { passes = all_passes }
let none = { passes = [] }

let pass_name = function
  | Fold -> "fold"
  | Moves -> "moves"
  | Imm -> "imm"
  | Dce -> "dce"
  | Peephole -> "peephole"

let pass_of_name = function
  | "fold" -> Some Fold
  | "moves" -> Some Moves
  | "imm" -> Some Imm
  | "dce" -> Some Dce
  | "peephole" -> Some Peephole
  | _ -> None

let tag c = String.concat "," (List.map pass_name c.passes)

let parse_passes s =
  if s = "" || s = "none" then Ok none
  else if s = "all" then Ok default
  else
    let names = String.split_on_char ',' s |> List.map String.trim in
    let rec go acc = function
      | [] -> Ok { passes = List.rev acc }
      | n :: rest -> (
          match pass_of_name n with
          | Some p -> go (p :: acc) rest
          | None ->
              Error
                (Fmt.str "unknown pass %S (expected fold, moves, imm, dce, peephole)" n))
    in
    go [] names

type pass_stats = { ps_pass : pass; ps_stats : (string * int) list }

type report = { r_prog : string; r_ops : int; r_passes : pass_stats list }

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)

let dinstr i =
  let cls = Isa.classify i in
  Decode.Dinstr { i; cls; cls_idx = Isa.op_class_index cls }

(* Ops with several successors or a non-fallthrough successor: block
   boundaries for the forward const/copy walks and reset points for the
   backward liveness walk. *)
let is_control = function
  | Decode.Dfor _ | Decode.Dforback _ | Decode.Dwhile _ | Decode.Dif _
  | Decode.Djmp _ | Decode.Dgoto _ -> true
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
      | Decode.Djmp k | Decode.Dgoto k -> t.(k) <- true
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
  | Decode.Dwhile _ | Decode.Dif _ | Decode.Djmp _ | Decode.Dgoto _
  | Decode.Denter _ | Decode.Dexit _ | Decode.Dphantom _
  | Decode.Dstoref_at _ | Decode.Dstorei_at _ -> []

let dop_reads (op : Decode.dop) : Verify.operand list =
  match op with
  | Decode.Dinstr { i; _ } -> fst (Verify.operands i)
  | Decode.Dfor { lo; hi; step; _ } ->
      [ Verify.Osi (Isa.Si lo); Verify.Osi (Isa.Si hi); Verify.Osi (Isa.Si step) ]
  | Decode.Dwhile { cond; _ } | Decode.Dif { cond; _ } ->
      [ Verify.Osi (Isa.Si cond) ]
  | Decode.Daddi { a; _ } | Decode.Dmuli { a; _ } -> [ Verify.Osi (Isa.Si a) ]
  | Decode.Dstoref_at { src; _ } -> [ Verify.Osf (Isa.Sf src) ]
  | Decode.Dstorei_at { src; _ } -> [ Verify.Osi (Isa.Si src) ]
  | Decode.Dsmuladd { a; b; x; y; _ } ->
      [ Verify.Osf (Isa.Sf a); Verify.Osf (Isa.Sf b); Verify.Osf (Isa.Sf x);
        Verify.Osf (Isa.Sf y) ]
  | Decode.Dvmuladd { a; b; x; y; _ } ->
      [ Verify.Ovf (Isa.Vf a); Verify.Ovf (Isa.Vf b); Verify.Ovf (Isa.Vf x);
        Verify.Ovf (Isa.Vf y) ]
  | Decode.Dforback _ | Decode.Djmp _ | Decode.Dgoto _ | Decode.Denter _
  | Decode.Dexit _ | Decode.Dphantom _ | Decode.Dloadf_at _
  | Decode.Dloadi_at _ -> []

(* Evaluation helpers for the folder. These must mirror Interp's runtime
   evaluation *exactly* (Float.min, Float.equal, truncating int_of_float,
   1. /. Float.sqrt for rsqrt) — a folded constant is the value the
   interpreter would have computed. *)
let eval_ibin op a b =
  match (op : Isa.ibin) with
  | Iadd -> a + b
  | Isub -> a - b
  | Imul -> a * b
  | Idiv -> a / b (* caller guarantees b <> 0 *)
  | Imod -> a mod b
  | Iand -> a land b
  | Ior -> a lor b
  | Ixor -> a lxor b
  | Ishl -> a lsl b
  | Ishr -> a asr b
  | Imin -> if a <= b then a else b
  | Imax -> if a >= b then a else b

let eval_fbin op a b =
  match (op : Isa.fbin) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> Float.min a b
  | Fmax -> Float.max a b

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

(* Per-block known-constant state shared by fold and imm: scalar int and
   scalar float registers only (vector constants are not tracked). Reset
   at every jump target and after every control op. *)
type consts = { ki : (int, int) Hashtbl.t; kf : (int, float) Hashtbl.t }

let consts_create () = { ki = Hashtbl.create 16; kf = Hashtbl.create 16 }

let consts_reset c =
  Hashtbl.reset c.ki;
  Hashtbl.reset c.kf

let consts_kill c op =
  List.iter
    (function
      | Verify.Osi (Isa.Si r) -> Hashtbl.remove c.ki r
      | Verify.Osf (Isa.Sf r) -> Hashtbl.remove c.kf r
      | _ -> ())
    (dop_writes op)

(* Transfer the (already rewritten) op through the const state: record the
   constants it produces, kill everything else it writes. *)
let consts_track c (op : Decode.dop) =
  match op with
  | Decode.Dinstr { i = Isa.Iconst (Si d, n); _ } -> Hashtbl.replace c.ki d n
  | Decode.Dinstr { i = Isa.Fconst (Sf d, x); _ } -> Hashtbl.replace c.kf d x
  | Decode.Daddi { d; a; imm } -> (
      match Hashtbl.find_opt c.ki a with
      | Some va -> Hashtbl.replace c.ki d (va + imm)
      | None -> Hashtbl.remove c.ki d)
  | Decode.Dmuli { d; a; imm } -> (
      match Hashtbl.find_opt c.ki a with
      | Some va -> Hashtbl.replace c.ki d (va * imm)
      | None -> Hashtbl.remove c.ki d)
  | _ -> consts_kill c op

(* ------------------------------------------------------------------ *)
(* fold: constant folding and constant-condition branches              *)

let fold_pass _regs code =
  let folded = ref 0 and branches = ref 0 in
  let tgt = jump_targets code in
  let c = consts_create () in
  let gi (Isa.Si r) = Hashtbl.find_opt c.ki r in
  let gf (Isa.Sf r) = Hashtbl.find_opt c.kf r in
  let len = Array.length code in
  for i = 0 to len - 1 do
    if tgt.(i) then consts_reset c;
    let op = code.(i) in
    let fold_i d n =
      incr folded;
      Some (dinstr (Isa.Iconst (d, n)))
    in
    let fold_f d x =
      incr folded;
      Some (dinstr (Isa.Fconst (d, x)))
    in
    let op' =
      match op with
      | Decode.Dinstr { i = instr; _ } -> (
          match instr with
          | Isa.Imov (d, a) -> (
              match gi a with Some v -> fold_i d v | None -> None)
          | Isa.Ibin (bop, d, a, b) -> (
              match (gi a, gi b) with
              | Some va, Some vb -> (
                  match bop with
                  | (Idiv | Imod) when vb = 0 -> None (* keep the trap *)
                  | _ -> fold_i d (eval_ibin bop va vb))
              | _ -> None)
          | Isa.Icmp (cop, d, a, b) -> (
              match (gi a, gi b) with
              | Some va, Some vb ->
                  fold_i d (if eval_icmp cop va vb then 1 else 0)
              | _ -> None)
          | Isa.Fcmp (cop, d, a, b) -> (
              match (gf a, gf b) with
              | Some va, Some vb ->
                  fold_i d (if eval_fcmp cop va vb then 1 else 0)
              | _ -> None)
          | Isa.Iselect (d, cond, a, b) -> (
              match gi cond with
              | Some v -> (
                  let src = if v <> 0 then a else b in
                  match gi src with
                  | Some vs -> fold_i d vs
                  | None ->
                      incr folded;
                      Some (dinstr (Isa.Imov (d, src))))
              | None -> None)
          | Isa.Ioff (d, a) -> (
              match gf a with
              | Some v -> fold_i d (int_of_float v)
              | None -> None)
          | Isa.Fmov (d, a) -> (
              match gf a with Some v -> fold_f d v | None -> None)
          | Isa.Fbin (bop, d, a, b) when bop <> Isa.Fdiv -> (
              (* Fdiv is Sdivsqrt, not Sfp: folding it to Fconst would
                 change the instruction mix *)
              match (gf a, gf b) with
              | Some va, Some vb -> fold_f d (eval_fbin bop va vb)
              | _ -> None)
          | Isa.Fma (d, a, b, e) -> (
              match (gf a, gf b, gf e) with
              | Some va, Some vb, Some ve -> fold_f d ((va *. vb) +. ve)
              | _ -> None)
          | Isa.Funop (uop, d, a) -> (
              match uop with
              | Fneg | Fabs | Ffloor | Frsqrt -> (
                  match gf a with
                  | Some v ->
                      fold_f d
                        (match uop with
                        | Fneg -> -.v
                        | Fabs -> Float.abs v
                        | Ffloor -> Float.floor v
                        | _ -> 1. /. Float.sqrt v)
                  | None -> None)
              | Fsqrt | Fexp | Flog -> None (* Sdivsqrt/Smath class *))
          | Isa.Fselect (d, cond, a, b) -> (
              match gi cond with
              | Some v -> (
                  let src = if v <> 0 then a else b in
                  match gf src with
                  | Some vs -> fold_f d vs
                  | None ->
                      incr folded;
                      Some (dinstr (Isa.Fmov (d, src))))
              | None -> None)
          | Isa.Fofi (d, a) -> (
              match gi a with
              | Some v -> fold_f d (float_of_int v)
              | None -> None)
          | _ -> None)
      | Decode.Daddi { d; a; imm } -> (
          match Hashtbl.find_opt c.ki a with
          | Some va -> fold_i (Isa.Si d) (va + imm)
          | None -> None)
      | Decode.Dmuli { d; a; imm } -> (
          match Hashtbl.find_opt c.ki a with
          | Some va -> fold_i (Isa.Si d) (va * imm)
          | None -> None)
      | Decode.Dif { cond; else_ } -> (
          match Hashtbl.find_opt c.ki cond with
          | Some v ->
              incr branches;
              Some (Decode.Dgoto (if v <> 0 then i + 1 else else_))
          | None -> None)
      | Decode.Dwhile { cond; exit } -> (
          match Hashtbl.find_opt c.ki cond with
          | Some v ->
              incr branches;
              Some (Decode.Dgoto (if v <> 0 then i + 1 else exit))
          | None -> None)
      | _ -> None
    in
    (match op' with Some o -> code.(i) <- o | None -> ());
    let cur = code.(i) in
    consts_track c cur;
    if is_control cur then consts_reset c
  done;
  [ ("folded", !folded); ("branches", !branches) ]

(* ------------------------------------------------------------------ *)
(* moves: copy propagation (operand renaming only)                     *)

(* Rewrites *reads* of a register known to be a copy to read the copy's
   source instead — register contents are never changed, so every
   observable is trivially preserved. A read is never rewritten into a
   register the same op writes: per-lane vector execution and the
   post-write event emission of gathers make fresh intra-op aliasing
   observable, so we simply never introduce any. *)
let moves_pass _regs code =
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

let imm_pass _regs code =
  let specialized = ref 0 in
  let tgt = jump_targets code in
  let c = consts_create () in
  let ki r = Hashtbl.find_opt c.ki r in
  let len = Array.length code in
  for i = 0 to len - 1 do
    if tgt.(i) then consts_reset c;
    let op = code.(i) in
    let spec o =
      incr specialized;
      Some o
    in
    let op' =
      match op with
      | Decode.Dinstr { i = Isa.Ibin (bop, Si d, Si a, Si b); _ } -> (
          match (bop, ki a, ki b) with
          | _, Some _, Some _ -> None (* fully constant: fold's job *)
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
    if is_control cur then consts_reset c
  done;
  [ ("specialized", !specialized) ]

(* ------------------------------------------------------------------ *)
(* dce: dead defs -> phantoms, unreachable ops, phantom coalescing     *)

(* Pure single-write register ops that can never trap and touch no
   memory: the only ops a dead def may remove. [Idiv]/[Imod] (divisor),
   lane ops and every memory access stay. *)
let dce_candidate (i : Isa.instr) =
  match i with
  | Iconst _ | Fconst _ | Imov _ | Fmov _ | Fbin _ | Fma _ | Funop _
  | Icmp _ | Fcmp _ | Iselect _ | Fselect _ | Fofi _ | Ioff _
  | Vmovf _ | Vmovi _ | Vbroadcastf _ | Vbroadcasti _ | Viota _ | Vfbin _
  | Vfma _ | Vfunop _ | Vfcmp _ | Vicmp _ | Vselectf _ | Vselecti _
  | Vfofi _ | Vioff _ | Vreducef _ | Vreducei _
  | Mconst _ | Mpattern _ | Mfirst _ | Mnot _ | Mand _ | Mor _ | Many _
  | Mall _ | Mcount _ -> true
  | Ibin (op, _, _, _) | Vibin (op, _, _, _) -> (
      match op with Idiv | Imod -> false | _ -> true)
  | Vpermutef _ | Vextractf _ | Vinsertf _ (* lane traps / partial write *)
  | Loadf _ | Loadi _ | Storef _ | Storei _ | Vloadf _ | Vloadi _
  | Vloadf_strided _ | Vgatherf _ | Vgatheri _ | Vstoref _ | Vstoref_nt _
  | Vstorei _ | Vstoref_strided _ | Vscatterf _ | Vscatteri _ -> false

(* Writes that preserve part of the destination's prior contents (masked
   lanes, untouched lanes of a single-lane insert): the old value flows
   through the op, so backward liveness must treat the write as a read
   and never as a kill. *)
let dop_partial_write (op : Decode.dop) =
  match op with
  | Decode.Dinstr { i; _ } -> (
      match i with
      | Isa.Vinsertf _ -> true
      | Isa.Vloadf { mask = Some _; _ } | Isa.Vloadi { mask = Some _; _ } -> true
      | Isa.Vgatherf { mask = Some _; _ } | Isa.Vgatheri { mask = Some _; _ } ->
          true
      | _ -> false)
  | _ -> false

let dce_pass (regs : Isa.reg_counts) code =
  let dead = ref 0 and unreachable = ref 0 and coalesced = ref 0 in
  let len = Array.length code in
  (* 1. ops unreachable from pc 0 (constant-folded branches leave some):
     neutralize to Djmp so later passes and the flat checker see a plain
     op. Already-Djmp slots are left alone (keeps the pass idempotent). *)
  let reach = Array.make (len + 1) false in
  let stack = ref [ 0 ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        if i <= len && not reach.(i) then begin
          reach.(i) <- true;
          if i < len then
            let succs =
              match code.(i) with
              | Decode.Dfor { exit; _ } | Decode.Dwhile { exit; _ } ->
                  [ i + 1; exit ]
              | Decode.Dforback { body; _ } -> [ i + 1; body ]
              | Decode.Dif { else_; _ } -> [ i + 1; else_ ]
              | Decode.Djmp t | Decode.Dgoto t -> [ t ]
              | _ -> [ i + 1 ]
            in
            stack := succs @ !stack
        end
  done;
  for i = 0 to len - 1 do
    if not reach.(i) then
      match code.(i) with
      | Decode.Djmp _ -> ()
      | _ ->
          code.(i) <- Decode.Djmp (i + 1);
          incr unreachable
  done;
  (* 2. backward in-block liveness. Every register is live at each control
     op and at the phase end (register files persist across phases and are
     observable via on_states), so a def is dead only when a later op in
     the same straight-line run overwrites it with no intervening read. *)
  let live_si = Array.make (max regs.si 1) true in
  let live_sf = Array.make (max regs.sf 1) true in
  let live_vf = Array.make (max regs.vf 1) true in
  let live_vi = Array.make (max regs.vi 1) true in
  let live_vm = Array.make (max regs.vm 1) true in
  let all_live () =
    Array.fill live_si 0 (Array.length live_si) true;
    Array.fill live_sf 0 (Array.length live_sf) true;
    Array.fill live_vf 0 (Array.length live_vf) true;
    Array.fill live_vi 0 (Array.length live_vi) true;
    Array.fill live_vm 0 (Array.length live_vm) true
  in
  let set v = function
    | Verify.Osi (Isa.Si r) -> live_si.(r) <- v
    | Verify.Osf (Isa.Sf r) -> live_sf.(r) <- v
    | Verify.Ovf (Isa.Vf r) -> live_vf.(r) <- v
    | Verify.Ovi (Isa.Vi r) -> live_vi.(r) <- v
    | Verify.Ovm (Isa.Vm r) -> live_vm.(r) <- v
  in
  let is_live = function
    | Verify.Osi (Isa.Si r) -> live_si.(r)
    | Verify.Osf (Isa.Sf r) -> live_sf.(r)
    | Verify.Ovf (Isa.Vf r) -> live_vf.(r)
    | Verify.Ovi (Isa.Vi r) -> live_vi.(r)
    | Verify.Ovm (Isa.Vm r) -> live_vm.(r)
  in
  all_live ();
  for i = len - 1 downto 0 do
    let op = code.(i) in
    if is_control op then all_live ()
    else begin
      let candidate =
        match op with
        | Decode.Dinstr { i = instr; _ } -> dce_candidate instr
        | Decode.Daddi _ | Decode.Dmuli _ -> true
        | _ -> false
      in
      let writes = dop_writes op in
      match (candidate, writes) with
      | true, [ w ] when not (is_live w) ->
          let cls =
            match op with
            | Decode.Dinstr { cls; _ } -> cls
            | _ -> Isa.Salu (* Daddi/Dmuli *)
          in
          code.(i) <-
            Decode.Dphantom { cls; cls_idx = Isa.op_class_index cls; n = 1 };
          incr dead
      | _ ->
          if dop_partial_write op then List.iter (set true) writes
          else List.iter (set false) writes;
          List.iter (set true) (dop_reads op)
    end
  done;
  (* 3. coalesce adjacent same-class phantoms not entered from elsewhere:
     one phantom carries the whole count, the vacated slots become jumps
     past the run (only the first is ever executed). *)
  let tgt = jump_targets code in
  let i = ref 0 in
  while !i < len do
    (match code.(!i) with
    | Decode.Dphantom { cls; cls_idx; n } ->
        let j = ref (!i + 1) and total = ref n in
        let continue_run () =
          !j < len
          && (not tgt.(!j))
          &&
          match code.(!j) with
          | Decode.Dphantom { cls = cls'; _ } -> cls' = cls
          | _ -> false
        in
        while continue_run () do
          (match code.(!j) with
          | Decode.Dphantom { n = n'; _ } -> total := !total + n'
          | _ -> ());
          incr j
        done;
        if !j > !i + 1 then begin
          code.(!i) <- Decode.Dphantom { cls; cls_idx; n = !total };
          for k = !i + 1 to !j - 1 do
            code.(k) <- Decode.Djmp !j
          done;
          coalesced := !coalesced + (!j - !i - 1)
        end;
        i := !j
    | _ -> incr i)
  done;
  [ ("dead", !dead); ("unreachable", !unreachable); ("coalesced", !coalesced) ]

(* ------------------------------------------------------------------ *)
(* peephole: fuse adjacent mul+add pairs                               *)

let peephole_pass _regs code =
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
  | Fold -> fold_pass
  | Moves -> moves_pass
  | Imm -> imm_pass
  | Dce -> dce_pass
  | Peephole -> peephole_pass

let run_report ?(config = default) (d : Decode.t) : Decode.t * report =
  let phases =
    Array.map
      (fun (ph : Decode.phase) -> { ph with Decode.code = Array.copy ph.Decode.code })
      d.Decode.phases
  in
  let regs = d.Decode.prog.Isa.regs in
  let per_pass =
    List.map
      (fun p ->
        let stats =
          Array.fold_left
            (fun acc (ph : Decode.phase) ->
              let s = apply p regs ph.Decode.code in
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
