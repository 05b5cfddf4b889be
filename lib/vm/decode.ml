(* Pre-decode pass: flatten a structured Isa.program into contiguous arrays
   of resolved operations, the input of Compile.

   The tree walker re-traverses statement lists, re-reads register wrappers
   and re-classifies every instruction on each dynamic execution. Decoding
   does that work once per program:

   - every straight-line instruction is stored with its op class
     pre-classified;
   - structured control flow ([For]/[While]/[If]) becomes conditional
     jumps with absolute targets inside one flat [dop array] per phase;
   - [For] headers get a dense [id] into per-activation state arrays (the
     compiled code reads [lo]/[hi]/[step] once at entry, exactly like the
     tree walker), valid because a given [For] op cannot be re-entered
     before it exits (the ISA has no calls or gotos);
   - [Region] markers become paired enter/exit ops carrying their
     pre-built {!Trace.scope} value, so the profiling hooks allocate
     nothing per encounter.

   Decoding performs no semantic transformation: [Interp.Compiled]
   executes a decoded program with bit-identical
   registers, memory, {!Counts} and event streams to the tree walker
   (property-tested in test/test_fastpath.ml, and pinned suite-wide by
   the experiments golden). *)

type dop =
  | Dinstr of { i : Isa.instr; cls : Isa.op_class; cls_idx : int }
  | Dfor of { idx : int; lo : int; hi : int; step : int; id : int; exit : int }
  | Dforback of { idx : int; id : int; body : int }
  | Dwhile of { cond : int; exit : int }
  | Dif of { cond : int; else_ : int }
  | Djmp of int
  | Denter of Trace.scope
  | Dexit of Trace.scope

type phase = { parallel : bool; code : dop array }

type t = { prog : Isa.program; phases : phase array; n_fors : int }

(* Growable op buffer with back-patching (jump targets are only known once
   the enclosed block has been decoded). *)
type buf = { mutable ops : dop array; mutable len : int }

let push b op =
  if b.len = Array.length b.ops then begin
    let bigger = Array.make (2 * Array.length b.ops) (Djmp 0) in
    Array.blit b.ops 0 bigger 0 b.len;
    b.ops <- bigger
  end;
  b.ops.(b.len) <- op;
  b.len <- b.len + 1;
  b.len - 1

let patch b i op = b.ops.(i) <- op

let decode (p : Isa.program) : t =
  let n_fors = ref 0 in
  let decode_block block =
    let b = { ops = Array.make 64 (Djmp 0); len = 0 } in
    let rec go_block blk = List.iter go_stmt blk
    and go_stmt = function
      | Isa.I i ->
          let cls = Isa.classify i in
          ignore (push b (Dinstr { i; cls; cls_idx = Isa.op_class_index cls }) : int)
      | Isa.For { idx = Si idx; lo = Si lo; hi = Si hi; step = Si step; body } ->
          let id = !n_fors in
          incr n_fors;
          let head = push b (Djmp 0) in
          go_block body;
          let back = push b (Dforback { idx; id; body = head + 1 }) in
          patch b head (Dfor { idx; lo; hi; step; id; exit = back + 1 })
      | Isa.While { cond_block; cond = Si cond; body } ->
          let cond_start = b.len in
          go_block cond_block;
          let test = push b (Djmp 0) in
          go_block body;
          let jump_back = push b (Djmp cond_start) in
          patch b test (Dwhile { cond; exit = jump_back + 1 })
      | Isa.If { cond = Si cond; then_; else_ } ->
          let branch = push b (Djmp 0) in
          go_block then_;
          if else_ = [] then patch b branch (Dif { cond; else_ = b.len })
          else begin
            let skip_else = push b (Djmp 0) in
            go_block else_;
            patch b branch (Dif { cond; else_ = skip_else + 1 });
            patch b skip_else (Djmp b.len)
          end
      | Isa.Region { label; body } ->
          let scope = Trace.Loop label in
          ignore (push b (Denter scope) : int);
          go_block body;
          ignore (push b (Dexit scope) : int)
    in
    go_block block;
    Array.sub b.ops 0 b.len
  in
  let phases =
    List.map
      (function
        | Isa.Par blk -> { parallel = true; code = decode_block blk }
        | Isa.Seq blk -> { parallel = false; code = decode_block blk })
      p.phases
    |> Array.of_list
  in
  { prog = p; phases; n_fors = !n_fors }

let size t =
  Array.fold_left (fun acc ph -> acc + Array.length ph.code) 0 t.phases

(* The decoded form is pure data (variants, ints, floats, strings,
   arrays — no closures), so a no-sharing Marshal of it is a canonical
   byte string: the content-addressed result store digests exactly what
   the interpreter will execute. Buffer declarations and register counts
   are included because they shape memory binding and validation. *)
let fingerprint t =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (t.prog.Isa.prog_name, t.prog.Isa.buffers, t.prog.Isa.regs,
           t.n_fors, t.phases)
          [ Marshal.No_sharing ]))
