(* Buffer store backing a program run. Each declared buffer is bound to an
   OCaml array and assigned a page-aligned base address in a flat virtual
   address space, so the cache simulator sees realistic, non-overlapping
   addresses. Modeled element size is 4 bytes (the paper's kernels are
   single-precision / 32-bit), even though values are held in OCaml's native
   64-bit representations. *)

type buffer = Fbuf of float array | Ibuf of int array

type t = {
  decls : Isa.buffer_decl array;
  buffers : buffer array;
  bases : int array; (* modeled base byte address per buffer *)
}

exception Bad_binding of string

let page = 4096
let first_base = 0x100000

let buffer_length = function
  | Fbuf a -> Array.length a
  | Ibuf a -> Array.length a

let create (prog : Isa.program) bindings =
  let n = Array.length prog.buffers in
  let buffers =
    Array.map
      (fun (d : Isa.buffer_decl) ->
        match List.assoc_opt d.buf_name bindings with
        | None -> raise (Bad_binding ("missing buffer binding: " ^ d.buf_name))
        | Some (Fbuf _ as b) when d.elt = Isa.F32 -> b
        | Some (Ibuf _ as b) when d.elt = Isa.I32 -> b
        | Some _ ->
            raise (Bad_binding ("buffer " ^ d.buf_name ^ " bound with wrong element type")))
      prog.buffers
  in
  List.iter
    (fun (name, _) ->
      if not (Array.exists (fun (d : Isa.buffer_decl) -> d.buf_name = name) prog.buffers)
      then raise (Bad_binding ("binding for undeclared buffer: " ^ name)))
    bindings;
  let bases = Array.make n 0 in
  let next = ref first_base in
  for i = 0 to n - 1 do
    bases.(i) <- !next;
    let bytes = buffer_length buffers.(i) * 4 in
    next := !next + ((bytes + page - 1) / page + 1) * page
  done;
  { decls = prog.buffers; buffers; bases }

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

let check t (Isa.Buf b) idx =
  let len = buffer_length t.buffers.(b) in
  if idx < 0 || idx >= len then
    trap "out-of-bounds access: %s[%d] (length %d)" t.decls.(b).buf_name idx len

let get_f t (Isa.Buf b as buf) idx =
  check t buf idx;
  match t.buffers.(b) with
  | Fbuf a -> a.(idx)
  | Ibuf _ -> trap "type confusion reading %s as f32" t.decls.(b).buf_name

let get_i t (Isa.Buf b as buf) idx =
  check t buf idx;
  match t.buffers.(b) with
  | Ibuf a -> a.(idx)
  | Fbuf _ -> trap "type confusion reading %s as i32" t.decls.(b).buf_name

let set_f t (Isa.Buf b as buf) idx v =
  check t buf idx;
  match t.buffers.(b) with
  | Fbuf a -> a.(idx) <- v
  | Ibuf _ -> trap "type confusion writing %s as f32" t.decls.(b).buf_name

let set_i t (Isa.Buf b as buf) idx v =
  check t buf idx;
  match t.buffers.(b) with
  | Ibuf a -> a.(idx) <- v
  | Fbuf _ -> trap "type confusion writing %s as i32" t.decls.(b).buf_name

(* Bulk accessors for the decoded fast path: one bounds/type check per
   contiguous vector access instead of one per lane. When any lane would
   be out of bounds — or the buffer has the wrong element type — they fall
   back to the per-lane accessors, so trap messages, trap order, and
   partially-written destination lanes are identical to a lane-by-lane
   loop. *)
let get_f_block t (Isa.Buf b as buf) base dst w =
  match t.buffers.(b) with
  | Fbuf a when base >= 0 && base + w <= Array.length a -> Array.blit a base dst 0 w
  | _ ->
      for l = 0 to w - 1 do
        dst.(l) <- get_f t buf (base + l)
      done

let get_i_block t (Isa.Buf b as buf) base dst w =
  match t.buffers.(b) with
  | Ibuf a when base >= 0 && base + w <= Array.length a -> Array.blit a base dst 0 w
  | _ ->
      for l = 0 to w - 1 do
        dst.(l) <- get_i t buf (base + l)
      done

let set_f_block t (Isa.Buf b as buf) base src w =
  match t.buffers.(b) with
  | Fbuf a when base >= 0 && base + w <= Array.length a -> Array.blit src 0 a base w
  | _ ->
      for l = 0 to w - 1 do
        set_f t buf (base + l) src.(l)
      done

let set_i_block t (Isa.Buf b as buf) base src w =
  match t.buffers.(b) with
  | Ibuf a when base >= 0 && base + w <= Array.length a -> Array.blit src 0 a base w
  | _ ->
      for l = 0 to w - 1 do
        set_i t buf (base + l) src.(l)
      done

(* Compile-time views for pre-resolved accesses: the bound array and its
   modeled base address, or [None] for a buffer index out of range or an
   element type that does not match (those accesses stay on the checked
   path above, which traps). *)
let view_f t (Isa.Buf b) =
  if b < 0 || b >= Array.length t.buffers then None
  else match t.buffers.(b) with Fbuf a -> Some (a, t.bases.(b)) | Ibuf _ -> None

let view_i t (Isa.Buf b) =
  if b < 0 || b >= Array.length t.buffers then None
  else match t.buffers.(b) with Ibuf a -> Some (a, t.bases.(b)) | Fbuf _ -> None

let address t (Isa.Buf b) idx = t.bases.(b) + (idx * 4)

let length t (Isa.Buf b) = buffer_length t.buffers.(b)

let find t name =
  let rec go i =
    if i >= Array.length t.decls then raise Not_found
    else if t.decls.(i).buf_name = name then (Isa.Buf i, t.buffers.(i))
    else go (i + 1)
  in
  go 0

let total_bytes t =
  Array.fold_left (fun acc b -> acc + (buffer_length b * 4)) 0 t.buffers
