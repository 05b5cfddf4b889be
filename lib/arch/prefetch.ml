(* Each stream is packed into [flat] as [last; stride; confidence;
   older; newer] ([last] = [min_int] for a stream never allocated).
   Match selection is the first stream in table order within [window]
   of the line, by an early-exit scan; two side structures make a miss
   O(1):

   - [near], an occupancy filter: the number of stream heads whose
     [last asr 3] hashes to each bucket. A head within [window] (8) of a
     line is in the line's bucket or a neighbour (window <= 8 = the
     bucket width), so when those three counts are zero no stream can
     match and the table is not scanned;
   - an LRU list threaded through [older]/[newer] (flat offsets, -1 at
     the ends, [lru]/[mru] the ends), with each touched stream moved to
     the MRU end. The victim of an allocation is its LRU end: the least
     recently touched stream, with never-touched streams first, in
     index order. *)
type t = {
  flat : int array;
  near : int array;
  mutable lru : int;
  mutable mru : int;
}

(* words per stream in [flat] *)
let sw = 5

(* filter buckets; a power of two *)
let near_mask = 255

(* the empty state: no heads, LRU order = index order *)
let reset t =
  let d = t.flat in
  let n = Array.length d / sw in
  for k = 0 to n - 1 do
    let i = k * sw in
    d.(i) <- min_int;
    d.(i + 1) <- 0;
    d.(i + 2) <- 0;
    d.(i + 3) <- (if k = 0 then -1 else i - sw);
    d.(i + 4) <- (if k = n - 1 then -1 else i + sw)
  done;
  Array.fill t.near 0 (Array.length t.near) 0;
  t.lru <- 0;
  t.mru <- (n - 1) * sw

let create ~streams () =
  if streams < 1 then invalid_arg "Prefetch.create: streams < 1";
  let t =
    { flat = Array.make (streams * sw) 0; near = Array.make (near_mask + 1) 0; lru = 0; mru = 0 }
  in
  reset t;
  t

(* A stream matches if the access lands within a small window ahead of the
   stream head — real streamers tolerate slightly out-of-order accesses
   within a stream (e.g. the lines of one vector load). *)
let window = 8

(* Move stream [i] (a flat offset) to the MRU end of the LRU list. *)
let touch t i =
  if i <> t.mru then begin
    let d = t.flat in
    let older = d.(i + 3) and newer = d.(i + 4) in
    if older >= 0 then d.(older + 4) <- newer else t.lru <- newer;
    d.(newer + 3) <- older;
    d.(i + 3) <- t.mru;
    d.(i + 4) <- -1;
    d.(t.mru + 4) <- i;
    t.mru <- i
  end

(* Move stream [i]'s head to [line_addr], keeping [near] in step. *)
let move_head t i ~line_addr =
  let d = t.flat and near = t.near in
  let last = d.(i) in
  if last <> min_int then begin
    let b = (last asr 3) land near_mask in
    near.(b) <- near.(b) - 1
  end;
  let b = (line_addr asr 3) land near_mask in
  near.(b) <- near.(b) + 1;
  d.(i) <- line_addr

let observe t ~line_addr =
  let d = t.flat and near = t.near in
  let b = line_addr asr 3 in
  let idx = ref (-1) in
  if
    near.((b - 1) land near_mask) + near.(b land near_mask) + near.((b + 1) land near_mask)
    > 0
  then begin
    let n = Array.length d in
    let i = ref 0 in
    while !idx < 0 && !i < n do
      let last = Array.unsafe_get d !i in
      (* |line_addr - last| <= window, by one rarely-true test: off lsr 5
         is 0 only for 0 <= off < 32, and 2 * window < 32 *)
      let off = line_addr - last + window in
      if off lsr 5 = 0 && off <= 2 * window && last <> min_int then idx := !i
      else i := !i + sw
    done
  end;
  if !idx >= 0 then begin
    let i = !idx in
    let delta = line_addr - d.(i) in
    let stride = d.(i + 1) and confidence = d.(i + 2) in
    let covered = confidence >= 2 && (delta = stride || delta = 0) in
    if delta = 0 then ()
    else begin
      if delta = stride then
        d.(i + 2) <- (if confidence + 1 > 8 then 8 else confidence + 1)
      else begin
        d.(i + 1) <- delta;
        d.(i + 2) <- 1
      end;
      move_head t i ~line_addr
    end;
    touch t i;
    covered
  end
  else begin
    let i = t.lru in
    move_head t i ~line_addr;
    d.(i + 1) <- 0;
    d.(i + 2) <- 0;
    touch t i;
    false
  end

let consistent t =
  let d = t.flat in
  let n = Array.length d / sw in
  let near = Array.make (near_mask + 1) 0 in
  for k = 0 to n - 1 do
    let last = d.(k * sw) in
    if last <> min_int then begin
      let b = (last asr 3) land near_mask in
      near.(b) <- near.(b) + 1
    end
  done;
  (* walk the LRU list from its LRU end: every stream once, links mutual *)
  let seen = Array.make n false in
  let rec walk i older count =
    if i < 0 then older = t.mru && count = n
    else
      i mod sw = 0 && i / sw < n
      && (not seen.(i / sw))
      && d.(i + 3) = older
      && (seen.(i / sw) <- true;
          walk d.(i + 4) i (count + 1))
  in
  near = t.near && walk t.lru (-1) 0

