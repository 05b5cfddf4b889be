type cfg = Machine.cache_cfg

(* Per-way state is two interleaved words, [tag'; stamp], so one set
   probe touches a single contiguous block (a 16-way set is 256 bytes,
   which keeps host-cache misses down when simulating a multi-megabyte
   LLC). [tag'] is [-1] when the way is invalid, else
   [line_addr lsl 1 lor dirty]. Ways are only ever invalidated all at
   once, and a fill takes the first invalid way, so the valid ways of a
   set are always a prefix of it: one pass finds the hit, or stops at
   the first invalid way, while tracking the LRU victim (the first way
   with the minimal stamp). A way predictor remembers, per hash of the
   line address, the way that last held such a line, so a predicted hit
   is one tag compare. *)
type t = {
  cfg : cfg;
  n_sets : int;
  set_mask : int; (* n_sets - 1 when a power of two, else -1 *)
  line_shift : int; (* log2 line_bytes *)
  (* set * assoc * 2 + way * 2 -> tag', +1 -> stamp *)
  data : int array;
  (* the way predictor: [pred.(pred_slot line_addr)] is the [data]
     index of the way that last held a line with that hash. A line
     lives in at most one way, so when that way's tag is the line's,
     the line is there; any other entry (stale, aliased, never written:
     0 is a valid index) just fails the compare. *)
  pred : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

type outcome = { hit : bool; evicted_dirty : int option }

(* Preallocated outcomes for the two no-eviction cases, so steady-state
   accesses allocate nothing. *)
let hit_clean = { hit = true; evicted_dirty = None }
let miss_clean = { hit = false; evicted_dirty = None }

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* The predictor has 512 entries whatever the geometry (4 KiB per cache,
   one per line of a 32 KiB L1). Folding the next 9 address bits into
   the index keeps lines 32 KiB apart, such as the same element of
   buffers at aligned addresses, in different entries. *)
let pred_mask = 511
let pred_slot line_addr = (line_addr lxor (line_addr lsr 9)) land pred_mask

let create (cfg : cfg) =
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines < cfg.assoc then invalid_arg "Cache.create: fewer lines than ways";
  let n_sets = lines / cfg.assoc in
  (* set counts need not be powers of two (e.g. a 12 MiB LLC) *)
  if not (is_pow2 cfg.line_bytes) then invalid_arg "Cache.create: line size must be a power of two";
  let n = n_sets * cfg.assoc in
  {
    cfg;
    n_sets;
    set_mask = (if is_pow2 n_sets then n_sets - 1 else -1);
    line_shift = (let s = ref 0 in while 1 lsl !s < cfg.line_bytes do incr s done; !s);
    data = Array.make (n * 2) (-1);
    pred = Array.make (pred_mask + 1) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let line_bytes t = t.cfg.line_bytes
let sets t = t.n_sets
let assoc t = t.cfg.assoc

(* The hit path: a way-predicted hit, one tag compare at the predicted
   way (ORing the dirty bit into both sides makes it cover the tag test
   and the invalid (-1) test at once: line addresses are non-negative,
   so [tag' lor 1] of a valid way never equals -1). A hit makes all of
   the access's clock, stamp, dirty and statistics updates; otherwise
   nothing changes, whether or not the line is cached. *)
let[@inline] try_hit t ~line_addr ~write =
  let d = t.data in
  let i = Array.unsafe_get t.pred (pred_slot line_addr) in
  Array.unsafe_get d i lor 1 = (line_addr lsl 1) lor 1
  && begin
    t.clock <- t.clock + 1;
    t.hits <- t.hits + 1;
    Array.unsafe_set d (i + 1) t.clock;
    if write then Array.unsafe_set d i (Array.unsafe_get d i lor 1);
    true
  end

(* The [data] index of [line_addr]'s set. The stored tag is the full
   line address (the set index bits are redundant but harmless, and
   eviction reporting stays trivial). *)
let[@inline] set_base t line_addr =
  let set =
    if t.set_mask >= 0 then line_addr land t.set_mask else line_addr mod t.n_sets
  in
  set * t.cfg.assoc * 2

(* One pass over the set that stops at the hit or at the first invalid
   way (the valid ways are a prefix), tracking the first way with the
   minimal stamp as the victim for a full set. *)
let access t ~line_addr ~write =
  t.clock <- t.clock + 1;
  let base = set_base t line_addr in
  let stop = base + (t.cfg.assoc * 2) in
  let d = t.data in
  let probe = (line_addr lsl 1) lor 1 in
  let at = ref (-1) in
  let lru = ref base in
  let best = ref max_int in
  let i = ref base in
  while !at < 0 && !i < stop do
    let tg = Array.unsafe_get d !i in
    if tg = -1 || tg lor 1 = probe then at := !i
    else begin
      (* if s < best then (best, lru) := (s, i), without a branch the
         host cannot predict: [older] is all ones exactly when s < best
         (stamps are non-negative, so the difference cannot overflow) *)
      let s = Array.unsafe_get d (!i + 1) in
      let older = (s - !best) asr 62 in
      best := !best + ((s - !best) land older);
      lru := !lru + ((!i - !lru) land older);
      i := !i + 2
    end
  done;
  Array.unsafe_set t.pred (pred_slot line_addr) (if !at >= 0 then !at else !lru);
  if !at >= 0 && Array.unsafe_get d !at <> -1 then begin
    let i = !at in
    t.hits <- t.hits + 1;
    d.(i + 1) <- t.clock;
    if write then d.(i) <- d.(i) lor 1;
    hit_clean
  end
  else begin
    let i = if !at >= 0 then !at else !lru in
    t.misses <- t.misses + 1;
    let tg = d.(i) in
    d.(i) <- (line_addr lsl 1) lor (if write then 1 else 0);
    d.(i + 1) <- t.clock;
    if tg <> -1 && tg land 1 = 1 then { hit = false; evicted_dirty = Some (tg asr 1) }
    else miss_clean
  end

(* The L1 stage of the timing model's access port, defined here so that
   the hit probe above is a direct, inlined call: a single-line access
   that is not a non-temporal store and hits its core's L1 as predicted
   is finished in this unit; every other access goes on to [rest]. (The
   [let] also keeps the port a closure of its own six arguments rather
   than a partial application of a nine-argument function.) *)
let hit_port l1s ~hits rest : Ninja_vm.Event.port =
  let line_shift = l1s.(0).line_shift in
  fun ~thread ~addr ~bytes ~write ~chain ~nt ->
  let line_addr = addr lsr line_shift in
  if
    (nt && write)
    || line_addr <> (addr + bytes - 1) lsr line_shift
    || not (try_hit l1s.(thread) ~line_addr ~write)
  then rest ~thread ~addr ~bytes ~write ~chain ~nt
  else hits.(0) <- hits.(0) + 1

let probe t ~line_addr =
  let base = set_base t line_addr in
  let found = ref false in
  let i = ref base in
  while !i < base + (t.cfg.assoc * 2) do
    let tg = t.data.(!i) in
    if tg <> -1 && tg asr 1 = line_addr then found := true;
    i := !i + 2
  done;
  !found

let invalidate_all t = Array.fill t.data 0 (Array.length t.data) (-1)

let stats_hits t = t.hits
let stats_misses t = t.misses

let dirty_lines t =
  let n = ref 0 in
  let d = t.data in
  let i = ref 0 in
  while !i < Array.length d do
    let tg = d.(!i) in
    if tg <> -1 && tg land 1 = 1 then incr n;
    i := !i + 2
  done;
  !n

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
