type cfg = Machine.cache_cfg

(* Two interchangeable storage layouts, selected at [create] time:

   - the reference layout keeps per-way state in four parallel arrays
     (tags/valid/dirty/stamp) and walks a set twice on a miss — the
     original implementation, kept as the honest baseline the
     self-benchmark measures against;
   - the fast layout interleaves two words per way, [tag'; stamp], so one
     set probe touches a single contiguous block (a 16-way set is 256
     bytes instead of 4 scattered regions — the difference between one and
     many host-cache misses when simulating a multi-megabyte LLC), finds
     hit way, first invalid way and LRU victim in a single pass, and
     carries an MRU memo for same-line repeat hits. [tag'] is [-1] when
     the way is invalid, else [line_addr lsl 1 lor dirty].

   Both layouts implement identical LRU and victim selection (first
   invalid way, else first way with the minimal stamp) and produce
   identical hit/miss/eviction sequences. *)
type t = {
  cfg : cfg;
  n_sets : int;
  set_mask : int; (* n_sets - 1 when a power of two, else -1 *)
  (* reference layout: flat arrays indexed by set * assoc + way *)
  tags : int array;
  valid : bool array;
  dirty : bool array;
  stamp : int array; (* LRU timestamp *)
  (* fast layout: set * assoc * 2 + way * 2 -> tag', +1 -> stamp *)
  data : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  (* MRU memo for the fast-hit path: the line and fast-layout index
     touched by the most recent access, or last_way = -1 when unknown.
     The most recently touched line cannot have been evicted since (it
     holds the newest LRU stamp), so a repeat access is an unconditional
     hit at that way. *)
  mutable last_line : int;
  mutable last_way : int;
  fast : bool;
}

type outcome = { hit : bool; evicted_dirty : int option }

(* Preallocated outcomes for the two no-eviction cases, so steady-state
   accesses allocate nothing. *)
let hit_clean = { hit = true; evicted_dirty = None }
let miss_clean = { hit = false; evicted_dirty = None }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(fast_path = true) (cfg : cfg) =
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
    tags = (if fast_path then [||] else Array.make n 0);
    valid = (if fast_path then [||] else Array.make n false);
    dirty = (if fast_path then [||] else Array.make n false);
    stamp = (if fast_path then [||] else Array.make n 0);
    data = (if fast_path then Array.make (n * 2) (-1) else [||]);
    clock = 0;
    hits = 0;
    misses = 0;
    last_line = 0;
    last_way = -1;
    fast = fast_path;
  }

let line_bytes t = t.cfg.line_bytes
let sets t = t.n_sets
let assoc t = t.cfg.assoc

(* The stored tag is the full line address (the set index bits are
   redundant but harmless, and eviction reporting stays trivial). *)
let set_of t line_addr = line_addr mod t.n_sets

let access_ref t ~line_addr ~write =
  t.clock <- t.clock + 1;
  let set = set_of t line_addr in
  let base = set * t.cfg.assoc in
  let found = ref (-1) in
  for w = 0 to t.cfg.assoc - 1 do
    let i = base + w in
    if t.valid.(i) && t.tags.(i) = line_addr then found := i
  done;
  if !found >= 0 then begin
    let i = !found in
    t.hits <- t.hits + 1;
    t.stamp.(i) <- t.clock;
    if write then t.dirty.(i) <- true;
    hit_clean
  end
  else begin
    t.misses <- t.misses + 1;
    (* victim: first invalid way, else LRU *)
    let victim = ref base in
    let best = ref max_int in
    (try
       for w = 0 to t.cfg.assoc - 1 do
         let i = base + w in
         if not t.valid.(i) then begin
           victim := i;
           raise Exit
         end;
         if t.stamp.(i) < !best then begin
           best := t.stamp.(i);
           victim := i
         end
       done
     with Exit -> ());
    let i = !victim in
    let evicted_dirty =
      if t.valid.(i) && t.dirty.(i) then Some t.tags.(i) else None
    in
    t.tags.(i) <- line_addr;
    t.valid.(i) <- true;
    t.dirty.(i) <- write;
    t.stamp.(i) <- t.clock;
    match evicted_dirty with
    | None -> miss_clean
    | Some _ -> { hit = false; evicted_dirty }
  end

(* The one hit path of the fast layout, split out so the hierarchy can
   try an L1 hit before committing to the full access. A repeat of the
   previous access's line hits at the memoized way (the most recently
   touched line holds the newest stamp, so it cannot have been evicted);
   otherwise the set is scanned, and the scan stops at the first match: a
   line lives in at most one way, and ORing the dirty bit into both sides
   makes one compare cover the tag test and the invalid (-1) test at once
   (line addresses are non-negative, so [tag' lor 1] of a valid way never
   equals -1). A hit makes all of the access's clock, stamp, dirty, MRU
   and statistics updates; a miss touches nothing. The reference layout
   has no probe: it always declines. *)
let try_hit t ~line_addr ~write =
  t.fast
  &&
  let d = t.data in
  if t.last_way >= 0 && t.last_line = line_addr then begin
    t.clock <- t.clock + 1;
    t.hits <- t.hits + 1;
    d.(t.last_way + 1) <- t.clock;
    if write then d.(t.last_way) <- d.(t.last_way) lor 1;
    true
  end
  else begin
    let set =
      if t.set_mask >= 0 then line_addr land t.set_mask else line_addr mod t.n_sets
    in
    let assoc2 = t.cfg.assoc * 2 in
    let base = set * assoc2 in
    let probe = (line_addr lsl 1) lor 1 in
    let found = ref (-1) in
    let i = ref base in
    let stop = base + assoc2 in
    while !found < 0 && !i < stop do
      if Array.unsafe_get d !i lor 1 = probe then found := !i;
      i := !i + 2
    done;
    !found >= 0
    && begin
      let i = !found in
      t.clock <- t.clock + 1;
      t.hits <- t.hits + 1;
      d.(i + 1) <- t.clock;
      if write then d.(i) <- d.(i) lor 1;
      t.last_line <- line_addr;
      t.last_way <- i;
      true
    end
  end

(* The fast layout's miss: fill the line into the first invalid way, else
   the first way with the minimal stamp. Only valid after [try_hit] said
   no. *)
let fill_fast t ~line_addr ~write =
  t.clock <- t.clock + 1;
  t.misses <- t.misses + 1;
  let set =
    if t.set_mask >= 0 then line_addr land t.set_mask else line_addr mod t.n_sets
  in
  let assoc2 = t.cfg.assoc * 2 in
  let base = set * assoc2 in
  let stop = base + assoc2 in
  let d = t.data in
  let first_invalid = ref (-1) in
  let lru = ref (-1) in
  let best = ref max_int in
  let i = ref base in
  while !first_invalid < 0 && !i < stop do
    if Array.unsafe_get d !i = -1 then first_invalid := !i
    else begin
      let s = Array.unsafe_get d (!i + 1) in
      if s < !best then begin
        best := s;
        lru := !i
      end
    end;
    i := !i + 2
  done;
  let i = if !first_invalid >= 0 then !first_invalid else !lru in
  let tg = d.(i) in
  let evicted_dirty = if tg <> -1 && tg land 1 = 1 then Some (tg asr 1) else None in
  d.(i) <- (line_addr lsl 1) lor (if write then 1 else 0);
  d.(i + 1) <- t.clock;
  t.last_line <- line_addr;
  t.last_way <- i;
  match evicted_dirty with
  | None -> miss_clean
  | Some _ -> { hit = false; evicted_dirty }

let fill t ~line_addr ~write =
  if t.fast then fill_fast t ~line_addr ~write else access_ref t ~line_addr ~write

let access t ~line_addr ~write =
  if try_hit t ~line_addr ~write then hit_clean else fill t ~line_addr ~write

let probe t ~line_addr =
  if t.fast then begin
    let set =
      if t.set_mask >= 0 then line_addr land t.set_mask else line_addr mod t.n_sets
    in
    let assoc2 = t.cfg.assoc * 2 in
    let base = set * assoc2 in
    let found = ref false in
    let i = ref base in
    while !i < base + assoc2 do
      let tg = t.data.(!i) in
      if tg <> -1 && tg asr 1 = line_addr then found := true;
      i := !i + 2
    done;
    !found
  end
  else begin
    let set = set_of t line_addr in
    let base = set * t.cfg.assoc in
    let found = ref false in
    for w = 0 to t.cfg.assoc - 1 do
      let i = base + w in
      if t.valid.(i) && t.tags.(i) = line_addr then found := true
    done;
    !found
  end

let invalidate_all t =
  if t.fast then Array.fill t.data 0 (Array.length t.data) (-1)
  else begin
    Array.fill t.valid 0 (Array.length t.valid) false;
    Array.fill t.dirty 0 (Array.length t.dirty) false
  end;
  t.last_way <- -1

let stats_hits t = t.hits
let stats_misses t = t.misses

let dirty_lines t =
  let n = ref 0 in
  if t.fast then begin
    let d = t.data in
    let i = ref 0 in
    while !i < Array.length d do
      let tg = d.(!i) in
      if tg <> -1 && tg land 1 = 1 then incr n;
      i := !i + 2
    done
  end
  else
    for i = 0 to Array.length t.valid - 1 do
      if t.valid.(i) && t.dirty.(i) then incr n
    done;
  !n

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
