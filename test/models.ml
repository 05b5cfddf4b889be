(* Pure models of the cache hierarchy in [Ninja_arch], written from the
   documented policies alone and sharing no code with the library. The
   property tests run a library structure and its model side by side
   on one access stream and compare them access by access. *)

module Cache = Ninja_arch.Cache
module Hierarchy = Ninja_arch.Hierarchy

(* A set-associative write-back LRU cache: per set, an MRU-first list of
   (line, dirty). A miss puts the line in front and drops the last
   entry once the set holds more than [assoc] lines. *)
module Lru_model = struct
  type t = {
    assoc : int;
    sets : (int * bool ref) list ref array;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~n_sets ~assoc =
    { assoc; sets = Array.init n_sets (fun _ -> ref []); hits = 0; misses = 0 }

  let set m line_addr = m.sets.(line_addr mod Array.length m.sets)

  (* mirror of Cache.access: returns the same outcome record *)
  let access m ~line_addr ~write : Cache.outcome =
    let set = set m line_addr in
    match List.assoc_opt line_addr !set with
    | Some dirty ->
        m.hits <- m.hits + 1;
        if write then dirty := true;
        set := (line_addr, dirty) :: List.remove_assoc line_addr !set;
        { hit = true; evicted_dirty = None }
    | None ->
        m.misses <- m.misses + 1;
        let kept = (line_addr, ref write) :: !set in
        let evicted_dirty =
          if List.length kept <= m.assoc then None
          else
            match List.rev kept with
            | (victim, dirty) :: _ -> if !dirty then Some victim else None
            | [] -> assert false
        in
        set := List.filteri (fun i _ -> i < m.assoc) kept;
        { hit = false; evicted_dirty }

  let probe m ~line_addr = List.mem_assoc line_addr !(set m line_addr)
  let invalidate_all m = Array.iter (fun s -> s := []) m.sets

  let dirty_lines m =
    Array.fold_left
      (fun n s -> n + List.length (List.filter (fun (_, d) -> !d) !s))
      0 m.sets
end

(* The stride prefetcher's stream table. An access matches the first
   stream in table order whose head is within [window] lines of it; a
   match is covered once its stream has confidence 2 and the access
   repeats the head or continues the stride. With no match the victim
   is the least recently touched stream, never-touched ones first, in
   index order, and it restarts untrained at the line. *)
module Prefetch_model = struct
  type stream = { last : int; stride : int; confidence : int; touched : int }

  (* [None]: never allocated since creation or the last [reset];
     [touched] is the observation count at the stream's last use *)
  type t = { table : stream option array; mutable clock : int }

  let window = 8
  let create ~streams = { table = Array.make streams None; clock = 0 }

  let reset m =
    Array.fill m.table 0 (Array.length m.table) None;
    m.clock <- 0

  let observe m ~line_addr =
    m.clock <- m.clock + 1;
    let matches = function Some s -> abs (line_addr - s.last) <= window | None -> false in
    match Seq.find (fun i -> matches m.table.(i)) (Seq.init (Array.length m.table) Fun.id) with
    | Some i ->
        let s = Option.get m.table.(i) in
        let delta = line_addr - s.last in
        let covered = s.confidence >= 2 && (delta = 0 || delta = s.stride) in
        let s =
          if delta = 0 then s
          else if delta = s.stride then
            { s with last = line_addr; confidence = min 8 (s.confidence + 1) }
          else { s with last = line_addr; stride = delta; confidence = 1 }
        in
        m.table.(i) <- Some { s with touched = m.clock };
        covered
    | None ->
        let age i = match m.table.(i) with None -> 0 | Some s -> s.touched in
        let victim = ref 0 in
        Array.iteri (fun i _ -> if age i < age !victim then victim := i) m.table;
        m.table.(!victim) <-
          Some { last = line_addr; stride = 0; confidence = 0; touched = m.clock };
        false
end

(* The chip's memory system from the two models above: per core an L1,
   an L2 and a 32-stream prefetcher trained by L1 misses, one shared
   LLC. Writes mark the line dirty at every level they fill, so only
   LLC evictions and the final drain write back. A non-temporal store
   bypasses the caches and writes its bytes to DRAM without counting as
   an access. An access spanning several lines reports the deepest
   level any line reached, covered when every line that missed L1 was
   covered. *)
module Hierarchy_model = struct
  type core = { l1 : Lru_model.t; l2 : Lru_model.t; pf : Prefetch_model.t }

  type t = {
    machine : Ninja_arch.Machine.t;
    cores : core array;
    llc : Lru_model.t;
    mutable dram_read : int;
    mutable dram_write : int;
    by_level : int array; (* L1, L2, LLC, DRAM *)
  }

  let lru (c : Ninja_arch.Machine.cache_cfg) =
    Lru_model.create ~n_sets:(c.size_bytes / c.line_bytes / c.assoc) ~assoc:c.assoc

  let create (m : Ninja_arch.Machine.t) =
    {
      machine = m;
      cores =
        Array.init m.cores (fun _ ->
            { l1 = lru m.l1; l2 = lru m.l2; pf = Prefetch_model.create ~streams:32 });
      llc = lru m.llc;
      dram_read = 0;
      dram_write = 0;
      by_level = Array.make 4 0;
    }

  let line_bytes h = h.machine.l1.line_bytes
  let levels : Hierarchy.level array = [| L1; L2; LLC; Dram |]

  (* one line: (level index, covered) *)
  let access_line h c ~line_addr ~write =
    if (Lru_model.access c.l1 ~line_addr ~write).hit then (0, true)
    else begin
      let covered = h.machine.prefetch && Prefetch_model.observe c.pf ~line_addr in
      if (Lru_model.access c.l2 ~line_addr ~write).hit then (1, covered)
      else begin
        let r = Lru_model.access h.llc ~line_addr ~write in
        if r.evicted_dirty <> None then h.dram_write <- h.dram_write + line_bytes h;
        if not r.hit then h.dram_read <- h.dram_read + line_bytes h;
        ((if r.hit then 2 else 3), covered)
      end
    end

  let access h ~core ~addr ~bytes ~write ~nt : Hierarchy.result =
    if nt && write then begin
      h.dram_write <- h.dram_write + bytes;
      { level = Dram; covered = true }
    end
    else begin
      let first = addr / line_bytes h and last = (addr + bytes - 1) / line_bytes h in
      let lines =
        List.init (last - first + 1) (fun k ->
            access_line h h.cores.(core) ~line_addr:(first + k) ~write)
      in
      let deepest = List.fold_left (fun d (l, _) -> max d l) 0 lines in
      h.by_level.(deepest) <- h.by_level.(deepest) + 1;
      { level = levels.(deepest); covered = List.for_all (fun (l, c) -> l = 0 || c) lines }
    end

  let accesses h (level : Hierarchy.level) =
    h.by_level.(match level with L1 -> 0 | L2 -> 1 | LLC -> 2 | Dram -> 3)

  let drain_writebacks h =
    h.dram_write <- h.dram_write + (Lru_model.dirty_lines h.llc * line_bytes h)

  let reset h =
    Array.iter
      (fun c ->
        Lru_model.invalidate_all c.l1;
        Lru_model.invalidate_all c.l2;
        Prefetch_model.reset c.pf)
      h.cores;
    Lru_model.invalidate_all h.llc;
    h.dram_read <- 0;
    h.dram_write <- 0;
    Array.fill h.by_level 0 4 0

  (* same per-level counts and DRAM traffic as [hier] *)
  let agrees h hier =
    h.dram_read = Hierarchy.dram_read_bytes hier
    && h.dram_write = Hierarchy.dram_write_bytes hier
    && Array.for_all (fun l -> accesses h l = Hierarchy.accesses hier l) levels
end
