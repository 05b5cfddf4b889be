type level = L1 | L2 | LLC | Dram

type result = { level : level; covered : bool }

type core_caches = { l1 : Cache.t; l2 : Cache.t; pf : Prefetch.t }

type t = {
  machine : Machine.t;
  cores : core_caches array;
  llc : Cache.t;
  line_shift : int; (* log2 line_bytes: addr-to-line is a shift, not a division *)
  mutable dram_read : int;
  mutable dram_write : int;
  by_level : int array; (* accesses whose deepest level was L1/L2/LLC/DRAM *)
}

let level_index = function L1 -> 0 | L2 -> 1 | LLC -> 2 | Dram -> 3
let level_name = function L1 -> "L1" | L2 -> "L2" | LLC -> "LLC" | Dram -> "DRAM"

(* Results are immutable; preallocate the eight (level, covered)
   combinations so the per-access path allocates nothing. *)
let result_tbl =
  Array.init 8 (fun i ->
      let level = match i / 2 with 0 -> L1 | 1 -> L2 | 2 -> LLC | _ -> Dram in
      { level; covered = i land 1 = 1 })

let mk_result level covered =
  result_tbl.((level_index level * 2) + if covered then 1 else 0)

let create (m : Machine.t) =
  {
    machine = m;
    cores =
      Array.init m.cores (fun _ ->
          {
            l1 = Cache.create m.l1;
            l2 = Cache.create m.l2;
            pf = Prefetch.create ~streams:32 ();
          });
    llc = Cache.create m.llc;
    line_shift =
      (let s = ref 0 in
       while 1 lsl !s < m.l1.line_bytes do incr s done;
       !s);
    dram_read = 0;
    dram_write = 0;
    by_level = Array.make 4 0;
  }

let line_bytes t = t.machine.l1.line_bytes

(* One cache-line access. Returns [level_index * 2 + covered] — an
   immediate int rather than a tuple, so the per-line path allocates
   nothing. L1 tries the way-predicted hit first, then its one-pass
   access. Write-back dirty state is propagated down at fill time so
   that LLC evictions of written lines generate DRAM write-back
   traffic. *)
let access_line t ~core ~line_addr ~write =
  let c = t.cores.(core) in
  if Cache.try_hit c.l1 ~line_addr ~write || (Cache.access c.l1 ~line_addr ~write).hit
  then 0 (* L1; covered is reported separately for L1 hits *)
  else begin
    let covered =
      t.machine.prefetch && Prefetch.observe c.pf ~line_addr
    in
    let l2r = Cache.access c.l2 ~line_addr ~write in
    if l2r.hit then (if covered then 3 else 2)
    else begin
      let llcr = Cache.access t.llc ~line_addr ~write in
      (match llcr.evicted_dirty with
      | Some _ -> t.dram_write <- t.dram_write + line_bytes t
      | None -> ());
      if llcr.hit then (if covered then 5 else 4)
      else begin
        t.dram_read <- t.dram_read + line_bytes t;
        if covered then 7 else 6
      end
    end
  end

let access t ~core ~addr ~bytes ~write ~nt =
  if nt && write then begin
    (* streaming store: write-combining buffers send full lines to DRAM
       without reading them first *)
    t.dram_write <- t.dram_write + bytes;
    mk_result Dram true
  end
  else begin
    let sh = t.line_shift in
    let first = addr lsr sh and last = (addr + bytes - 1) lsr sh in
    let deepest = ref 0 in
    let all_covered = ref true in
    for line_addr = first to last do
      let code = access_line t ~core ~line_addr ~write in
      let li = code lsr 1 in
      if li > !deepest then deepest := li;
      if li <> 0 && code land 1 = 0 then all_covered := false
    done;
    let li = !deepest in
    let covered = li = 0 || !all_covered in
    t.by_level.(li) <- t.by_level.(li) + 1;
    result_tbl.((li * 2) + if covered then 1 else 0)
  end

let hit_port t rest =
  Cache.hit_port (Array.map (fun c -> c.l1) t.cores) ~hits:t.by_level rest

(* Steady-state accounting: dirty lines still resident at the end of a
   measurement will eventually be written back; drain them into the DRAM
   write counter. Dirty state is propagated to the LLC at fill time, so the
   LLC's dirty lines cover the private caches'. *)
let drain_writebacks t =
  t.dram_write <- t.dram_write + (Cache.dirty_lines t.llc * line_bytes t)

let dram_read_bytes t = t.dram_read
let dram_write_bytes t = t.dram_write
let accesses t level = t.by_level.(level_index level)

let reset t =
  Array.iter
    (fun c ->
      Cache.invalidate_all c.l1;
      Cache.invalidate_all c.l2;
      Cache.reset_stats c.l1;
      Cache.reset_stats c.l2;
      Prefetch.reset c.pf)
    t.cores;
  Cache.invalidate_all t.llc;
  Cache.reset_stats t.llc;
  t.dram_read <- 0;
  t.dram_write <- 0;
  Array.fill t.by_level 0 4 0
