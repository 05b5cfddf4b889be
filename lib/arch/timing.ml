open Ninja_vm

type bound = Compute | Bandwidth | Latency

type report = {
  machine : Machine.t;
  n_threads : int;
  cycles : float;
  seconds : float;
  issue_cycles : float;
  stall_cycles : float;
  dram_time : float;
  overhead_cycles : float;
  dram_read_bytes : int;
  dram_write_bytes : int;
  counts : Counts.t;
  instructions : int;
  level_accesses : (Hierarchy.level * int) list;
  bound : bound;
}

(* Port-model issue time for one thread: each class is priced with its
   reciprocal throughput and binned onto the port that executes it; the
   thread is also limited by the front-end issue width. *)
let issue_time (m : Machine.t) counts ~thread =
  let c cls = float_of_int (Counts.thread_count counts ~thread cls) in
  let cost cls = m.issue_cost cls in
  let alu = (c Salu *. cost Salu) +. (c Valu *. cost Valu) +. (c Vmask *. cost Vmask) in
  let fp =
    (c Sfp *. cost Sfp) +. (c Vfp *. cost Vfp)
    +. (c Sdivsqrt *. cost Sdivsqrt)
    +. (c Vdivsqrt *. cost Vdivsqrt)
    +. (c Smath *. cost Smath) +. (c Vmath *. cost Vmath)
    +. (c Vshuf *. cost Vshuf)
  in
  let mem =
    (c Sload *. cost Sload) +. (c Sstore *. cost Sstore)
    +. (c Vload *. cost Vload) +. (c Vstore *. cost Vstore)
    +. ((c Vgather +. c Vscatter) *. Machine.gather_cost m)
  in
  let br = c Branch *. cost Branch in
  let slots = float_of_int (Counts.per_thread_total counts ~thread) in
  let front_end = slots /. float_of_int m.issue_width in
  List.fold_left Float.max front_end [ alu; fp; mem; br ]

let trace_level : Hierarchy.level -> Trace.level = function
  | L1 -> Trace.L1
  | L2 -> Trace.L2
  | LLC -> Trace.LLC
  | Dram -> Trace.Dram

(* Stall cycles charged for an access that reached [level] uncovered:
   the level's latency, hidden by memory-level parallelism unless the
   access is part of a dependent chain. *)
let level_penalty (m : Machine.t) (level : Hierarchy.level) =
  match level with
  | L1 -> 0.
  | L2 -> float_of_int m.l2.latency
  | LLC -> float_of_int m.llc.latency
  | Dram -> float_of_int m.dram_latency

let stall_port (m : Machine.t) hier stalls : Event.port =
  let mlp = float_of_int m.mlp in
  let penalty = Array.map (level_penalty m) Hierarchy.[| L1; L2; LLC; Dram |] in
  fun ~thread ~addr ~bytes ~write ~chain ~nt ->
    (* n_threads <= m.cores is enforced by [simulate]: core = thread *)
    let r = Hierarchy.access hier ~core:thread ~addr ~bytes ~write ~nt in
    if not r.covered then begin
      let p =
        Array.unsafe_get penalty
          (match r.level with L1 -> 0 | L2 -> 1 | LLC -> 2 | Dram -> 3)
      in
      let s = if chain then p else p /. mlp in
      stalls.(thread) <- stalls.(thread) +. s
    end

exception Exceeds

(* The dynamic-instruction budget under which a run with more
   instructions provably models more than [max_cycles]: [None] when no
   realistic run could reach it. The modeled cycles are at least every
   thread's issue time, which is at least its front-end time
   slots / width, and the busiest of [n] threads has at least
   ceil(total / n) slots. So a run of k instructions costs more than
   [max_cycles] once ceil(k / n) / width does, evaluated with the very
   float division [issue_time] performs (what is added to it later is
   non-negative, and rounding is monotone). The start point is
   floor(max_cycles * width * n); the loop only corrects float rounding,
   by a step or two. *)
let instruction_budget (m : Machine.t) ~n_threads max_cycles =
  if Float.is_nan max_cycles then invalid_arg "Timing.simulate: max_cycles is NaN";
  let w = float_of_int m.issue_width in
  let p = Float.max 0. max_cycles *. w *. float_of_int n_threads in
  if not (p < 0x1p52) then None
  else begin
    let provably_over k =
      float_of_int ((k + n_threads - 1) / n_threads) /. w > max_cycles
    in
    let k = ref (int_of_float p + 1) in
    while not (provably_over !k) do incr k done;
    Some (!k - 1)
  end

let simulate ~machine ?(n_threads = 1) ?(runs = 1) ?prepare ?trace ?strategy ?fast_path
    ?max_cycles prog mem =
  let m : Machine.t = machine in
  if n_threads > m.cores then
    invalid_arg
      (Fmt.str "Timing.simulate: %d threads on %d cores (%s)" n_threads m.cores m.name);
  if runs < 1 then invalid_arg "Timing.simulate: runs < 1";
  (* One fuel cell across every launch: a trap that leaves it negative is
     the budget running out, any other is the program's own. *)
  let budget =
    Option.bind max_cycles (fun c ->
        Option.map ref (instruction_budget m ~n_threads c))
  in
  let hier = Hierarchy.create ?fast_path m in
  let stalls = Array.make n_threads 0. in
  let mlp = float_of_int m.mlp in
  let level_penalty = level_penalty m in
  let dram_total () = Hierarchy.dram_read_bytes hier + Hierarchy.dram_write_bytes hier in
  (* The access consumer is selected once on trace presence: the untraced
     (common) case is [stall_port], called directly by the compiled
     executor with no event record and no dram-delta bookkeeping, so
     profiling costs nothing when it is off. With [~fast_path:false] the
     original sink — one closure matching [trace] per event — is used
     instead, keeping the baseline configuration's costs faithful to the
     pre-fast-path simulator. *)
  let reference_sink (e : Event.t) =
    let core = e.thread mod m.cores in
    let write = e.kind = Event.Write in
    let dram_before = match trace with None -> 0 | Some _ -> dram_total () in
    let r = Hierarchy.access hier ~core ~addr:e.addr ~bytes:e.bytes ~write ~nt:e.nt in
    let stall =
      if r.covered then 0.
      else begin
        let p = level_penalty r.level in
        let s = if e.chain then p else p /. mlp in
        stalls.(e.thread) <- stalls.(e.thread) +. s;
        s
      end
    in
    match trace with
    | None -> ()
    | Some f ->
        f
          (Trace.Access
             { thread = e.thread; level = trace_level r.level; covered = r.covered;
               stall; bytes = e.bytes; write; dram_bytes = dram_total () - dram_before })
  in
  let sink, port =
    if fast_path = Some false then (Some reference_sink, None)
    else
      match trace with
      | None -> (None, Some (stall_port m hier stalls))
      | Some f ->
          Some (fun (e : Event.t) ->
          let core = e.thread in (* n_threads <= m.cores is enforced above *)
          let write = match e.kind with Event.Write -> true | Event.Read -> false in
          let dram_before = dram_total () in
          let r = Hierarchy.access hier ~core ~addr:e.addr ~bytes:e.bytes ~write ~nt:e.nt in
          let stall =
            if r.covered then 0.
            else begin
              let p = level_penalty r.level in
              let s = if e.chain then p else p /. mlp in
              stalls.(e.thread) <- stalls.(e.thread) +. s;
              s
            end
          in
          f
            (Trace.Access
               { thread = e.thread; level = trace_level r.level; covered = r.covered;
                 stall; bytes = e.bytes; write; dram_bytes = dram_total () - dram_before })),
          None
  in
  let counts = Counts.create n_threads in
  let instructions = ref 0 in
  (* one session for all launches: decode/optimize/compile run once,
     each loop iteration is a bare launch; an absent strategy means
     whatever backend the process selected (Interp.default_strategy,
     steered by the CLI --backend flag) *)
  let launch =
    Interp.session ~n_threads ~width:m.simd_width ?sink ?port ?trace ?fuel:budget
      ?strategy prog mem
  in
  let launch =
    match budget with
    | Some b -> (
        fun () -> try launch () with Memory.Trap _ when !b < 0 -> raise Exceeds)
    | None -> launch
  in
  for run = 0 to runs - 1 do
    (match prepare with Some f -> f run mem | None -> ());
    let r = launch () in
    Counts.merge_into ~dst:counts r.counts;
    instructions := !instructions + r.instructions
  done;
  let instructions = !instructions in
  let dram_before_drain = match trace with None -> 0 | Some _ -> dram_total () in
  Hierarchy.drain_writebacks hier;
  (match trace with
  | None -> ()
  | Some f -> f (Trace.Drain { dram_bytes = dram_total () - dram_before_drain }));
  let issue = Array.init n_threads (fun t -> issue_time m counts ~thread:t) in
  let thread_time t = issue.(t) +. stalls.(t) in
  let slowest = ref 0 in
  for t = 1 to n_threads - 1 do
    if thread_time t > thread_time !slowest then slowest := t
  done;
  let chip = thread_time !slowest in
  let dram_bytes = Hierarchy.dram_read_bytes hier + Hierarchy.dram_write_bytes hier in
  let dram_time = float_of_int dram_bytes /. Machine.bytes_per_cycle m in
  let overhead =
    if n_threads > 1 then
      float_of_int m.spawn_cycles
      +. (float_of_int (runs * List.length prog.Isa.phases) *. float_of_int m.barrier_cycles)
    else 0.
  in
  let cycles = Float.max chip dram_time +. overhead in
  let bound =
    if dram_time >= chip then Bandwidth
    else if stalls.(!slowest) > issue.(!slowest) then Latency
    else Compute
  in
  {
    machine = m;
    n_threads;
    cycles;
    seconds = cycles /. (m.freq_ghz *. 1e9);
    issue_cycles = issue.(!slowest);
    stall_cycles = stalls.(!slowest);
    dram_time;
    overhead_cycles = overhead;
    dram_read_bytes = Hierarchy.dram_read_bytes hier;
    dram_write_bytes = Hierarchy.dram_write_bytes hier;
    counts;
    instructions;
    level_accesses =
      [ (Hierarchy.L1, Hierarchy.accesses hier L1);
        (Hierarchy.L2, Hierarchy.accesses hier L2);
        (Hierarchy.LLC, Hierarchy.accesses hier LLC);
        (Hierarchy.Dram, Hierarchy.accesses hier Dram) ];
    bound;
  }

let flops r =
  let w = float_of_int r.machine.simd_width in
  let c cls = float_of_int (Counts.total r.counts cls) in
  (* Scalar FP classes contribute one op each; vector classes one per lane.
     FMA is not separable from the class counts, so kernels that use it are
     counted through the Vfp/Sfp classes (one op per instruction) — a
     conservative undercount documented in DESIGN.md. *)
  c Sfp +. c Sdivsqrt +. c Smath
  +. ((c Vfp +. c Vdivsqrt +. c Vmath) *. w)

let operational_intensity r =
  let bytes = r.dram_read_bytes + r.dram_write_bytes in
  if bytes = 0 then invalid_arg "Timing.operational_intensity: no DRAM traffic";
  flops r /. float_of_int bytes

let speedup ~baseline r = baseline.seconds /. r.seconds

let bound_name = function
  | Compute -> "compute"
  | Bandwidth -> "bandwidth"
  | Latency -> "latency"

let pp_summary ppf r =
  Fmt.pf ppf
    "%s, %d threads: %.3g Mcycles (%.3g ms) [issue %.3g, stall %.3g, dram %.3g], %s-bound, %d B DRAM"
    r.machine.name r.n_threads (r.cycles /. 1e6) (r.seconds *. 1e3)
    (r.issue_cycles /. 1e6) (r.stall_cycles /. 1e6) (r.dram_time /. 1e6)
    (bound_name r.bound)
    (r.dram_read_bytes + r.dram_write_bytes)
