(* Cycle-attribution profiler: aggregates the typed event stream that
   Interp.run and Timing.simulate emit (see Ninja_vm.Trace) into per-scope
   and per-benchmark attribution, plus Chrome-trace spans.

   Two invariants matter here:

   - The chip-level numbers are EVENT-DERIVED, not copied from the timing
     report: per-thread instruction counts are rebuilt from [Op] events and
     repriced with [Timing.issue_time], stalls are summed from [Access]
     events, DRAM traffic from [Access]/[Drain] events. The classification
     rule is then the timing model's verbatim — so `classify` agreeing with
     [report.bound] is an end-to-end check that no event was lost or
     double-counted (a test asserts it over the whole suite).

   - Everything is deterministic: the interpreter runs threads one after
     another, scopes are kept in first-seen order, and the per-thread
     virtual clocks that give Chrome spans their timestamps advance only by
     modeled costs. Two runs of the same profile are byte-identical. *)

module Machine = Ninja_arch.Machine
module Timing = Ninja_arch.Timing
module Driver = Ninja_kernels.Driver
open Ninja_vm

type kind = Kloop | Kphase

type span = {
  sp_thread : int;
  sp_label : string;
  sp_kind : kind;
  sp_t0 : float; (* virtual cycles at scope entry *)
  sp_t1 : float;
}

(* Mutable per-scope accumulator, merged across threads by label. *)
type stats = {
  s_label : string;
  s_kind : kind;
  mutable s_instrs : int;
  s_classes : int array; (* by Isa.op_class_index *)
  mutable s_stall : float;
  mutable s_dram_bytes : int;
  s_levels : int array; (* accesses by deepest Trace.level *)
  mutable s_covered : int; (* prefetch-covered misses *)
  mutable s_lanes_active : int;
  mutable s_lanes_total : int;
}

let fresh_stats label kind =
  {
    s_label = label;
    s_kind = kind;
    s_instrs = 0;
    s_classes = Array.make Isa.op_class_count 0;
    s_stall = 0.;
    s_dram_bytes = 0;
    s_levels = Array.make 4 0;
    s_covered = 0;
    s_lanes_active = 0;
    s_lanes_total = 0;
  }

type open_scope = { os_scope : Trace.scope; os_stats : stats; os_t0 : float }

type collector = {
  c_machine : Machine.t;
  c_n_threads : int;
  scopes : (string, stats) Hashtbl.t;
  mutable order : string list; (* first-seen, reversed *)
  stacks : open_scope list array; (* per thread *)
  clock : float array; (* per-thread virtual cycles *)
  in_seq : bool array; (* thread currently inside a sequential phase *)
  counts : Counts.t; (* rebuilt from Op events *)
  seq_classes : int array; (* Op events inside sequential phases *)
  mutable seq_stall : float;
  stalls : float array; (* per thread, from Access events *)
  mutable dram_bytes : int;
  mutable lanes_active : int;
  mutable lanes_total : int;
  mutable spans : span list; (* reversed *)
  mutable events : int;
}

let collector ~machine ~n_threads =
  {
    c_machine = machine;
    c_n_threads = n_threads;
    scopes = Hashtbl.create 64;
    order = [];
    stacks = Array.make n_threads [];
    clock = Array.make n_threads 0.;
    in_seq = Array.make n_threads false;
    counts = Counts.create n_threads;
    seq_classes = Array.make Isa.op_class_count 0;
    seq_stall = 0.;
    stalls = Array.make n_threads 0.;
    dram_bytes = 0;
    lanes_active = 0;
    lanes_total = 0;
    spans = [];
    events = 0;
  }

let scope_kind : Trace.scope -> kind = function
  | Trace.Loop _ -> Kloop
  | Trace.Phase _ -> Kphase

let stats_for c scope =
  let label = Trace.scope_label scope in
  match Hashtbl.find_opt c.scopes label with
  | Some s -> s
  | None ->
      let s = fresh_stats label (scope_kind scope) in
      Hashtbl.replace c.scopes label s;
      c.order <- label :: c.order;
      s

(* Attribute to the innermost open scope of the thread. Every instruction
   is inside at least the phase scope; "(outside)" only shows up for
   synthetic streams in tests. *)
let top c thread =
  match c.stacks.(thread) with
  | { os_stats; _ } :: _ -> os_stats
  | [] -> stats_for c (Trace.Loop "(outside)")

let feed c (ev : Trace.event) =
  c.events <- c.events + 1;
  match ev with
  | Enter { thread; scope } ->
      let st = stats_for c scope in
      (match scope with
      | Trace.Phase { parallel; _ } -> c.in_seq.(thread) <- not parallel
      | Trace.Loop _ -> ());
      c.stacks.(thread) <-
        { os_scope = scope; os_stats = st; os_t0 = c.clock.(thread) } :: c.stacks.(thread)
  | Exit { thread; scope } -> (
      match c.stacks.(thread) with
      | { os_scope; os_stats; os_t0 } :: rest when os_scope = scope ->
          c.stacks.(thread) <- rest;
          (match scope with
          | Trace.Phase _ -> c.in_seq.(thread) <- false
          | Trace.Loop _ -> ());
          c.spans <-
            {
              sp_thread = thread;
              sp_label = os_stats.s_label;
              sp_kind = os_stats.s_kind;
              sp_t0 = os_t0;
              sp_t1 = c.clock.(thread);
            }
            :: c.spans
      | _ ->
          invalid_arg
            (Fmt.str "Profile: unbalanced scope exit %S on thread %d"
               (Trace.scope_label scope) thread))
  | Op { thread; cls } ->
      let st = top c thread in
      st.s_instrs <- st.s_instrs + 1;
      let i = Isa.op_class_index cls in
      st.s_classes.(i) <- st.s_classes.(i) + 1;
      Counts.add c.counts ~thread cls 1;
      if c.in_seq.(thread) then c.seq_classes.(i) <- c.seq_classes.(i) + 1;
      c.clock.(thread) <- c.clock.(thread) +. c.c_machine.issue_cost cls
  | Lanes { thread; active; width } ->
      let st = top c thread in
      st.s_lanes_active <- st.s_lanes_active + active;
      st.s_lanes_total <- st.s_lanes_total + width;
      c.lanes_active <- c.lanes_active + active;
      c.lanes_total <- c.lanes_total + width
  | Access { thread; level; covered; stall; bytes = _; write = _; dram_bytes } ->
      let st = top c thread in
      let li = Trace.level_index level in
      st.s_levels.(li) <- st.s_levels.(li) + 1;
      if covered then st.s_covered <- st.s_covered + 1;
      st.s_stall <- st.s_stall +. stall;
      st.s_dram_bytes <- st.s_dram_bytes + dram_bytes;
      c.stalls.(thread) <- c.stalls.(thread) +. stall;
      if c.in_seq.(thread) then c.seq_stall <- c.seq_stall +. stall;
      c.dram_bytes <- c.dram_bytes + dram_bytes;
      c.clock.(thread) <- c.clock.(thread) +. stall
  | Drain { dram_bytes } -> c.dram_bytes <- c.dram_bytes + dram_bytes

let sink c : Trace.sink = feed c

(* ------------------------------------------------------------------ *)
(* Finalized profile                                                   *)

type row = {
  r_label : string;
  r_kind : kind;
  r_instrs : int;
  r_issue : float;
  r_stall : float;
  r_cycles : float; (* r_issue +. r_stall *)
  r_share : float; (* of the summed work of all scopes *)
  r_dram_mb : float;
  r_levels : int array; (* L1 / L2 / LLC / DRAM access counts *)
  r_covered : int;
  r_lane_util : float option; (* None: no masked vector accesses *)
}

type t = {
  prog_name : string;
  step_name : string;
  machine : Machine.t;
  n_threads : int;
  report : Timing.report;
  rows : row list; (* first-seen scope order *)
  spans : span list; (* program order *)
  events : int;
  (* event-derived chip attribution (slowest thread, as in the model) *)
  issue : float;
  stall : float;
  dram_time : float;
  serial : float; (* modeled cycles spent in sequential phases *)
  bound : Timing.bound; (* classification recomputed from events *)
  lane_util : float option;
}

let counts_of_classes classes =
  let counts = Counts.create 1 in
  List.iter
    (fun cls ->
      let n = classes.(Isa.op_class_index cls) in
      if n > 0 then Counts.add counts ~thread:0 cls n)
    Isa.all_op_classes;
  counts

(* Port-model price of one scope's own instructions (same formula the
   timing model applies to whole threads). *)
let scope_issue machine classes =
  Timing.issue_time machine (counts_of_classes classes) ~thread:0

let finalize c ~report ~prog_name ~step_name =
  Array.iteri
    (fun t stack ->
      if stack <> [] then
        invalid_arg (Fmt.str "Profile: scope left open on thread %d" t))
    c.stacks;
  let m = c.c_machine in
  let issue = Array.init c.c_n_threads (fun t -> Timing.issue_time m c.counts ~thread:t) in
  let slowest = ref 0 in
  let time t = issue.(t) +. c.stalls.(t) in
  for t = 1 to c.c_n_threads - 1 do
    if time t > time !slowest then slowest := t
  done;
  let chip = time !slowest in
  let dram_time = float_of_int c.dram_bytes /. Machine.bytes_per_cycle m in
  (* the timing model's classification rule, verbatim, over event-derived
     inputs — must reproduce [report.bound] *)
  let bound : Timing.bound =
    if dram_time >= chip then Bandwidth
    else if c.stalls.(!slowest) > issue.(!slowest) then Latency
    else Compute
  in
  let serial = scope_issue m c.seq_classes +. c.seq_stall in
  let scope_cycles = Hashtbl.create 16 in
  let total_work = ref 0. in
  List.iter
    (fun label ->
      let s = Hashtbl.find c.scopes label in
      let cyc = scope_issue m s.s_classes +. s.s_stall in
      Hashtbl.replace scope_cycles label cyc;
      total_work := !total_work +. cyc)
    (List.rev c.order);
  let rows =
    List.map
      (fun label ->
        let s = Hashtbl.find c.scopes label in
        let cyc = Hashtbl.find scope_cycles label in
        {
          r_label = label;
          r_kind = s.s_kind;
          r_instrs = s.s_instrs;
          r_issue = cyc -. s.s_stall;
          r_stall = s.s_stall;
          r_cycles = cyc;
          r_share = (if !total_work > 0. then cyc /. !total_work else 0.);
          r_dram_mb = float_of_int s.s_dram_bytes /. 1e6;
          r_levels = Array.copy s.s_levels;
          r_covered = s.s_covered;
          r_lane_util =
            (if s.s_lanes_total = 0 then None
             else Some (float_of_int s.s_lanes_active /. float_of_int s.s_lanes_total));
        })
      (List.rev c.order)
  in
  {
    prog_name;
    step_name;
    machine = m;
    n_threads = c.c_n_threads;
    report;
    rows;
    spans = List.rev c.spans;
    events = c.events;
    issue = issue.(!slowest);
    stall = c.stalls.(!slowest);
    dram_time;
    serial;
    bound;
    lane_util =
      (if c.lanes_total = 0 then None
       else Some (float_of_int c.lanes_active /. float_of_int c.lanes_total));
  }

(* ------------------------------------------------------------------ *)
(* Running a benchmark step under the profiler                         *)

let of_step ~machine ~prog_name (step : Driver.step) =
  let n_threads = if step.parallel then machine.Machine.cores else 1 in
  let c = collector ~machine ~n_threads in
  let report = Driver.run_step ~trace:(sink c) ~machine step in
  finalize c ~report ~prog_name ~step_name:step.step_name

(* ------------------------------------------------------------------ *)
(* Fractions and tables                                                *)

(* Shares of the end-to-end modeled cycles each resource accounts for.
   They need not sum to 1: execution overlaps compute with DRAM traffic
   (the model takes the max), and barrier/spawn overhead belongs to no
   resource. *)
type fractions = {
  f_compute : float;
  f_bandwidth : float;
  f_latency : float;
  f_serial : float;
}

let fractions t =
  let d = Float.max t.report.cycles 1. in
  {
    f_compute = t.issue /. d;
    f_bandwidth = t.dram_time /. d;
    f_latency = t.stall /. d;
    f_serial = t.serial /. d;
  }

let kind_name = function Kloop -> "loop" | Kphase -> "phase"

let pct x = Fmt.str "%.0f%%" (100. *. x)

let attribution_table t =
  let tbl =
    Ninja_report.Table.create
      ~title:
        (Fmt.str "Cycle attribution: %s / %s on %s (%s-bound, %.3g Mcycles)"
           t.prog_name t.step_name t.machine.Machine.name
           (Timing.bound_name t.bound) (t.report.cycles /. 1e6))
      ~columns:
        [ "scope"; "kind"; "instrs"; "Mcyc"; "share"; "stall Mcyc"; "DRAM MB";
          "L1"; "L2"; "LLC"; "DRAM"; "lanes" ]
  in
  List.iter
    (fun r ->
      Ninja_report.Table.add_row tbl
        [ r.r_label; kind_name r.r_kind;
          string_of_int r.r_instrs;
          Ninja_report.Table.cell_f (r.r_cycles /. 1e6);
          pct r.r_share;
          Ninja_report.Table.cell_f (r.r_stall /. 1e6);
          Ninja_report.Table.cell_f r.r_dram_mb;
          string_of_int r.r_levels.(0);
          string_of_int r.r_levels.(1);
          string_of_int r.r_levels.(2);
          string_of_int r.r_levels.(3);
          (match r.r_lane_util with None -> "-" | Some u -> pct u) ])
    t.rows;
  tbl

let summary_columns =
  [ "benchmark"; "compute"; "bandwidth"; "latency"; "serial"; "lanes"; "class" ]

(* The numbers behind one summary row, kept apart from the profile so a
   caller can store and re-render them without re-running the step. *)
type summary = {
  s_prog : string;
  s_fractions : fractions;
  s_lane_util : float option;
  s_bound : Timing.bound;
}

let summary t =
  { s_prog = t.prog_name; s_fractions = fractions t; s_lane_util = t.lane_util;
    s_bound = t.bound }

let summary_row s =
  let f = s.s_fractions in
  [ s.s_prog; pct f.f_compute; pct f.f_bandwidth; pct f.f_latency;
    pct f.f_serial;
    (match s.s_lane_util with None -> "-" | Some u -> pct u);
    Timing.bound_name s.s_bound ]

let summary_table ~title summaries =
  let tbl = Ninja_report.Table.create ~title ~columns:summary_columns in
  List.iter (fun s -> Ninja_report.Table.add_row tbl (summary_row s)) summaries;
  tbl

let roofline_csv profiles =
  let pts =
    List.map
      (fun t ->
        let r = t.report in
        let label = Fmt.str "%s/%s@%s" t.prog_name t.step_name t.machine.Machine.name in
        if r.Timing.dram_read_bytes + r.Timing.dram_write_bytes = 0 then
          Ninja_analysis.Roofline.point_compute ~label r
        else Ninja_analysis.Roofline.point ~label r)
      profiles
  in
  Ninja_analysis.Roofline.to_csv pts
