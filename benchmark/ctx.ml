(* What every workload shares: run settings, the result shape the
   end-to-end metrics are computed from, and child-process handling. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  root : string;  (* checkout root: sources, goldens, expected outputs *)
  cli : string;  (* the built ninja_cli executable *)
  work : string;  (* this run's scratch directory, removed at exit *)
  seed : int;
  seconds : float;  (* measuring time a workload aims for *)
  smoke : bool;  (* tiny inputs: checks the harness, measures nothing *)
}

(* One workload run, as the user sees it: latencies of user-visible
   operations (nearest-rank p50/p99 over [n_ops] of them), the wall time
   of the measured work, set-up time and peak memory. *)
type result = {
  setup_s : float;
  setup_n : int;  (* set-ups the reported median is over *)
  p50_ms : float;
  p99_ms : float;
  n_ops : int;
  wall_s : float;
  wall_n : int;
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  problems : string list;  (* oracle mismatches, one line each *)
}

(* One reported metric and the number of samples behind it. *)
type metric = { name : string; unit_ : string; value : float; samples : int }

let path c rel = Filename.concat c.root rel
let golden c = path c "test/golden_experiments.txt"
let expected c name = path c (Filename.concat "benchmark/expected" name)

(* Nearest rank: the smallest value with at least [p] of the samples at
   or below it. *)
let percentile p xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let of_ops ?(setup_n = 1) ?(wall_n = 1) ~setup_s ~wall_s ~peak_rss_mb ~attempted ~failed
    ~problems ops_ms =
  {
    setup_s;
    setup_n;
    p50_ms = percentile 0.50 ops_ms;
    p99_ms = percentile 0.99 ops_ms;
    n_ops = List.length ops_ms;
    wall_s;
    wall_n;
    peak_rss_mb;
    attempted;
    failed;
    problems;
  }

(* Several passes of one workload in a run: the median of each metric. *)
let combine rs =
  let med f = median (List.map f rs) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  {
    setup_s = med (fun r -> r.setup_s);
    setup_n = sum (fun r -> r.setup_n);
    p50_ms = med (fun r -> r.p50_ms);
    p99_ms = med (fun r -> r.p99_ms);
    n_ops = sum (fun r -> r.n_ops);
    wall_s = med (fun r -> r.wall_s);
    wall_n = sum (fun r -> r.wall_n);
    peak_rss_mb = med (fun r -> r.peak_rss_mb);
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
    problems = List.sort_uniq compare (List.concat_map (fun r -> r.problems) rs);
  }

let read_file p =
  let ic = open_in_bin p in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left (fun acc e -> acc + dir_bytes (Filename.concat p e)) 0 (Sys.readdir p)
  | Unix.S_REG -> (Unix.lstat p).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* VmHWM (peak resident set) of a live process, in MB; 0 once it is gone. *)
let vm_hwm_mb pid =
  let file = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  (* procfs files report length 0, so read them line by line *)
  match open_in file with
  | ic ->
      let rec find () =
        match input_line ic with
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> find ())
        | exception End_of_file -> 0.
      in
      Fun.protect ~finally:(fun () -> close_in ic) find
  | exception Sys_error _ -> 0.

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let rec waitpid flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let spawn ?(stdout_to = "/dev/null") ?(stderr_to = "/dev/null") prog args =
  let open_out p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let i = devnull () and o = open_out stdout_to and e = open_out stderr_to in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) i o e in
  List.iter Unix.close [ i; o; e ];
  pid

type exit_ = { status : Unix.process_status; wall : float; peak_mb : float }

(* Run a child to completion, polling its VmHWM every 10 ms when [poll]. *)
let run ?(poll = true) ?stdout_to ?stderr_to prog args =
  let t0 = now () in
  let pid = spawn ?stdout_to ?stderr_to prog args in
  let peak = ref 0. in
  let rec loop () =
    match waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        peak := Float.max !peak (vm_hwm_mb pid);
        Unix.sleepf 0.01;
        loop ()
    | _, st -> st
  in
  let status = if poll then loop () else snd (waitpid [] pid) in
  { status; wall = now () -. t0; peak_mb = !peak }

let exited_ok e = e.status = Unix.WEXITED 0
