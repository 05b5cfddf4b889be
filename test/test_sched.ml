(* Tests for the work-stealing scheduler: determinism of map_list under
   any domain count and job-cost mix, steal accounting, error
   aggregation, cancellation, shutdown under load, and the cost-aware
   LPT ordering used by the experiment grid. *)

module Pool = Ninja_util.Pool
module Wsdeque = Ninja_util.Wsdeque
module Jobs = Ninja_core.Jobs
module Registry = Ninja_kernels.Registry
module Machine = Ninja_arch.Machine

(* ---- deque unit tests (single-threaded; the pool adds the locking) ---- *)

let test_deque_fifo_front () =
  let d = Wsdeque.create () in
  List.iter (fun x -> Wsdeque.push_back d x) [ 1; 2; 3 ];
  let a = Wsdeque.pop_front d in
  let b = Wsdeque.pop_front d in
  let c = Wsdeque.pop_front d in
  let e = Wsdeque.pop_front d in
  Alcotest.(check (list (option int))) "front pops in insertion order"
    [ Some 1; Some 2; Some 3; None ] [ a; b; c; e ]

let test_deque_steal_back () =
  let d = Wsdeque.create () in
  List.iter (fun x -> Wsdeque.push_back d x) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "thief takes the newest" (Some 3) (Wsdeque.pop_back d);
  Alcotest.(check (option int)) "owner takes the oldest" (Some 1) (Wsdeque.pop_front d);
  Alcotest.(check int) "one left" 1 (Wsdeque.length d)

let test_deque_growth () =
  let d = Wsdeque.create () in
  let n = 1000 in
  for i = 1 to n do
    Wsdeque.push_back d i
  done;
  Alcotest.(check int) "holds everything across growth" n (Wsdeque.length d);
  let out = ref [] in
  let rec drain () =
    match Wsdeque.pop_front d with
    | Some x ->
        out := x :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "order preserved across growth"
    (List.init n (fun i -> i + 1))
    (List.rev !out)

(* ---- determinism ---- *)

(* map_list must equal List.map whatever the domain count and however
   lopsided the per-job work is. Job "cost" is a busy loop proportional
   to the element, so random lists give random imbalance. *)
let prop_differential_domains =
  QCheck.Test.make
    ~name:"map_list byte-identical to serial for any -j and job costs" ~count:25
    QCheck.(pair (int_range 2 8) (small_list (int_bound 500)))
    (fun (domains, xs) ->
      let f x =
        let acc = ref x in
        for i = 1 to x * 20 do
          acc := (!acc * 31) + i
        done;
        !acc
      in
      Pool.map_list ~domains f xs = List.map f xs)

(* ---- steal accounting ---- *)

let test_steals_rebalance () =
  (* seed ONE deque with every job; the other workers have nothing and
     must steal. Sleeping tasks release the CPU, so this holds even on a
     single-core host where domains timeshare. *)
  let p = Pool.create ~domains:4 in
  let ran = Atomic.make 0 in
  for _ = 1 to 8 do
    Pool.submit_on p 0 (fun () ->
        Unix.sleepf 0.02;
        Atomic.incr ran)
  done;
  Pool.wait p;
  let s = Pool.stats p in
  Pool.shutdown p;
  Alcotest.(check int) "all tasks ran" 8 (Atomic.get ran);
  Alcotest.(check int) "stats agree" 8 s.Pool.tasks_run;
  Alcotest.(check bool) "idle workers stole from the seeded deque" true
    (s.Pool.steals > 0);
  (* the owner may pop the first task while the rest are still being
     pushed, so only a lower bound on the high-water mark is stable *)
  Alcotest.(check bool) "deque 0 held a backlog" true (s.Pool.max_depth.(0) >= 1)

let test_submit_on_bounds () =
  let p = Pool.create ~domains:2 in
  Alcotest.check_raises "bad worker index"
    (Invalid_argument "Pool.submit_on: bad worker index") (fun () ->
      Pool.submit_on p 2 (fun () -> ()));
  Pool.shutdown p

(* ---- error aggregation and cancellation ---- *)

let test_multi_error_aggregation () =
  (* two tasks, pinned to different workers, both already in flight when
     they fail: wait must report both, in Task_errors, each under the
     label it was submitted with — a multi-failure report that loses
     per-task identity is useless for a grid of hundreds of jobs *)
  let p = Pool.create ~domains:2 in
  Pool.submit_on ~label:"step-left" p 0 (fun () -> Unix.sleepf 0.2; failwith "left");
  Pool.submit_on ~label:"step-right" p 1 (fun () -> Unix.sleepf 0.2; failwith "right");
  (match Pool.wait p with
  | () -> Alcotest.fail "wait did not raise"
  | exception Pool.Task_errors errs ->
      let tagged =
        List.sort compare
          (List.map
             (fun (label, e) ->
               (label, match e with Failure m -> m | e -> Printexc.to_string e))
             errs)
      in
      Alcotest.(check (list (pair string string)))
        "both failures reported under their step names"
        [ ("step-left", "left"); ("step-right", "right") ]
        tagged
  | exception e -> Alcotest.fail ("expected Task_errors, got " ^ Printexc.to_string e));
  Pool.shutdown p

let test_unlabeled_error_default_label () =
  (* tasks submitted without a label still aggregate, under the default *)
  let p = Pool.create ~domains:2 in
  Pool.submit_on p 0 (fun () -> Unix.sleepf 0.2; failwith "a");
  Pool.submit_on ~label:"named" p 1 (fun () -> Unix.sleepf 0.2; failwith "b");
  (match Pool.wait p with
  | () -> Alcotest.fail "wait did not raise"
  | exception Pool.Task_errors errs ->
      Alcotest.(check (list string)) "default label fills the gap"
        (List.sort compare [ Pool.default_label; "named" ])
        (List.sort compare (List.map fst errs))
  | exception e -> Alcotest.fail ("expected Task_errors, got " ^ Printexc.to_string e));
  Pool.shutdown p

let test_map_list_labels_errors () =
  (* the grid path: map_list's labeler names each failing element *)
  (match
     Pool.map_list ~domains:2 ~label:(fun x -> "job-" ^ string_of_int x)
       (fun x ->
         Unix.sleepf 0.2;
         if x >= 0 then failwith ("boom " ^ string_of_int x))
       [ 1; 2 ]
   with
  | _ -> Alcotest.fail "map_list did not raise"
  | exception Pool.Task_errors errs ->
      Alcotest.(check (list string)) "element labels survive aggregation"
        [ "job-1"; "job-2" ]
        (List.sort compare (List.map fst errs))
  | exception Failure _ ->
      (* one task may be cancelled before running if the other fails
         first; a lone failure re-raises as itself, which is also a
         correct outcome — but with the 0.2s sleeps both are in flight
         before either fails, so treat it as a scheduling fluke *)
      Alcotest.fail "expected both failures in flight")

let test_cancel_queued () =
  (* one worker, blocked by a gate task: everything behind it is queued.
     cancel_queued must drop exactly the backlog, count it as cancelled,
     and leave the pool usable. *)
  let gate = Mutex.create () in
  Mutex.lock gate;
  let p = Pool.create ~domains:1 in
  let ran = Atomic.make 0 in
  let started = Atomic.make false in
  Pool.submit p (fun () ->
      Atomic.set started true;
      Mutex.lock gate;
      Mutex.unlock gate);
  (* wait until the worker has picked the gate task up, so it is running,
     not queued — cancel_queued must never touch a running task *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 10 do
    Pool.submit p (fun () -> Atomic.incr ran)
  done;
  let dropped = Pool.cancel_queued p in
  Mutex.unlock gate;
  Pool.wait p;
  Alcotest.(check int) "backlog dropped" 10 dropped;
  Alcotest.(check int) "cancelled tasks never ran" 0 (Atomic.get ran);
  Alcotest.(check int) "stats count the cancellations" 10
    (Pool.stats p).Pool.cancelled;
  (* still usable *)
  Pool.submit p (fun () -> Atomic.incr ran);
  Pool.wait p;
  Pool.shutdown p;
  Alcotest.(check int) "pool usable after cancel" 1 (Atomic.get ran)

let test_failure_drains_queue () =
  (* a fast failure at the front cancels the (slow) tasks still queued
     behind it instead of running them all *)
  let p = Pool.create ~domains:2 in
  Pool.submit_on p 0 (fun () -> failwith "fast");
  for _ = 1 to 50 do
    Pool.submit p (fun () -> Unix.sleepf 0.01)
  done;
  (match Pool.wait p with
  | () -> Alcotest.fail "wait did not raise"
  | exception Failure m -> Alcotest.(check string) "lone failure re-raised as-is" "fast" m
  | exception e -> Alcotest.fail ("unexpected " ^ Printexc.to_string e));
  let s = Pool.stats p in
  Alcotest.(check bool) "queued tasks were cancelled, not run" true
    (s.Pool.cancelled > 0);
  Alcotest.(check int) "accounting: run + cancelled covers the batch" 51
    (s.Pool.tasks_run + s.Pool.cancelled);
  (* the error state is cleared: the pool remains usable *)
  let ok = ref 0 in
  for _ = 1 to 5 do
    Pool.submit p (fun () -> incr ok)
  done;
  Pool.wait p;
  Pool.shutdown p;
  Alcotest.(check int) "pool usable after failure" 5 !ok

let test_shutdown_under_load () =
  (* shutdown without wait: every already-submitted task still executes
     before the workers exit *)
  let p = Pool.create ~domains:4 in
  let ran = Atomic.make 0 in
  for i = 1 to 200 do
    Pool.submit p (fun () ->
        if i mod 7 = 0 then Unix.sleepf 0.001;
        Atomic.incr ran)
  done;
  Pool.shutdown p;
  Alcotest.(check int) "all tasks ran before join" 200 (Atomic.get ran)

let test_map_list_stats () =
  let got = ref None in
  let xs = List.init 64 Fun.id in
  let out = Pool.map_list ~domains:4 ~on_stats:(fun s -> got := Some s) Fun.id xs in
  Alcotest.(check (list int)) "identity map" xs out;
  match !got with
  | None -> Alcotest.fail "on_stats not called"
  | Some s ->
      Alcotest.(check int) "stats cover every task" 64 s.Pool.tasks_run;
      Alcotest.(check int) "four domains" 4 s.Pool.domains;
      Alcotest.(check int) "per-domain counts sum to total" 64
        (Array.fold_left ( + ) 0 s.Pool.run_per_domain)

let test_map_list_serial_stats () =
  let got = ref None in
  ignore (Pool.map_list ~domains:1 ~on_stats:(fun s -> got := Some s) Fun.id [ 1; 2; 3 ]);
  match !got with
  | None -> Alcotest.fail "on_stats not called on serial path"
  | Some s ->
      Alcotest.(check int) "serial snapshot: one domain" 1 s.Pool.domains;
      Alcotest.(check int) "serial snapshot: all tasks" 3 s.Pool.tasks_run;
      Alcotest.(check int) "serial snapshot: no steals" 0 s.Pool.steals

(* ---- cost-aware ordering of the experiment grid ---- *)

let job step : Jobs.job =
  { Jobs.machine = Machine.westmere; bench = Registry.find "BlackScholes"; step }

let steps_of jobs = List.map (fun (j : Jobs.job) -> j.Jobs.step) jobs

let test_schedule_order_measured () =
  (* measured per-step costs dominate: most expensive first, original
     order preserved within a class (stable sort) *)
  let jobs = [ job "a"; job "b"; job "a"; job "c" ] in
  Alcotest.(check (list string)) "descending measured cost, stable"
    [ "b"; "a"; "a"; "c" ]
    (steps_of (Jobs.schedule_order [ ("a", 2.); ("b", 9.); ("c", 1.) ] jobs))

let test_schedule_order_fallback () =
  (* no store history: the static ladder ranks seed ninja/algorithmic
     first and the cheap compiler steps last *)
  let jobs =
    [ job "+autovec"; job "naive serial"; job "ninja"; job "+parallel";
      job "+algorithmic" ]
  in
  Alcotest.(check (list string)) "static ladder rank order"
    [ "ninja"; "+algorithmic"; "naive serial"; "+parallel"; "+autovec" ]
    (steps_of (Jobs.schedule_order [] jobs))

let test_schedule_order_mixed () =
  (* steps with history use it; steps without fall back to the ladder
     rank — a measured 7s naive outranks ninja's static 5 *)
  let jobs = [ job "ninja"; job "naive serial" ] in
  Alcotest.(check (list string)) "measured beats static"
    [ "naive serial"; "ninja" ]
    (steps_of (Jobs.schedule_order [ ("naive serial", 7.) ] jobs))

(* The costs a real tuning session leaves in a store must rank a tuned
   job as the whole session it is: above the rungs it simulated inside
   itself, and at least as long as all of its candidate simulations. *)
let test_schedule_order_tuning_costs () =
  let st = Ninja_core.Store.scratch () in
  Fun.protect
    ~finally:(fun () -> Ninja_core.Store.destroy st)
    (fun () ->
      let bench = Registry.find "BlackScholes" in
      let scale = bench.default_scale in
      let steps = Ninja_core.Experiments.ladder bench ~scale in
      let t =
        Ninja_core.Tuner.tune ~store:st ~machine:Machine.westmere ~scale ~steps bench
      in
      Ninja_core.Store.flush_costs st;
      let costs = Ninja_core.Store.step_costs st in
      let cost step =
        match List.assoc_opt step costs with
        | Some c -> c
        | None -> Alcotest.failf "no %S cost recorded" step
      in
      (* the session simulated naive serial and ninja plus its candidates *)
      let candidates = t.Ninja_core.Tuner.t_simulated - 2 in
      Alcotest.(check bool)
        (Fmt.str "session %.3fs >= %d candidates x %.3fs" (cost "tuned") candidates
           (cost "tuned candidate"))
        true
        (cost "tuned" >= float_of_int candidates *. cost "tuned candidate");
      Alcotest.(check string) "tuned job seeded first" "tuned"
        (List.hd
           (steps_of (Jobs.schedule_order costs [ job "naive serial"; job "ninja"; job "tuned" ]))))

let suite =
  ( "sched",
    [
      Alcotest.test_case "deque front order" `Quick test_deque_fifo_front;
      Alcotest.test_case "deque steal back" `Quick test_deque_steal_back;
      Alcotest.test_case "deque growth" `Quick test_deque_growth;
      QCheck_alcotest.to_alcotest prop_differential_domains;
      Alcotest.test_case "steals rebalance" `Quick test_steals_rebalance;
      Alcotest.test_case "submit_on bounds" `Quick test_submit_on_bounds;
      Alcotest.test_case "multi-error aggregation" `Quick test_multi_error_aggregation;
      Alcotest.test_case "unlabeled error default label" `Quick
        test_unlabeled_error_default_label;
      Alcotest.test_case "map_list error labels" `Quick test_map_list_labels_errors;
      Alcotest.test_case "cancel_queued" `Quick test_cancel_queued;
      Alcotest.test_case "failure drains queue" `Quick test_failure_drains_queue;
      Alcotest.test_case "shutdown under load" `Quick test_shutdown_under_load;
      Alcotest.test_case "map_list stats" `Quick test_map_list_stats;
      Alcotest.test_case "map_list serial stats" `Quick test_map_list_serial_stats;
      Alcotest.test_case "schedule order: measured" `Quick test_schedule_order_measured;
      Alcotest.test_case "schedule order: fallback" `Quick test_schedule_order_fallback;
      Alcotest.test_case "schedule order: mixed" `Quick test_schedule_order_mixed;
      Alcotest.test_case "schedule order: tuning-session costs" `Quick
        test_schedule_order_tuning_costs;
    ] )
