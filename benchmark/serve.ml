(* Workload `serve_mixed`: `ninja_cli serve --port 0 -j 2` on a fresh
   store, driven closed-loop by two client threads, each on its own TCP
   connection and waiting for each reply before sending the next.

   The traffic is what regenerating the paper's tables through the
   service asks for: the simulate requests of every experiment's
   `needs`, each key weighted by how many times the experiment grid
   requests it. Requests are drawn from those weights with the seed, so
   each key's first touch simulates and writes the store while repeats
   are memo hits, and both share the 2-domain pool. Two kinds of grid
   request are left out: the tuned rung (the auto-tuner, which `grid`
   measures) and the ablation machine variants, which have no name on
   the wire. *)

module P = Ninja_serve.Protocol
module Validate = Ninja_serve.Validate
module Json = Ninja_report.Json
module E = Ninja_core.Experiments
module Driver = Ninja_kernels.Driver
module Machine = Ninja_arch.Machine
module Rng = Ninja_util.Rng

let clients = 2

type key = { k_id : int; k_req : P.request; k_name : string; weight : int }

let wire_name (m : Machine.t) =
  List.find_opt
    (fun n -> match Validate.machine_of_name n with Ok m' -> m'.Machine.name = m.name | Error _ -> false)
    Validate.machine_names

(* Every servable simulate request of the experiment grid, in first-
   request order, weighted by its number of requests; the smoke run
   keeps BlackScholes. *)
let keys ~smoke =
  let weights = Hashtbl.create 256 and order = ref [] in
  List.iter
    (fun ((m : Machine.t), (b : Driver.benchmark), step) ->
      match wire_name m with
      | Some machine when step <> "tuned" && ((not smoke) || b.b_name = "BlackScholes") ->
          let name = String.concat "/" [ b.b_name; machine; step ] in
          (match Hashtbl.find_opt weights name with
          | Some (req, w) -> Hashtbl.replace weights name (req, w + 1)
          | None ->
              order := name :: !order;
              Hashtbl.replace weights name (P.Simulate { bench = b.b_name; machine; step }, 1))
      | _ -> ())
    (List.concat_map (fun (e : E.experiment) -> e.needs ()) E.all);
  List.mapi
    (fun k_id k_name ->
      let k_req, weight = Hashtbl.find weights k_name in
      { k_id; k_req; k_name; weight })
    (List.rev !order)

(* [n] requests drawn with the seed, each key with probability
   proportional to its weight. A key's request id is its index, so
   replies for one key are byte-identical. *)
let trace ~seed ~smoke ~n =
  let keys = Array.of_list (keys ~smoke) in
  let total = Array.fold_left (fun acc k -> acc + k.weight) 0 keys in
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let u = Rng.int rng total in
      let rec pick i acc =
        let acc = acc + keys.(i).weight in
        if u < acc then keys.(i) else pick (i + 1) acc
      in
      pick 0 0)

let encode k = P.encode_request (P.Id_num (float_of_int k.k_id)) k.k_req

type server = { pid : int; port : int; err : Unix.file_descr }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Ctx.waitpid [] s.pid);
  Unix.close s.err

(* Spawn the server and wait for its "listening on 127.0.0.1:PORT" line. *)
let start (c : Ctx.t) ~store =
  Ctx.rm_rf store;
  Ctx.mkdir_p store;
  let r, w = Unix.pipe ~cloexec:true () in
  let i = Ctx.devnull () in
  let args = [ "serve"; "--port"; "0"; "-j"; "2"; "--cache-dir"; store ] in
  let pid = Unix.create_process c.cli (Array.of_list (c.cli :: args)) i i w in
  Unix.close w;
  Unix.close i;
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let rec line () =
    match Unix.read r b 0 1 with
    | 0 -> failwith "serve exited before listening"
    | _ when Bytes.get b 0 = '\n' -> Buffer.contents buf
    | _ -> Buffer.add_char buf (Bytes.get b 0); line ()
  in
  let s = { pid; port = 0; err = r } in
  match line () with
  | l -> (
      match Scanf.sscanf_opt l "%_s listening on 127.0.0.1:%d" Fun.id with
      | Some port -> { s with port }
      | None -> stop s; failwith ("unexpected serve banner: " ^ l))
  | exception e -> stop s; raise e

let connect s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let rpc (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

type sent = { key : key; start : float; stop : float; reply : string; first : bool }

type outcome = {
  result : Ctx.result;
  sent : sent list;
  live : Json.t;  (* the closing report's "live" section *)
}

let reply_ok line =
  match Json.member "ok" (Json.parse line) with Some (Json.Bool b) -> b | _ -> false | exception _ -> false

let expected_file c = Ctx.expected c "serve_mixed.json"

(* The oracle for a work reply: the digest of its "result" payload. *)
let result_digest line =
  match Json.member "result" (Json.parse line) with
  | Some r -> Digest.to_hex (Digest.string (Json.to_string ~indent:false r))
  | None -> ""

(* Build every benchmark's ladder in the server before the traffic
   starts, as a long-running service has: one simulate of a rung outside
   the key set (+autovec on MIC) per benchmark, TreeSearch (its dataset
   alone takes ~6 s) on one connection and the rest on the other.
   Otherwise whichever request first needs a ladder would stall its
   client for a seed-dependent stretch. *)
let prime conns ~smoke =
  let benches =
    List.filter (fun (b : Driver.benchmark) -> (not smoke) || b.b_name = "BlackScholes") Ninja_kernels.Registry.all
  in
  let in_keys =
    let names = List.map (fun k -> k.k_name) (keys ~smoke) in
    List.exists (fun (b : Driver.benchmark) -> List.mem (b.b_name ^ "/mic/+autovec") names) benches
  in
  let ok = Array.make 2 false in
  let prime_list i bs =
    ok.(i) <-
      (try
         List.for_all
           (fun (b : Driver.benchmark) ->
             reply_ok
               (rpc conns.(i)
                  (P.encode_request (P.Id_num 0.)
                     (P.Simulate { bench = b.b_name; machine = "mic"; step = "+autovec" }))))
           bs
       with _ -> false)
  in
  let tree, rest = List.partition (fun (b : Driver.benchmark) -> b.b_name = "TreeSearch") benches in
  let t = Thread.create (prime_list 0) tree in
  prime_list 1 rest;
  Thread.join t;
  (not in_keys) && ok.(0) && ok.(1)

(* One pass: a fresh server on a fresh store, primed, then the trace.
   Set-up is spawn to "listening on" plus priming. *)
let pass (c : Ctx.t) ~traced =
  let n = if c.smoke then 60 else 4800 in
  let reqs = trace ~seed:c.seed ~smoke:c.smoke ~n in
  let t_spawn = Ctx.now () in
  let server = start c ~store:(Filename.concat c.work "serve-store") in
  let traced_setup f = if traced then Span.with_ "serve.setup" f else f () in
  Fun.protect
    ~finally:(fun () -> stop server)
    (fun () ->
      let seen = Hashtbl.create 128 and seen_mu = Mutex.create () in
      let first k =
        Mutex.lock seen_mu;
        let f = not (Hashtbl.mem seen k.k_id) in
        Hashtbl.replace seen k.k_id ();
        Mutex.unlock seen_mu;
        f
      in
      let results = Array.make clients [] in
      let root = if traced then Span.current () else None in
      let conns = Array.init clients (fun _ -> connect server) in
      let primed = traced_setup (fun () -> prime conns ~smoke:c.smoke) in
      let setup_s = Ctx.now () -. t_spawn in
      let client ci =
        let out = ref [] in
        Array.iteri
          (fun i k ->
            if i mod clients = ci then begin
              let line = encode k in
              let first = first k in
              let start = Ctx.now () in
              (* a lost connection fails this and every later request *)
              let reply = try rpc conns.(ci) line with _ -> "" in
              let stop = Ctx.now () in
              if traced then Span.add ?parent:root ~req:i ~tid:(1 + ci) "serve.simulate" ~start ~stop;
              out := { key = k; start; stop; reply; first } :: !out
            end)
          reqs;
        results.(ci) <- !out
      in
      let threads = List.init clients (Thread.create client) in
      List.iter Thread.join threads;
      let live =
        rpc conns.(0) (P.encode_request (P.Id_str "live") (P.Report { live = true }))
        |> Json.parse |> Json.member "result"
        |> Fun.flip Option.bind (Json.member "live")
        |> Option.value ~default:Json.Null
      in
      let peak = Ctx.vm_hwm_mb server.pid in
      Array.iter (fun (ic, _) -> close_in_noerr ic) conns;
      let sent = List.concat (Array.to_list results) in
      (* oracles: every reply ok; one byte string per key; the result
         payload matches the expected digest *)
      let expected =
        match Json.parse (Ctx.read_file (expected_file c)) with Json.Obj kv -> kv | _ -> []
      in
      let by_key = Hashtbl.create 128 in
      let bad = ref 0 and problems = ref (if primed then [] else [ "priming failed or hit the key set" ]) in
      List.iter
        (fun s ->
          let fail m = incr bad; problems := (s.key.k_name ^ ": " ^ m) :: !problems in
          if not (reply_ok s.reply) then fail "reply not ok"
          else
            match Hashtbl.find_opt by_key s.key.k_id with
            | Some r when r <> s.reply -> fail "replies for one key differ"
            | Some _ -> ()
            | None ->
                Hashtbl.replace by_key s.key.k_id s.reply;
                if List.assoc_opt s.key.k_name expected <> Some (Json.Str (result_digest s.reply)) then
                  fail "result differs from benchmark/expected/serve_mixed.json")
        sent;
      let t0 = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity sent in
      let t1 = List.fold_left (fun acc s -> Float.max acc s.stop) 0. sent in
      let result =
        Ctx.of_ops ~setup_s ~wall_s:(t1 -. t0) ~peak_rss_mb:peak ~attempted:(List.length sent)
          ~failed:!bad ~problems:(List.sort_uniq compare !problems)
          (List.map (fun s -> (s.stop -. s.start) *. 1e3) sent)
      in
      { result; sent; live })

(* Two passes, each metric the lower of the two (the nearest-rank
   median): one pass is a few seconds of traffic, shorter than this
   host's speed swings, and a swing only ever slows a pass down. *)
let run (c : Ctx.t) =
  Ctx.combine (List.init (if c.smoke then 1 else 2) (fun _ -> (pass c ~traced:false).result))

(* `--regen-expected`: one request per key through a fresh server. *)
let regen (c : Ctx.t) =
  let s = start c ~store:(Filename.concat c.work "serve-regen") in
  Fun.protect
    ~finally:(fun () -> stop s)
    (fun () ->
      let conn = connect s in
      let entries =
        List.map
          (fun k ->
            let reply = rpc conn (encode k) in
            if not (reply_ok reply) then failwith (k.k_name ^ ": reply not ok");
            (k.k_name, Json.Str (result_digest reply)))
          (keys ~smoke:false)
      in
      close_in_noerr (fst conn);
      Ctx.write_file (expected_file c) (Json.to_string (Json.Obj entries)))
