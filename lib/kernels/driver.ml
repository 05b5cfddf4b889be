open Ninja_vm

type arg =
  | Farr of float array
  | Iarr of int array
  | Fscalar of float
  | Iscalar of int

type shape =
  | F_array of int
  | I_array of int
  | F_scalar
  | I_scalar

let shape_of_arg = function
  | Farr a -> F_array (Array.length a)
  | Iarr a -> I_array (Array.length a)
  | Fscalar _ -> F_scalar
  | Iscalar _ -> I_scalar

(* The compiler's hidden spill ([__env_*]) and reduction ([__red_*])
   buffers, allocated for every program that declares them. Sizes must
   cover the limits declared in Codegen (max_env_slots, max_reductions *
   max_threads). *)
let hidden =
  let env_slots = 256 and red_slots = 16 * 64 in
  [ ("__env_i", I_array env_slots); ("__env_f", F_array env_slots);
    ("__red_i", I_array red_slots); ("__red_f", F_array red_slots) ]

let zeros = function
  | F_array n -> Memory.Fbuf (Array.make n 0.)
  | I_array n -> Memory.Ibuf (Array.make n 0)
  | F_scalar -> Memory.Fbuf [| 0. |]
  | I_scalar -> Memory.Ibuf [| 0 |]

let memory_for (prog : Isa.program) args =
  let bindings =
    Array.to_list prog.buffers
    |> List.map (fun (d : Isa.buffer_decl) ->
           let name = d.buf_name in
           let missing () = raise (Memory.Bad_binding ("missing argument: " ^ name)) in
           let value =
             match List.assoc_opt name hidden with
             | Some shape -> zeros shape
             | None when String.starts_with ~prefix:"__p_" name -> (
                 let pname = String.sub name 4 (String.length name - 4) in
                 match List.assoc_opt pname args with
                 | Some (Fscalar x) -> Memory.Fbuf [| x |]
                 | Some (Iscalar n) -> Memory.Ibuf [| n |]
                 | Some _ ->
                     raise (Memory.Bad_binding ("parameter " ^ pname ^ " must be a scalar"))
                 | None -> missing ())
             | None -> (
                 match List.assoc_opt name args with
                 | Some (Farr a) -> Memory.Fbuf a
                 | Some (Iarr a) -> Memory.Ibuf a
                 | Some _ ->
                     raise (Memory.Bad_binding ("parameter " ^ name ^ " must be an array"))
                 | None -> missing ())
           in
           (name, value))
  in
  Memory.create prog bindings

(* Buffer lengths declared shapes imply under the calling convention
   above (arrays by name, scalars as one-element ["__p_<name>"] cells,
   the hidden buffers) — what the static verifier needs to check bounds. *)
let buffer_lengths shapes =
  List.map
    (fun (name, shape) ->
      match shape with
      | F_array n | I_array n -> (name, n)
      | F_scalar | I_scalar -> ("__p_" ^ name, 1))
    (shapes @ hidden)

let output_f mem name =
  match Memory.find mem name with
  | _, Memory.Fbuf a -> Array.copy a
  | _, Memory.Ibuf _ -> invalid_arg (name ^ " is an int buffer")

let output_i mem name =
  match Memory.find mem name with
  | _, Memory.Ibuf a -> Array.copy a
  | _, Memory.Fbuf _ -> invalid_arg (name ^ " is a float buffer")

type io = {
  shapes : (string * shape) list;
  bindings : unit -> (string * arg) list;
  check : Memory.t -> (unit, string) result;
}

type step = {
  step_name : string;
  parallel : bool;
  make : machine:Ninja_arch.Machine.t -> Isa.program;
  shapes : (string * shape) list;
  bindings : unit -> (string * arg) list;
  runs : Ninja_arch.Machine.t -> int;
  prepare : Ninja_arch.Machine.t -> int -> Memory.t -> unit;
  check : Memory.t -> (unit, string) result;
}

let simple_step ~name ~parallel ~make (io : io) =
  {
    step_name = name;
    parallel;
    make;
    shapes = io.shapes;
    bindings = io.bindings;
    runs = (fun _ -> 1);
    prepare = (fun _ _ _ -> ());
    check = io.check;
  }

(* A once shared across domains: [Lazy.force] on one suspension from two
   domains raises [CamlinternalLazy.Undefined], and ladders are shared by
   the experiment grid's pool, the tuner and the service. The mutex also
   makes a second caller wait for the first build instead of repeating
   it. *)
type 'a once = { build : unit -> 'a; mu : Mutex.t; mutable value : 'a option }

let onces_forced = Atomic.make 0
let once build = { build; mu = Mutex.create (); value = None }

let force o =
  Mutex.protect o.mu (fun () ->
      match o.value with
      | Some v -> v
      | None ->
          let v = o.build () in
          o.value <- Some v;
          Atomic.incr onces_forced;
          v)

let forced_count () = Atomic.get onces_forced

(* Update a scalar parameter cell between launches. *)
let set_scalar_i mem name v =
  match Memory.find mem ("__p_" ^ name) with
  | _, Memory.Ibuf a -> a.(0) <- v
  | _, Memory.Fbuf _ -> invalid_arg (name ^ " is a float parameter")

let run_step ?trace ?strategy ?max_cycles ~machine step =
  let prog = step.make ~machine in
  let mem = memory_for prog (step.bindings ()) in
  let n_threads = if step.parallel then machine.Ninja_arch.Machine.cores else 1 in
  Ninja_arch.Timing.simulate ~machine ~n_threads ~runs:(step.runs machine)
    ~prepare:(step.prepare machine) ?trace ?strategy ?max_cycles prog mem

let validate_step ~machine step =
  let prog = step.make ~machine in
  let n_threads = if step.parallel then machine.Ninja_arch.Machine.cores else 1 in
  let width = machine.Ninja_arch.Machine.simd_width in
  match
    let mem = memory_for prog (step.bindings ()) in
    for run = 0 to step.runs machine - 1 do
      step.prepare machine run mem;
      ignore (Interp.run ~n_threads ~width prog mem : Interp.result)
    done;
    mem
  with
  | mem -> step.check mem
  | exception Memory.Bad_binding msg -> Error ("binding: " ^ msg)
  | exception Memory.Trap msg -> Error ("trap: " ^ msg)

let verify_step ~machine step =
  let prog = step.make ~machine in
  let n_threads = if step.parallel then machine.Ninja_arch.Machine.cores else 1 in
  let width = machine.Ninja_arch.Machine.simd_width in
  Verify.verify ~width ~n_threads ~lengths:(buffer_lengths step.shapes) prog

type benchmark = {
  b_name : string;
  b_desc : string;
  b_algo_note : string;
  b_sources : (string * string) list;
  steps : scale:int -> step list;
  default_scale : int;
}

let close ?(rtol = 1e-4) ?(atol = 1e-6) a b =
  let diff = Float.abs (a -. b) in
  diff <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

let check_floats ?rtol ?atol ~expected actual =
  if Array.length expected <> Array.length actual then
    Error
      (Fmt.str "length mismatch: expected %d, got %d" (Array.length expected)
         (Array.length actual))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e ->
        if !bad = None && not (close ?rtol ?atol e actual.(i)) then bad := Some i)
      expected;
    match !bad with
    | None -> Ok ()
    | Some i ->
        Error (Fmt.str "mismatch at index %d: expected %g, got %g" i expected.(i) actual.(i))
  end

(* Tolerant variant for kernels whose results are legitimately sensitive to
   FP evaluation order through [int()] truncation (e.g. computed gather
   indices): a small fraction of elements may disagree. *)
let check_floats_mostly ?rtol ?atol ?(max_bad_frac = 0.01) ~expected actual =
  if Array.length expected <> Array.length actual then
    Error
      (Fmt.str "length mismatch: expected %d, got %d" (Array.length expected)
         (Array.length actual))
  else begin
    let bad = ref 0 in
    Array.iteri
      (fun i e -> if not (close ?rtol ?atol e actual.(i)) then incr bad)
      expected;
    let frac = float_of_int !bad /. float_of_int (max 1 (Array.length expected)) in
    if frac <= max_bad_frac then Ok ()
    else Error (Fmt.str "%d of %d elements mismatch" !bad (Array.length expected))
  end

let check_ints ~expected actual =
  if Array.length expected <> Array.length actual then
    Error
      (Fmt.str "length mismatch: expected %d, got %d" (Array.length expected)
         (Array.length actual))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e -> if !bad = None && e <> actual.(i) then bad := Some i)
      expected;
    match !bad with
    | None -> Ok ()
    | Some i ->
        Error (Fmt.str "mismatch at index %d: expected %d, got %d" i expected.(i) actual.(i))
  end
