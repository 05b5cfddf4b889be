(* Shared construction of the paper's performance ladder:

   1. naive serial     — naive source, plain -O2 scalar code
   2. +autovec         — naive source, compiler auto-vectorization
   3. +parallel        — naive source, vectorization + threading
   4. +algorithmic     — restructured source (SoA / blocking / SIMD-friendly
                         algorithm), vectorization + threading
   5. ninja            — hand-written ISA code

   Step indices are stable: experiments address them by position. *)

open Ninja_lang

let compile_with flags ~machine (kernel : Ast.kernel) =
  let flags = { flags with Codegen.fma = machine.Ninja_arch.Machine.fma_native } in
  (Codegen.compile ~flags kernel).program

let parse_kernel src =
  try Parser.parse_kernel src with
  | Parser.Error msg -> failwith ("parse error: " ^ msg)
  | Lexer.Error msg -> failwith ("lex error: " ^ msg)

type sources = {
  naive : string; (* Cee source of the naive variant *)
  opt : string; (* Cee source of the algorithmically-improved variant *)
  ninja : machine:Ninja_arch.Machine.t -> Ninja_vm.Isa.program;
}

let step_names =
  [ "naive serial"; "+autovec"; "+parallel"; "+algorithmic"; "ninja" ]

let ladder ~(sources : sources) ~naive ~opt ~ninja : Driver.step list =
  let naive_k = parse_kernel sources.naive in
  let opt_k = parse_kernel sources.opt in
  [
    Driver.simple_step ~name:"naive serial" ~parallel:false
      ~make:(fun ~machine -> compile_with Codegen.o2 ~machine naive_k)
      naive;
    Driver.simple_step ~name:"+autovec" ~parallel:false
      ~make:(fun ~machine -> compile_with Codegen.o2_vec ~machine naive_k)
      naive;
    Driver.simple_step ~name:"+parallel" ~parallel:true
      ~make:(fun ~machine -> compile_with Codegen.o2_vec_par ~machine naive_k)
      naive;
    Driver.simple_step ~name:"+algorithmic" ~parallel:true
      ~make:(fun ~machine -> compile_with Codegen.o2_vec_par ~machine opt_k)
      opt;
    Driver.simple_step ~name:"ninja" ~parallel:true
      ~make:(fun ~machine -> sources.ninja ~machine)
      ninja;
  ]
