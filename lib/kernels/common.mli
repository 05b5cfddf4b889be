(** Shared construction of the paper's performance ladder:

    + naive serial — naive source, plain scalar code
    + [+autovec] — naive source, auto-vectorization (and fast-math)
    + [+parallel] — naive source, vectorization + threading
    + [+algorithmic] — restructured source, vectorization + threading
    + ninja — hand-written ISA code

    Step names are stable; experiments address them by name. *)

val step_names : string list

val parse_kernel : string -> Ninja_lang.Ast.kernel
(** Parse, turning lex/parse errors into [Failure] with context. *)

val compile_with :
  Ninja_lang.Codegen.flags ->
  machine:Ninja_arch.Machine.t ->
  Ninja_lang.Ast.kernel ->
  Ninja_vm.Isa.program
(** Compile with the machine's FMA availability folded into the flags. *)

type sources = {
  naive : string;
  opt : string;
  ninja : machine:Ninja_arch.Machine.t -> Ninja_vm.Isa.program;
}

val ladder :
  sources:sources -> naive:Driver.io -> opt:Driver.io -> ninja:Driver.io ->
  Driver.step list
(** The five standard steps for a benchmark whose variants are all
    single-launch kernels: the three compiler rungs bind [naive], the
    algorithmic rung [opt], the Ninja rung [ninja]. *)
