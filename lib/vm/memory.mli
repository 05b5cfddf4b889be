(** The buffer store backing a program run.

    Each buffer declared by a program is bound to an OCaml array and given
    a page-aligned base address in a flat modeled address space, so the
    cache simulator sees realistic, non-overlapping addresses. The modeled
    element size is 4 bytes (the paper's kernels are single-precision /
    32-bit integer), independent of OCaml's in-memory representation. *)

type buffer = Fbuf of float array | Ibuf of int array

type t

exception Bad_binding of string
(** Binding list does not match the program's buffer declarations. *)

exception Trap of string
(** Runtime memory fault (bounds, type confusion); also reused by the
    interpreter for all runtime faults. *)

val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Trap} with a formatted message. *)

val create : Isa.program -> (string * buffer) list -> t
(** Bind every declared buffer by name. Element types must match; extra or
    missing bindings raise {!Bad_binding}. *)

val get_f : t -> Isa.buf -> int -> float
(** Read a float element (bounds- and type-checked; raises {!Trap}). *)

val get_i : t -> Isa.buf -> int -> int
(** Read an int element (bounds- and type-checked; raises {!Trap}). *)

val set_f : t -> Isa.buf -> int -> float -> unit
(** Write a float element (bounds- and type-checked; raises {!Trap}). *)

val set_i : t -> Isa.buf -> int -> int -> unit
(** Write an int element (bounds- and type-checked; raises {!Trap}). *)

val get_f_block : t -> Isa.buf -> int -> float array -> int -> unit
(** [get_f_block t buf base dst w] reads the [w] contiguous elements
    starting at [base] into [dst.(0..w-1)] with a single bounds/type
    check, falling back to per-lane {!get_f} (identical traps and partial
    writes) when the range is not fully in bounds. *)

val get_i_block : t -> Isa.buf -> int -> int array -> int -> unit
(** Int counterpart of {!get_f_block}. *)

val set_f_block : t -> Isa.buf -> int -> float array -> int -> unit
(** [set_f_block t buf base src w] writes [src.(0..w-1)] to the [w]
    contiguous elements starting at [base]; same fallback contract as
    {!get_f_block}. *)

val set_i_block : t -> Isa.buf -> int -> int array -> int -> unit
(** Int counterpart of {!set_f_block}. *)

val view_f : t -> Isa.buf -> (float array * int) option
(** [view_f t buf] is the live array bound to [buf] and its modeled base
    address, when [buf] is a declared f32 buffer; [None] otherwise. For
    executors that resolve operands once: an in-range access to the array
    is what {!get_f}/{!set_f} do, and any other index must still go
    through them so the trap is the same. *)

val view_i : t -> Isa.buf -> (int array * int) option
(** Int counterpart of {!view_f}. *)

val address : t -> Isa.buf -> int -> int
(** Modeled byte address of an element. *)

val length : t -> Isa.buf -> int
(** Element count of a buffer. *)

val find : t -> string -> Isa.buf * buffer
(** Look a buffer up by name (the live array, not a copy).
    @raise Not_found *)

val total_bytes : t -> int
(** Total modeled bytes across buffers. *)
