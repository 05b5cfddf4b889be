(** A minimal JSON value type with a canonical printer and a strict
    parser, used for the benchmark harness's machine-readable reports.
    The toolchain pins no JSON library, so the format is implemented here;
    it covers the whole value grammar but aims for small, auditable code
    rather than speed. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} on malformed input, with a position-annotated
    description of the first error. *)

val to_string : ?indent:bool -> t -> string
(** Serialize. [indent] (default [true]) pretty-prints with two-space
    indentation and a trailing newline; [~indent:false] is compact.
    Numbers print as exact integers when integral, else as the shortest
    decimal that round-trips.
    @raise Invalid_argument on NaN or infinite numbers. *)

val number_to_string : float -> string
(** How {!to_string} prints a number. An integral [x] with
    [|x| < 1e15] prints with [string_of_int], byte-identical to
    [Printf.sprintf "%.0f" x] (negative zero included, as ["-0"]) but
    without going through the format interpreter — reports are mostly
    integer counts. Any other finite [x] prints as the shortest of
    [%.12g] and [%.17g] that round-trips.
    @raise Invalid_argument on NaN or infinite numbers. *)

val parse : string -> t
(** Parse a complete JSON document (trailing garbage is an error).
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field lookup; [None] for missing fields and non-objects. *)

val to_float : t -> float option
(** The payload of a [Num]; [None] for every other constructor. *)

val to_str : t -> string option
(** The payload of a [Str]; [None] for every other constructor. *)

val to_list : t -> t list option
(** The payload of a [List]; [None] for every other constructor. *)
