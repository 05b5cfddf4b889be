(* A deliberately small JSON implementation: the benchmark harness writes
   one machine-readable report file and the test suite validates it, and
   the toolchain here has no JSON library. Printing is canonical enough
   for downstream tooling (objects keep insertion order, numbers are
   either exact integers or shortest-round-trip decimals); parsing is a
   plain recursive-descent reader over the full value grammar. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- printing ---- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number_to_string x =
  if Float.is_nan x || Float.abs x = Float.infinity then
    invalid_arg "Json: non-finite number"
  else if Float.is_integer x && Float.abs x < 1e15 then
    (* exact in an int; the same digits as [Printf.sprintf "%.0f"],
       including its "-0" *)
    if x = 0. && Float.sign_bit x then "-0" else string_of_int (int_of_float x)
  else
    (* shortest decimal that round-trips *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec write ~indent b level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num x -> Buffer.add_string b (number_to_string x)
  | Str s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_char b '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          pad (level + 1);
          write ~indent b (level + 1) item)
        items;
      newline ();
      pad level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      newline ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          pad (level + 1);
          escape_string b k;
          Buffer.add_string b (if indent then ": " else ":");
          write ~indent b (level + 1) item)
        fields;
      newline ();
      pad level;
      Buffer.add_char b '}'

let to_string ?(indent = true) v =
  let b = Buffer.create 256 in
  write ~indent b 0 v;
  if indent then Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parsing ---- *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail "expected %C at offset %d" c !pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "invalid literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape %S" hex
              in
              (* encode the code point as UTF-8 (surrogates are kept as
                 replacement-free raw encodings; the harness only emits
                 ASCII) *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
          | c -> fail "bad escape %C" c);
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lexeme = String.sub s start (!pos - start) in
    match float_of_string_opt lexeme with
    | Some x -> Num x
    | None -> fail "bad number %S at offset %d" lexeme start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}' at offset %d" !pos
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']' at offset %d" !pos
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
