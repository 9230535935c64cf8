(* A minimal JSON writer for the benchmark's result record. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Non-finite floats have no JSON spelling; they are written as null and
   the checker treats a null metric as a failure. *)
let float_repr f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let rec write b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> escape b s
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        escape b k;
        Buffer.add_string b ": ";
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b
