type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(* --- printing ------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* -0 prints as 0: "-0" would read back as the integer 0. *)
let float_text f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json.to_string: non-finite float %g" f)
  else if f = 0.0 then "0"
  else Printf.sprintf "%.6g" f

let rec write b = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_text f)
  | String s -> write_string b s
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        vs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write_string b k;
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

and write_string b s =
  Buffer.add_char b '"';
  Buffer.add_string b (escape s);
  Buffer.add_char b '"'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------- *)

(* Hand-rolled (no JSON library is vendored).  Nesting is capped so a
   hostile line cannot exhaust the stack. *)
let max_depth = 512

let of_string line =
  let n = String.length line in
  let pos = ref 0 in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> bad "expected %c, found %c at %d" c c' !pos
    | None -> bad "expected %c, found end of line" c
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then bad "truncated \\u escape";
              let hex = String.sub line !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some c when c < 0x80 -> Buffer.add_char buf (Char.chr c)
              | _ -> bad "unsupported \\u escape %S" hex);
              go ()
          | _ -> bad "bad escape")
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && (match line.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      advance ()
    done;
    let tok = String.sub line start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f when Float.is_finite f -> Float f
        | _ -> bad "bad number %S" tok)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub line !pos len = word then begin
      pos := !pos + len;
      v
    end
    else bad "bad literal at %d" !pos
  in
  (* The elements of a list or object, after its opening bracket. *)
  let items close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); go acc
        | Some c when c = close -> advance (); List.rev acc
        | _ -> bad "expected , or %c" close
      in
      go []
  in
  let rec parse_value depth =
    if depth > max_depth then bad "nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some '[' -> List (items ']' (fun () -> parse_value (depth + 1)))
    | Some '{' ->
        Obj
          (items '}' (fun () ->
               let key = parse_string () in
               expect ':';
               (key, parse_value (depth + 1))))
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> parse_number ()
    | Some c -> bad "expected a value, found %c at %d" c !pos
    | None -> bad "expected a value, found end of line"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then bad "trailing garbage at %d" !pos;
  v

(* --- accessors ----------------------------------------------------- *)

let find key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let get key v =
  match v with
  | Obj kvs -> (
      match List.assoc_opt key kvs with
      | Some x -> x
      | None -> raise (Bad (Printf.sprintf "missing field %S" key)))
  | _ -> raise (Bad (Printf.sprintf "field %S of a non-object" key))

let not_a key what = raise (Bad (Printf.sprintf "field %S is not %s" key what))

let int key v = match get key v with Int i -> i | _ -> not_a key "an integer"

let float key v =
  match get key v with
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> not_a key "a number"

let string key v = match get key v with String s -> s | _ -> not_a key "a string"
let bool key v = match get key v with Bool b -> b | _ -> not_a key "a boolean"
let list key v = match get key v with List l -> l | _ -> not_a key "a list"

let ints key v =
  match get key v with
  | List l ->
      List.map
        (function
          | Int i -> i
          | Float _ -> raise (Bad "float in integer list")
          | _ -> not_a key "an int list")
        l
  | _ -> not_a key "an int list"
