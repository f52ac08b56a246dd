(* Minimal JSON: just enough for the metrics/trace-event sinks and for
   `rtgen report` to read a metrics file back. The repo deliberately has
   no external JSON dependency; the documents involved are small and
   flat, so a ~150-line recursive-descent parser is the whole cost. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.9g" f)

let rec write ~indent ~level buf j =
  let nl k =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * k) ' ')
    end
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        write ~indent ~level:(level + 1) buf item)
      items;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        escape buf k;
        Buffer.add_string buf (if indent then ": " else ":");
        write ~indent ~level:(level + 1) buf v)
      fields;
    nl level;
    Buffer.add_char buf '}'

let to_string ?(pretty = false) j =
  let buf = Buffer.create 1024 in
  write ~indent:pretty ~level:0 buf j;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_fail of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal, expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance (); Buffer.contents buf
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        let c = s.[!pos] in
        advance ();
        (match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail ("bad \\u escape: " ^ hex)
            | Some code ->
              (* Non-ASCII code points round-trip as '?'; the metrics
                 documents only ever contain ASCII names. *)
              Buffer.add_char buf
                (if code < 0x80 then Char.chr code else '?'))
         | c -> fail (Printf.sprintf "bad escape \\%c" c));
        go ()
      | c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some v -> Int v
    | None ->
      (match float_of_string_opt tok with
       | Some f -> Float f
       | None -> fail ("bad number: " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}' in object"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']' in array"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_fail (at, msg) ->
    Error (Printf.sprintf "offset %d: %s" at msg)

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_obj = function Obj f -> Some f | _ -> None
