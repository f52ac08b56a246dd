module Df = Rt_lattice.Depfun

let model_header = "rtgen-model v1"
let companion_header = "rtgen-companion v1"
let answerset_header = "rtgen-answerset v1"
let ckpt_magic = "RTGENCKP"

let strip_header header blob =
  let hn = String.length header in
  let n = String.length blob in
  if n > hn && String.sub blob 0 hn = header && blob.[hn] = '\n' then
    Some (String.sub blob (hn + 1) (n - hn - 1))
  else None

let model_to_blob ?names d = model_header ^ "\n" ^ Df.to_string ?names d ^ "\n"

let model_of_blob blob =
  match strip_header model_header blob with
  | None -> Error "not a model blob (missing rtgen-model header)"
  | Some body -> Df.parse body

(* violations: "violations <n>" then n rows of '0'/'1' chars. *)
let violations_to_string v =
  let n = Array.length v in
  let b = Buffer.create ((n * (n + 1)) + 16) in
  Buffer.add_string b (Printf.sprintf "violations %d\n" n);
  Array.iter
    (fun row ->
       Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) row;
       Buffer.add_char b '\n')
    v;
  Buffer.contents b

let violations_of_lines = function
  | [] -> Error "missing violations section"
  | hd :: rows -> (
      match String.split_on_char ' ' hd with
      | [ "violations"; n ] -> (
          match int_of_string_opt n with
          | None -> Error "bad violations count"
          | Some n ->
            if List.length rows <> n then
              Error
                (Printf.sprintf "expected %d violation rows, got %d" n
                   (List.length rows))
            else begin
              let exception Fail of string in
              try
                let m =
                  rows
                  |> List.map (fun row ->
                      if String.length row <> n then
                        raise (Fail "violation row width");
                      Array.init n (fun i ->
                          match row.[i] with
                          | '0' -> false
                          | '1' -> true
                          | _ -> raise (Fail "violation cell")))
                  |> Array.of_list
                in
                Ok m
              with Fail m -> Error m
            end)
      | _ -> Error "missing violations header")

let companion_to_blob ?names ~summary ~violations () =
  companion_header ^ "\n"
  ^ violations_to_string violations
  ^ "%%\n"
  ^ Df.to_string ?names summary
  ^ "\n"

let companion_of_blob blob =
  match strip_header companion_header blob with
  | None -> Error "not a companion blob (missing rtgen-companion header)"
  | Some body -> (
      let lines = String.split_on_char '\n' body in
      let rec split acc = function
        | [] -> Error "missing %% separator"
        | "%%" :: rest -> Ok (List.rev acc, rest)
        | l :: rest -> split (l :: acc) rest
      in
      match split [] (List.filter (fun l -> String.trim l <> "") lines) with
      | Error e -> Error e
      | Ok (vlines, mlines) -> (
          match violations_of_lines vlines with
          | Error e -> Error e
          | Ok v -> (
              match Df.parse (String.concat "\n" mlines) with
              | Error e -> Error e
              | Ok (d, names) ->
                if Array.length v <> Df.size d then
                  Error "violation matrix size mismatch"
                else Ok (d, v, names))))

let answerset_to_blob ?names models =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s %d\n" answerset_header (List.length models));
  List.iter
    (fun d ->
       Buffer.add_string b "%%\n";
       Buffer.add_string b (Df.to_string ?names d);
       Buffer.add_char b '\n')
    models;
  Buffer.contents b

let answerset_of_blob blob =
  let hn = String.length answerset_header in
  if
    String.length blob <= hn
    || String.sub blob 0 hn <> answerset_header
    || blob.[hn] <> ' '
  then Error "not an answerset blob (missing rtgen-answerset header)"
  else
    match String.index_opt blob '\n' with
    | None -> Error "truncated answerset blob"
    | Some nl -> (
        let count_s = String.sub blob (hn + 1) (nl - hn - 1) in
        match int_of_string_opt count_s with
        | None -> Error "bad answerset count"
        | Some count ->
          let body = String.sub blob (nl + 1) (String.length blob - nl - 1) in
          let chunks =
            String.split_on_char '\n' body
            |> List.fold_left
                 (fun acc l ->
                    if l = "%%" then [] :: acc
                    else
                      match acc with
                      | [] -> if String.trim l = "" then [] else [ [ l ] ]
                      | cur :: rest -> (l :: cur) :: rest)
                 []
            |> List.rev_map (fun ls -> String.concat "\n" (List.rev ls))
            |> List.filter (fun c -> String.trim c <> "")
          in
          if List.length chunks <> count then
            Error
              (Printf.sprintf "expected %d models, got %d" count
                 (List.length chunks))
          else begin
            let exception Fail of string in
            try
              Ok
                (List.map
                   (fun c ->
                      match Df.parse c with
                      | Ok r -> r
                      | Error m -> raise (Fail m))
                   chunks)
            with Fail m -> Error m
          end)

let checkpoint_to_blob data = data

let kind_of_blob blob =
  let starts p =
    String.length blob >= String.length p
    && String.sub blob 0 (String.length p) = p
  in
  if starts (model_header ^ "\n") then Some Store.Model
  else if starts (companion_header ^ "\n") then Some Store.Companion
  else if starts (answerset_header ^ " ") then Some Store.Answerset
  else if starts ckpt_magic then Some Store.Checkpoint
  else None
