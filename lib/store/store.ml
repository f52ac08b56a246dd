(* Content-addressed store. Everything durable goes through
   Rt_util.Atomic_file; objects are immutable once written, refs are
   append-only text ledgers, one line per commit. No wall clock
   anywhere: created_at is injected by callers so identical inputs
   yield identical store trees. *)

type t = { root : string }

type kind = Model | Companion | Checkpoint | Answerset

let kind_to_string = function
  | Model -> "model"
  | Companion -> "companion"
  | Checkpoint -> "checkpoint"
  | Answerset -> "answerset"

let kind_of_string = function
  | "model" -> Some Model
  | "companion" -> Some Companion
  | "checkpoint" -> Some Checkpoint
  | "answerset" -> Some Answerset
  | _ -> None

type meta = {
  kind : kind;
  bound : int option;
  source : string option;
  parents : string list;
  created_at : int;
}

type entry = { gen : int; address : string; meta : meta }

let root t = t.root
let marker = "rtgen-store v1\n"
let meta_file dir = Filename.concat dir "store.meta"
let objects_dir t = Filename.concat t.root "objects"
let refs_dir t = Filename.concat t.root "refs"

let open_ dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else
    let mf = meta_file dir in
    if not (Sys.file_exists mf) then
      Error (Printf.sprintf "%s: not a store (missing store.meta)" dir)
    else if Rt_util.Atomic_file.read mf <> marker then
      Error (Printf.sprintf "%s: foreign store format" dir)
    else Ok { root = dir }

let init dir =
  if Sys.file_exists (meta_file dir) then open_ dir
  else if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else
    let t = { root = dir } in
    let ( let* ) = Result.bind in
    let* () = Rt_util.Atomic_file.mkdir_p (objects_dir t) in
    let* () = Rt_util.Atomic_file.mkdir_p (refs_dir t) in
    match Rt_util.Atomic_file.write (meta_file dir) marker with
    | () -> Ok t
    | exception Sys_error m -> Error m

(* ---- blobs ------------------------------------------------------- *)

let address_of content = Digest.to_hex (Digest.string content)

let is_address a =
  String.length a = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       a

let obj_path t addr =
  Filename.concat
    (Filename.concat (objects_dir t) (String.sub addr 0 2))
    (String.sub addr 2 30)

let has_blob t addr = is_address addr && Sys.file_exists (obj_path t addr)

let put_blob t content =
  let addr = address_of content in
  let path = obj_path t addr in
  if Sys.file_exists path then Ok addr
  else
    Result.map
      (fun () ->
         Rt_util.Atomic_file.write path content;
         addr)
      (Rt_util.Atomic_file.mkdir_p (Filename.dirname path))

let read_blob t addr =
  if not (is_address addr) then
    Error (Printf.sprintf "%s: not a blob address" addr)
  else
    let path = obj_path t addr in
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "%s: no such object" addr)
    else
      let content = Rt_util.Atomic_file.read path in
      if address_of content <> addr then
        Error (Printf.sprintf "%s: object corrupt (hash mismatch)" addr)
      else Ok content

(* ---- refs -------------------------------------------------------- *)

let ref_ok name =
  String.length name > 0
  && name.[0] <> '/'
  && name.[String.length name - 1] <> '/'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '/' ->
           true
         | _ -> false)
       name
  &&
  (* no "." or ".." path segments, no empty segments *)
  List.for_all
    (fun seg -> seg <> "" && seg <> "." && seg <> "..")
    (String.split_on_char '/' name)

(* The ledger file carries a ".ref" suffix so a ref and its
   sub-namespace can coexist on the filesystem: "model" lives at
   refs/model.ref while "model/b1" lives under the refs/model/
   directory. *)
let ref_path t name = Filename.concat (refs_dir t) (name ^ ".ref")

let ref_header = "rtgen-ref v1"

(* One generation per line:
     gen <N> <addr> kind=<k> created=<c> [bound=<b>] [parents=a,b] [source=<rest>]
   source is last because it may contain spaces. *)
let entry_to_line e =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "gen %d %s kind=%s created=%d" e.gen e.address
       (kind_to_string e.meta.kind) e.meta.created_at);
  (match e.meta.bound with
   | Some n -> Buffer.add_string b (Printf.sprintf " bound=%d" n)
   | None -> ());
  (match e.meta.parents with
   | [] -> ()
   | ps -> Buffer.add_string b (" parents=" ^ String.concat "," ps));
  (match e.meta.source with
   | Some s -> Buffer.add_string b (" source=" ^ s)
   | None -> ());
  Buffer.contents b

let entry_of_line line =
  let fail m = Error (Printf.sprintf "bad ref line (%s): %s" m line) in
  match String.split_on_char ' ' line with
  | "gen" :: gen :: addr :: rest -> begin
      match int_of_string_opt gen with
      | None -> fail "generation"
      | Some gen ->
        if not (is_address addr) then fail "address"
        else begin
          let kind = ref None and bound = ref None and created = ref None in
          let parents = ref [] and source = ref None in
          let err = ref None in
          let rec eat = function
            | [] -> ()
            | f :: tl -> (
                match String.index_opt f '=' with
                | None -> err := Some "field"
                | Some i ->
                  let k = String.sub f 0 i in
                  let v = String.sub f (i + 1) (String.length f - i - 1) in
                  (match k with
                   | "kind" -> (
                       match kind_of_string v with
                       | Some k -> kind := Some k
                       | None -> err := Some "kind")
                   | "created" -> (
                       match int_of_string_opt v with
                       | Some c -> created := Some c
                       | None -> err := Some "created")
                   | "bound" -> (
                       match int_of_string_opt v with
                       | Some b -> bound := Some b
                       | None -> err := Some "bound")
                   | "parents" ->
                     parents :=
                       String.split_on_char ',' v
                       |> List.filter (fun p -> p <> "")
                   | "source" ->
                     (* source swallows the rest of the line *)
                     source := Some (String.concat " " (v :: tl))
                   | _ -> err := Some ("unknown field " ^ k));
                  if k = "source" then () else eat tl)
          in
          eat rest;
          match (!err, !kind, !created) with
          | Some m, _, _ -> fail m
          | None, Some kind, Some created_at ->
            Ok
              { gen; address = addr;
                meta =
                  { kind; bound = !bound; source = !source;
                    parents = !parents; created_at } }
          | None, None, _ -> fail "missing kind"
          | None, _, None -> fail "missing created"
        end
    end
  | _ -> fail "shape"

(* A ledger line ends with '\n'. [Atomic_file.append] is not atomic, so
   a writer that dies mid-commit can leave an unterminated last line:
   that generation was never committed, and readers drop it. *)
let committed_part text =
  match String.rindex_opt text '\n' with
  | None -> ""
  | Some i -> String.sub text 0 (i + 1)

let load_ref t name =
  let path = ref_path t name in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no such ref" name)
  else
    let lines =
      committed_part (Rt_util.Atomic_file.read path)
      |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> "")
    in
    match lines with
    | hd :: rest when hd = ref_header ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | l :: tl -> (
            match entry_of_line l with
            | Ok e -> go (e :: acc) tl
            | Error m -> Error (Printf.sprintf "%s: %s" name m))
      in
      go [] rest
    | _ -> Error (Printf.sprintf "%s: foreign ref format" name)

let generations t name =
  if not (ref_ok name) then Error (Printf.sprintf "%s: invalid ref name" name)
  else load_ref t name

(* The ledger's last line, read backwards from the end in doubling
   windows, so a commit costs the same at generation 800 as at 1.
   [None] when the file does not end in a newline (a torn append). *)
let last_line path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let len = in_channel_length ic in
  let rec go w =
    let w = min w len in
    seek_in ic (len - w);
    let s = really_input_string ic w in
    if w = 0 || s.[w - 1] <> '\n' then None
    else
      match String.rindex_from_opt s (w - 2) '\n' with
      | Some i -> Some (String.sub s (i + 1) (w - i - 2))
      | None when w = len -> Some (String.sub s 0 (w - 1))
      | None -> go (2 * w)
  in
  go 256

(* A commit appends one line to the ledger. Creating a ref, or
   recovering one whose last line is torn (or holds no generation),
   rewrites it whole through [Atomic_file.write] instead: header, the
   committed generations, the new one. Both give the same bytes. *)
let commit t ~ref_ ~meta blob =
  if not (ref_ok ref_) then
    Error (Printf.sprintf "%s: invalid ref name" ref_)
  else
    match put_blob t blob with
    | Error e -> Error e
    | Ok address ->
      let path = ref_path t ref_ in
      let entry gen = { gen; address; meta } in
      let rewrite entries =
        let e =
          entry (1 + List.fold_left (fun a e -> max a e.gen) 0 entries)
        in
        Result.map
          (fun () ->
             Rt_util.Atomic_file.write path
               (String.concat "\n"
                  (ref_header :: List.map entry_to_line (entries @ [ e ]))
                ^ "\n");
             e)
          (Rt_util.Atomic_file.mkdir_p (Filename.dirname path))
      in
      let append gen =
        let e = entry gen in
        Rt_util.Atomic_file.append path (entry_to_line e ^ "\n");
        Ok e
      in
      if not (Sys.file_exists path) then rewrite []
      else
        match last_line path with
        | Some l when l <> ref_header && String.trim l <> "" -> (
            match entry_of_line l with
            | Ok last -> append (last.gen + 1)
            | Error m -> Error (Printf.sprintf "%s: %s" ref_ m))
        | Some _ | None -> Result.bind (load_ref t ref_) rewrite

let resolve t spec =
  let name, sel =
    match String.rindex_opt spec '@' with
    | Some i ->
      (String.sub spec 0 i,
       Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | None -> (spec, None)
  in
  match generations t name with
  | Error _ as e -> e
  | Ok [] -> Error (Printf.sprintf "%s: ref has no generations" name)
  | Ok entries -> (
      let last = List.nth entries (List.length entries - 1) in
      match sel with
      | None | Some "latest" -> Ok last
      | Some g -> (
          match int_of_string_opt g with
          | None -> Error (Printf.sprintf "%s: bad generation %S" spec g)
          | Some g -> (
              match List.find_opt (fun e -> e.gen = g) entries with
              | Some e -> Ok e
              | None ->
                Error
                  (Printf.sprintf "%s: no generation %d (latest is %d)"
                     name g last.gen))))

let refs t =
  let dir = refs_dir t in
  let rec walk prefix acc d =
    if not (Sys.file_exists d && Sys.is_directory d) then acc
    else
      Array.fold_left
        (fun acc name ->
           let path = Filename.concat d name in
           let rel = if prefix = "" then name else prefix ^ "/" ^ name in
           if Sys.is_directory path then walk rel acc path
           else if Filename.check_suffix rel ".ref" then
             Filename.chop_suffix rel ".ref" :: acc
           else acc)
        acc (Sys.readdir d)
  in
  walk "" [] dir |> List.sort String.compare

let delete_ref t name =
  if not (ref_ok name) then Error (Printf.sprintf "%s: invalid ref name" name)
  else
    let path = ref_path t name in
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "%s: no such ref" name)
    else begin
      Sys.remove path;
      Ok ()
    end

(* A ref that does not load names blobs nobody can list, so gc refuses
   before deleting anything rather than collect what it may hold. *)
let gc t =
  let live = Hashtbl.create 64 in
  let rec collect = function
    | [] -> Ok ()
    | name :: rest -> (
        match load_ref t name with
        | Error m -> Error (Printf.sprintf "%s; gc deleted nothing" m)
        | Ok entries ->
          List.iter
            (fun e ->
               Hashtbl.replace live e.address ();
               List.iter (fun p -> Hashtbl.replace live p ()) e.meta.parents)
            entries;
          collect rest)
  in
  Result.bind (collect (refs t)) @@ fun () ->
  let kept = ref 0 and deleted = ref 0 in
  let odir = objects_dir t in
  if Sys.file_exists odir && Sys.is_directory odir then
    Array.iter
      (fun sub ->
         let subdir = Filename.concat odir sub in
         if Sys.is_directory subdir then
           Array.iter
             (fun name ->
                let path = Filename.concat subdir name in
                if Filename.check_suffix name ".tmp" then ()
                else if Hashtbl.mem live (sub ^ name) then incr kept
                else begin
                  (try Sys.remove path
                   with Sys_error _ when not (Sys.file_exists path) -> ());
                  incr deleted
                end)
             (Sys.readdir subdir))
      (Sys.readdir odir);
  Ok (!kept, !deleted)

let split_address s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '/' && s.[i + 1] = '/' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when i > 0 && i + 2 < n ->
    Some (String.sub s 0 i, String.sub s (i + 2) (n - i - 2))
  | _ -> None
