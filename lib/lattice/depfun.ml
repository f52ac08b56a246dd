(* Matrices are stored as flat row-major byte strings — one byte per
   cell, holding [Depval.index] of the value. An 18-task matrix is 324
   bytes (41 words), comfortably inside OCaml's minor-heap allocation
   limit; the learner allocates one matrix per generated hypothesis, and
   with a boxed [Depval.t array] every one of those was a 325-word
   major-heap allocation (beyond [Max_young_wosize]), which made the GC
   the dominant cost of a bounded run. Byte cells also let the hot
   pointwise operations run on pure int tables ([Depval.join_ix_tbl] and
   friends) with no per-cell variant dispatch. *)
type t = { n : int; cells : Bytes.t }

(* Local bindings so the per-cell loops index the tables directly. *)
let join_ix = Depval.join_ix_tbl
let leq_ix = Depval.leq_ix_tbl
let dist_ix = Depval.dist_ix_tbl
let cmp_ix = Depval.cmp_ix_tbl

let create n =
  if n < 1 then invalid_arg "Depfun.create: need at least one task";
  { n; cells = Bytes.make (n * n) '\000' }

let top n =
  let d = create n in
  let hi = Char.chr (Depval.index Depval.Bi_maybe) in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then Bytes.set d.cells ((a * n) + b) hi
    done
  done;
  d

let size d = d.n

let check d a b =
  if a < 0 || a >= d.n || b < 0 || b >= d.n then
    invalid_arg "Depfun: task index out of range"

let get d a b =
  check d a b;
  Depval.of_index (Char.code (Bytes.get d.cells ((a * d.n) + b)))

let set d a b v =
  check d a b;
  if a = b && not (Depval.equal v Depval.Par) then
    invalid_arg "Depfun.set: diagonal must stay Par";
  Bytes.set d.cells ((a * d.n) + b) (Char.chr (Depval.index v))

let join_cell d a b v =
  check d a b;
  let i = (a * d.n) + b in
  let old = Char.code (Bytes.get d.cells i) in
  let v' = join_ix.((old * 7) + Depval.index v) in
  if v' = old then false
  else begin
    if a = b then invalid_arg "Depfun.join_cell: diagonal must stay Par";
    Bytes.set d.cells i (Char.chr v');
    true
  end

let copy d = { n = d.n; cells = Bytes.copy d.cells }

let cells d = d.cells

let equal d1 d2 = d1.n = d2.n && Bytes.equal d1.cells d2.cells

let compare d1 d2 =
  let c = Int.compare d1.n d2.n in
  if c <> 0 then c
  else if Bytes.equal d1.cells d2.cells then 0
  else
    (* Per-cell [Depval.compare] (distance-major), {e not} byte order —
       the learner's canonical tie-break depends on this order staying
       exactly what the boxed representation used. Equal matrices, the
       learner's common case (its structural hash ties often), skip the
       loop through one [memcmp]. *)
    let rec loop i =
      if i >= d1.n * d1.n then 0
      else
        let ia = Char.code (Bytes.unsafe_get d1.cells i)
        and ib = Char.code (Bytes.unsafe_get d2.cells i) in
        if ia = ib then loop (i + 1) else cmp_ix.((ia * 7) + ib)
    in
    loop 0

let leq d1 d2 =
  d1.n = d2.n
  && (let rec loop i =
        i < 0
        || (leq_ix.(((Char.code (Bytes.unsafe_get d1.cells i)) * 7)
                    + Char.code (Bytes.unsafe_get d2.cells i))
            && loop (i - 1))
      in
      loop ((d1.n * d1.n) - 1))

let map2_ix name tbl d1 d2 =
  if d1.n <> d2.n then invalid_arg name;
  let m = d1.n * d1.n in
  let cells = Bytes.create m in
  for i = 0 to m - 1 do
    Bytes.unsafe_set cells i
      (Char.unsafe_chr
         tbl.(((Char.code (Bytes.unsafe_get d1.cells i)) * 7)
              + Char.code (Bytes.unsafe_get d2.cells i)))
  done;
  { n = d1.n; cells }

let meet_ix_tbl =
  Array.init 49 (fun k ->
      Depval.index (Depval.meet (Depval.of_index (k / 7)) (Depval.of_index (k mod 7))))

let join d1 d2 = map2_ix "Depfun.join: size mismatch" join_ix d1 d2

let meet d1 d2 = map2_ix "Depfun.meet: size mismatch" meet_ix_tbl d1 d2

let join_into ~dst d =
  if dst.n <> d.n then invalid_arg "Depfun.join_into: size mismatch";
  for i = 0 to (d.n * d.n) - 1 do
    Bytes.unsafe_set dst.cells i
      (Char.unsafe_chr
         join_ix.(((Char.code (Bytes.unsafe_get dst.cells i)) * 7)
                  + Char.code (Bytes.unsafe_get d.cells i)))
  done

let lub = function
  | [] -> invalid_arg "Depfun.lub: empty list"
  | d :: rest ->
    let acc = copy d in
    List.iter (fun d' -> join_into ~dst:acc d') rest;
    acc

(* Batched lub over a whole working set's matrices: one destination
   allocation, then a single tight unsafe byte loop per source matrix.
   Matrix-outer / cell-inner keeps each source sequential in memory,
   which is what the prefetcher wants; the per-cell body is the same
   [join_ix_tbl] lookup the pairwise kernels use. *)
let lub_many ds =
  let k = Array.length ds in
  if k = 0 then invalid_arg "Depfun.lub_many: empty array";
  let n = ds.(0).n in
  let m = n * n in
  for i = 1 to k - 1 do
    if ds.(i).n <> n then invalid_arg "Depfun.lub_many: size mismatch"
  done;
  let cells = Bytes.copy ds.(0).cells in
  for i = 1 to k - 1 do
    let src = ds.(i).cells in
    for j = 0 to m - 1 do
      Bytes.unsafe_set cells j
        (Char.unsafe_chr
           join_ix.(((Char.code (Bytes.unsafe_get cells j)) * 7)
                    + Char.code (Bytes.unsafe_get src j)))
    done
  done;
  { n; cells }

(* End-of-fold conditional-dependency pass on a bare matrix: weaken every
   definite cell whose pair some period violated. The shard fold applies
   this once with the union of the shards' violation matrices; see
   DESIGN.md sec. 14 for why that equals the monolithic interleaving. *)
let weaken_violations d ~violated =
  let n = d.n in
  if Array.length violated <> n then
    invalid_arg "Depfun.weaken_violations: size mismatch";
  let changed = ref 0 in
  for a = 0 to n - 1 do
    let row = violated.(a) in
    for b = 0 to n - 1 do
      if a <> b && row.(b) then begin
        let i = (a * n) + b in
        let v = Depval.of_index (Char.code (Bytes.unsafe_get d.cells i)) in
        if Depval.is_definite v then begin
          Bytes.unsafe_set d.cells i
            (Char.unsafe_chr (Depval.index (Depval.weaken v)));
          incr changed
        end
      end
    done
  done;
  !changed

let weight d =
  let w = ref 0 in
  for i = 0 to Bytes.length d.cells - 1 do
    w := !w + dist_ix.(Char.code (Bytes.unsafe_get d.cells i))
  done;
  !w

let iter_pairs f d =
  for a = 0 to d.n - 1 do
    for b = 0 to d.n - 1 do
      if a <> b then
        f a b (Depval.of_index (Char.code (Bytes.get d.cells ((a * d.n) + b))))
    done
  done

let fold_pairs f d init =
  let acc = ref init in
  iter_pairs (fun a b v -> acc := f a b v !acc) d;
  !acc

let count pred d = fold_pairs (fun _ _ v acc -> if pred v then acc + 1 else acc) d 0

let of_rows rows =
  let n = List.length rows in
  if n = 0 then invalid_arg "Depfun.of_rows: empty matrix";
  let d = create n in
  List.iteri (fun a row ->
      if List.length row <> n then invalid_arg "Depfun.of_rows: not square";
      List.iteri (fun b v ->
          if a = b then begin
            if not (Depval.equal v Depval.Par) then
              invalid_arg "Depfun.of_rows: diagonal must be Par"
          end
          else set d a b v)
        row)
    rows;
  d

let to_rows d =
  List.init d.n (fun a ->
      List.init d.n (fun b ->
          Depval.of_index (Char.code (Bytes.get d.cells ((a * d.n) + b)))))

(* The one renderer: every cell padded to the widest name or value, one
   row per line. It writes into one [Buffer]; [pp] prints its lines. *)
let to_string ?names d =
  let label =
    Array.init d.n (fun i ->
        match names with
        | None -> "t" ^ string_of_int (i + 1)
        | Some a -> if i < Array.length a then a.(i) else "t" ^ string_of_int i)
  in
  let cell a b =
    Depval.to_string (Depval.of_index (Char.code (Bytes.get d.cells ((a * d.n) + b))))
  in
  let width = ref 0 in
  for a = 0 to d.n - 1 do
    width := max !width (String.length label.(a));
    for b = 0 to d.n - 1 do
      width := max !width (String.length (cell a b))
    done
  done;
  let buf = Buffer.create ((d.n + 1) * (d.n + 1) * (!width + 1)) in
  let pad s =
    Buffer.add_string buf s;
    for _ = String.length s to !width - 1 do Buffer.add_char buf ' ' done
  in
  pad "";
  Array.iter (fun l -> Buffer.add_char buf ' '; pad l) label;
  for a = 0 to d.n - 1 do
    Buffer.add_char buf '\n';
    pad label.(a);
    for b = 0 to d.n - 1 do Buffer.add_char buf ' '; pad (cell a b) done
  done;
  Buffer.contents buf

let pp ?names ppf d =
  List.iteri
    (fun i line ->
       if i > 0 then Format.pp_force_newline ppf ();
       Format.pp_print_string ppf line)
    (String.split_on_char '\n' (to_string ?names d))

let parse s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let fields l =
    String.split_on_char ' ' l |> List.filter (fun f -> f <> "")
  in
  match lines with
  | [] -> Error "empty input"
  | header :: rows ->
    let names = fields header in
    let n = List.length names in
    if n = 0 then Error "no task names in header"
    else if List.length rows <> n then
      Error (Printf.sprintf "expected %d rows, got %d" n (List.length rows))
    else begin
      let exception Fail of string in
      try
        let parsed_rows =
          List.map (fun row ->
              match fields row with
              | name :: cells ->
                if not (List.mem name names) then
                  raise (Fail ("unknown row label " ^ name));
                if List.length cells <> n then
                  raise (Fail ("wrong cell count in row " ^ name));
                List.map (fun cell ->
                    match Depval.of_string cell with
                    | Some v -> v
                    | None -> raise (Fail ("bad dependency value " ^ cell)))
                  cells
              | [] -> raise (Fail "empty row"))
            rows
        in
        match of_rows parsed_rows with
        | d -> Ok (d, Array.of_list names)
        | exception Invalid_argument m -> Error m
      with Fail m -> Error m
    end

let parse_exn s =
  match parse s with
  | Ok r -> r
  | Error m -> invalid_arg ("Depfun.parse_exn: " ^ m)
