type victim_policy = Lightest_pair | Heaviest_pair | First_last

(* Canonical ascending order: weight first, then the structural order.
   Total on distinct hypotheses ([compare_full] = 0 only for duplicates,
   which [insert] rejects). *)
let canonical h h' =
  let c = Int.compare (Hypothesis.weight h) (Hypothesis.weight h') in
  if c <> 0 then c else Hypothesis.compare_full h h'

(* Below this bound the array-plus-index machinery loses to a plain
   sorted list: the hash index, binary search and blits only pay for
   themselves once the set is big enough. 64 is the conservative
   break-even of the array-vs-list runs in DESIGN.md §14.4: forcing the
   array at bounds 1–32 cost 13–33% more CPU per learn on a GM trace. *)
let crossover_bound = 64

type repr = Array_repr | List_repr

(* The dedup index is keyed by one int mixing [hash] and [a_hash]: no
   tuple to allocate, and no polymorphic [caml_hash]/[compare] per
   lookup. Keys are already mixed, so the table hashes them as they are. *)
module Index = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash k = k land max_int
end)

type t = {
  bound : int;
  repr : repr;
  (* Array representation: sorted descending under [canonical], so the
     default eviction (lightest pair) is a pop off the end. Empty until
     the first insertion (OCaml arrays need a witness element). *)
  mutable data : Hypothesis.t array;
  mutable len : int;
  (* [key] -> hypotheses with that mixed key. Buckets are almost always
     singletons; [compare_full] resolves true collisions. *)
  index : Hypothesis.t list Index.t;
  (* List representation: sorted ascending under [canonical] — the seed
     layout, selected below [crossover_bound]. [len] tracks both. *)
  mutable items : Hypothesis.t list;
}

let make repr ~bound =
  { bound; repr; data = [||]; len = 0;
    index = Index.create (2 * (bound + 1)); items = [] }

let create_with ~repr ~bound =
  make (match repr with `Array -> Array_repr | `List -> List_repr) ~bound

let create ~bound =
  make (if bound < crossover_bound then List_repr else Array_repr) ~bound

let uses_list_repr t = t.repr = List_repr

let length t = t.len

let clear t =
  t.len <- 0;
  match t.repr with
  | List_repr -> t.items <- []
  | Array_repr -> Index.reset t.index

(* Both hashes mixed into one key; the final multiply-xorshift spreads
   them into the low bits the table indexes by. *)
let key h =
  let k = (Hypothesis.hash h lxor (Hypothesis.a_hash h * 0x2545F4914F6CDD1D))
          * 0x1E3779B97F4A7C15 in
  k lxor (k lsr 29)

let bucket t k = match Index.find t.index k with b -> b | exception Not_found -> []

let rec mem_list h = function
  | [] -> false
  | h' :: tl ->
    let c = canonical h h' in
    c = 0 || (c > 0 && mem_list h tl)

let mem t h =
  match t.repr with
  | List_repr -> mem_list h t.items
  | Array_repr ->
    List.exists (fun h' -> Hypothesis.compare_full h h' = 0) (bucket t (key h))

let index_remove t h =
  let k = key h in
  match List.filter (fun h' -> h' != h) (bucket t k) with
  | [] -> Index.remove t.index k
  | rest -> Index.replace t.index k rest

let ensure_capacity t h =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max (t.bound + 1) (max 4 (2 * cap)) in
    let nd = Array.make ncap h in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end

exception Duplicate

(* Sorted insertion, one pass for both the dedup test and the slot —
   exactly the seed's list discipline. *)
let rec ins_list h = function
  | [] -> [ h ]
  | h' :: tl as l ->
    let c = canonical h h' in
    if c = 0 then raise Duplicate
    else if c < 0 then h :: l
    else h' :: ins_list h tl

(* Dedup check and index update share one bucket lookup — [add] is on
   the per-child hot path of the learner. *)
let add t h =
  match t.repr with
  | List_repr ->
    (match ins_list h t.items with
     | items ->
       t.items <- items;
       t.len <- t.len + 1;
       true
     | exception Duplicate -> false)
  | Array_repr ->
    let k = key h in
    let bucket = bucket t k in
    if List.exists (fun h' -> Hypothesis.compare_full h h' = 0) bucket then
      false
    else begin
      ensure_capacity t h;
      (* Binary search in the descending array: smallest index whose
         element is canonically below [h]. *)
      let lo = ref 0 and hi = ref t.len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if canonical t.data.(mid) h > 0 then lo := mid + 1 else hi := mid
      done;
      let pos = !lo in
      Array.blit t.data pos t.data (pos + 1) (t.len - pos);
      t.data.(pos) <- h;
      t.len <- t.len + 1;
      Index.replace t.index k (h :: bucket);
      true
    end

let insert t h =
  if not (add t h) then invalid_arg "Workset.insert: duplicate hypothesis"

let extract_pair t policy =
  if t.len < 2 then invalid_arg "Workset.extract_pair: fewer than 2 elements";
  match t.repr with
  | List_repr ->
    t.len <- t.len - 2;
    (match policy with
     | Lightest_pair ->
       (match t.items with
        | a :: b :: rest ->
          t.items <- rest;
          (a, b)
        | _ -> assert false)
     | Heaviest_pair ->
       (match List.rev t.items with
        | a :: b :: rest ->
          t.items <- List.rev rest;
          (a, b)
        | _ -> assert false)
     | First_last ->
       (match t.items with
        | a :: rest ->
          (match List.rev rest with
           | z :: mid ->
             t.items <- List.rev mid;
             (a, z)
           | [] -> assert false)
        | [] -> assert false))
  | Array_repr ->
    let a, b =
      match policy with
      | Lightest_pair ->
        (* Last two slots; no shifting. *)
        let a = t.data.(t.len - 1) and b = t.data.(t.len - 2) in
        t.len <- t.len - 2;
        (a, b)
      | Heaviest_pair ->
        let a = t.data.(0) and b = t.data.(1) in
        Array.blit t.data 2 t.data 0 (t.len - 2);
        t.len <- t.len - 2;
        (a, b)
      | First_last ->
        let a = t.data.(t.len - 1) and z = t.data.(0) in
        Array.blit t.data 1 t.data 0 (t.len - 2);
        t.len <- t.len - 2;
        (a, z)
    in
    index_remove t a;
    index_remove t b;
    (a, b)

let to_list t =
  match t.repr with
  | List_repr -> t.items
  | Array_repr ->
    let acc = ref [] in
    for i = 0 to t.len - 1 do acc := t.data.(i) :: !acc done;
    !acc

let to_array t =
  match t.repr with
  | List_repr -> Array.of_list t.items
  | Array_repr -> Array.init t.len (fun i -> t.data.(t.len - 1 - i))

let index_add t h =
  let k = key h in
  Index.replace t.index k (h :: bucket t k)

let of_list ~bound l =
  let t = create ~bound in
  match t.repr with
  | List_repr ->
    t.items <- List.sort canonical l;
    t.len <- List.length l;
    t
  | Array_repr ->
    (* A min-heap under the reversed order drains heaviest-first, which
       is exactly the internal layout. *)
    let heap = Rt_util.Binary_heap.of_list ~cmp:(fun a b -> canonical b a) l in
    let n = Rt_util.Binary_heap.length heap in
    if n > 0 then begin
      t.data <- Array.make (max n (bound + 1)) (List.hd l);
      for i = 0 to n - 1 do
        let h = Rt_util.Binary_heap.pop_exn heap in
        t.data.(i) <- h;
        index_add t h
      done;
      t.len <- n
    end;
    t
