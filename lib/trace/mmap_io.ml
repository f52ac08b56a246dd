(* Zero-copy strict trace reader: mmap + in-place byte scan into a
   packed Event_arena. The contract is byte-for-byte parity with a
   strict Stream_io over lines_of_channel — same accepted inputs, same
   error text, same line numbers — so every branch below mirrors a
   branch of Stream_io.consume_line, in the same order. Keep the two in
   sync. *)

module A1 = Bigarray.Array1

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

type t = {
  trace : Trace.t;
  arena : Event_arena.t;
  marks : (int * int * int) array;
}

exception Fail of Stream_io.parse_error

let fail line message = raise (Fail { Stream_io.line; message })

let range_prefix = "event outside packed range: "

let is_range_error (e : Stream_io.parse_error) =
  String.length e.message >= String.length range_prefix
  && String.sub e.message 0 (String.length range_prefix) = range_prefix

type state = {
  buf : buf;
  len : int;
  arena : Event_arena.t;
  tok : int array;  (* scratch: (lo, hi) pairs of the first three tokens *)
  mutable lineno : int;
  mutable task_set : Rt_task.Task_set.t option;
  mutable names : string array;
  mutable cur_index : int option;
  mutable cur_lo : int;  (* arena offset where the open period began *)
  mutable marks : (int * int * int) list;   (* reverse *)
  mutable periods : Period.t list;          (* reverse *)
  mutable kept : int;
}

(* String.trim's whitespace set. *)
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let sub_string st lo hi = String.init (hi - lo) (fun i -> A1.get st.buf (lo + i))

let token_eq st lo hi kw =
  hi - lo = String.length kw
  && (let rec eq i =
        i < 0
        || (A1.unsafe_get st.buf (lo + i) = String.unsafe_get kw i
            && eq (i - 1))
      in
      eq (hi - lo - 1))

(* Integer parsing straight off the mapped bytes for the two lexemes
   real traces contain — plain decimal and 0x hex, short enough not to
   overflow. Anything else (signs, underscores, 0o/0b, overflow-length
   digit runs) falls back to [int_of_string_opt] on an allocated
   substring, so the accepted language is exactly Stream_io's. *)
let parse_int st lo hi =
  let n = hi - lo in
  if n = 0 then None
  else begin
    let c0 = A1.unsafe_get st.buf lo in
    let hex =
      c0 = '0' && n > 2 && n <= 17
      && (let c1 = A1.unsafe_get st.buf (lo + 1) in c1 = 'x' || c1 = 'X')
    in
    if hex then begin
      let acc = ref 0 and ok = ref true in
      for i = lo + 2 to hi - 1 do
        let c = A1.unsafe_get st.buf i in
        let d =
          if c >= '0' && c <= '9' then Char.code c - Char.code '0'
          else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
          else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
          else begin ok := false; 0 end
        in
        acc := (!acc lsl 4) lor d
      done;
      if !ok then Some !acc else int_of_string_opt (sub_string st lo hi)
    end
    else if c0 >= '0' && c0 <= '9' && n <= 18 then begin
      let acc = ref 0 and ok = ref true in
      for i = lo to hi - 1 do
        let c = A1.unsafe_get st.buf i in
        if c >= '0' && c <= '9' then
          acc := (!acc * 10) + (Char.code c - Char.code '0')
        else ok := false
      done;
      if !ok then Some !acc else int_of_string_opt (sub_string st lo hi)
    end
    else int_of_string_opt (sub_string st lo hi)
  end

(* Task lookup by comparing the buffer slice against each name: task
   sets are small, and this keeps the hot loop free of substring
   allocation. Equivalent to Task_set.index on the substring. *)
let find_task st lo hi =
  let names = st.names in
  let n = Array.length names in
  let rec go i =
    if i >= n then None
    else if token_eq st lo hi names.(i) then Some i
    else go (i + 1)
  in
  go 0

let push st lineno ~tag ~id ~time =
  match Event_arena.push_packed st.arena ~tag ~id ~time with
  | () -> ()
  | exception Invalid_argument m -> fail lineno (range_prefix ^ m)

let push_task st lineno ~tag ~time lo hi =
  match st.task_set with
  | None -> fail lineno "event before tasks line"
  | Some _ ->
    (match find_task st lo hi with
     | Some i -> push st lineno ~tag ~id:i ~time
     | None -> fail lineno ("unknown task: " ^ sub_string st lo hi))

let push_msg st lineno ~tag ~time lo hi =
  match parse_int st lo hi with
  | Some m -> push st lineno ~tag ~id:m ~time
  | None -> fail lineno ("bad message id: " ^ sub_string st lo hi)

let flush_period st lineno =
  match st.cur_index with
  | None -> ()
  | Some index ->
    let lo = st.cur_lo and hi = Event_arena.length st.arena in
    st.cur_index <- None;
    st.cur_lo <- hi;
    (match st.task_set with
     | None -> fail lineno "period before tasks line"
     | Some ts ->
       (match
          Period.make ~index ~task_set:ts (Event_arena.to_list ~lo ~hi st.arena)
        with
        | Ok p ->
          st.kept <- st.kept + 1;
          st.periods <- p :: st.periods;
          st.marks <- (index, lo, hi) :: st.marks
        | Error e ->
          fail lineno
            (Printf.sprintf "invalid period %d: %s" index
               (Period.string_of_error e))))

let tasks_line st lineno lo hi =
  if st.task_set <> None then fail lineno "duplicate tasks line";
  (* Collect the name tokens; [lo] points just past the "tasks" keyword. *)
  let names = ref [] and p = ref lo in
  while !p < hi do
    if A1.unsafe_get st.buf !p = ' ' then incr p
    else begin
      let s = !p in
      while !p < hi && A1.unsafe_get st.buf !p <> ' ' do incr p done;
      (* rtlint: allow RTL006 the tasks line is parsed once per file, not per event *)
      names := sub_string st s !p :: !names
    end
  done;
  match List.rev !names with
  | [] -> fail lineno "tasks line without names"
  | names ->
    (match Rt_task.Task_set.of_names (Array.of_list names) with
     | ts ->
       st.task_set <- Some ts;
       st.names <- Rt_task.Task_set.names ts
     | exception Invalid_argument m -> fail lineno m)

(* One trimmed, non-empty, non-comment line [lo, hi). Arm order mirrors
   Stream_io.consume_line's match: a "tasks" head wins at any arity,
   "period" needs exactly two tokens, any other three-token line is an
   event (so "period 1 2" fails as "bad timestamp: period"). *)
let consume st lineno lo hi =
  let ntok = ref 0 and p = ref lo in
  while !p < hi do
    if A1.unsafe_get st.buf !p = ' ' then incr p
    else begin
      let s = !p in
      while !p < hi && A1.unsafe_get st.buf !p <> ' ' do incr p done;
      if !ntok < 3 then begin
        st.tok.(!ntok * 2) <- s;
        st.tok.((!ntok * 2) + 1) <- !p
      end;
      incr ntok
    end
  done;
  let tlo i = st.tok.(i * 2) and thi i = st.tok.((i * 2) + 1) in
  if token_eq st (tlo 0) (thi 0) "tasks" then
    tasks_line st lineno (thi 0) hi
  else if !ntok = 2 && token_eq st (tlo 0) (thi 0) "period" then begin
    flush_period st lineno;
    match parse_int st (tlo 1) (thi 1) with
    | Some n -> st.cur_index <- Some n
    | None ->
      fail lineno ("bad period index: " ^ sub_string st (tlo 1) (thi 1))
  end
  else if !ntok = 3 then begin
    if st.cur_index = None then fail lineno "event before a period line";
    let time =
      match parse_int st (tlo 0) (thi 0) with
      | Some tm when tm >= 0 -> tm
      | Some _ -> fail lineno "negative timestamp"
      | None -> fail lineno ("bad timestamp: " ^ sub_string st (tlo 0) (thi 0))
    in
    let vlo = tlo 1 and vhi = thi 1 and alo = tlo 2 and ahi = thi 2 in
    if token_eq st vlo vhi "start" then
      push_task st lineno ~tag:Event_arena.tag_start ~time alo ahi
    else if token_eq st vlo vhi "end" then
      push_task st lineno ~tag:Event_arena.tag_end ~time alo ahi
    else if token_eq st vlo vhi "rise" then
      push_msg st lineno ~tag:Event_arena.tag_rise ~time alo ahi
    else if token_eq st vlo vhi "fall" then
      push_msg st lineno ~tag:Event_arena.tag_fall ~time alo ahi
    else fail lineno ("unknown event kind: " ^ sub_string st vlo vhi)
  end
  else fail lineno ("unparseable line: " ^ sub_string st lo hi)

(* Line segmentation mirrors input_line: a trailing newline ends the
   last line rather than opening an empty one, and an empty file has no
   lines — line numbers in errors depend on this. *)
let scan st =
  let pos = ref 0 in
  while !pos < st.len do
    let nl = ref !pos in
    while !nl < st.len && A1.unsafe_get st.buf !nl <> '\n' do incr nl done;
    st.lineno <- st.lineno + 1;
    let lo = ref !pos and hi = ref !nl in
    while !lo < !hi && is_space (A1.unsafe_get st.buf !lo) do incr lo done;
    while !hi > !lo && is_space (A1.unsafe_get st.buf (!hi - 1)) do
      decr hi
    done;
    if !lo < !hi && A1.unsafe_get st.buf !lo <> '#' then
      consume st st.lineno !lo !hi;
    pos := !nl + 1
  done;
  flush_period st st.lineno;
  match st.task_set with
  | None -> fail st.lineno "missing tasks line"
  | Some ts -> ts

let map_path path : buf =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       let size = (Unix.fstat fd).Unix.st_size in
       if size = 0 then A1.create Bigarray.char Bigarray.c_layout 0
       else
         Bigarray.array1_of_genarray
           (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]))

let load_body path =
  let buf = map_path path in
  let st =
    {
      buf;
      len = A1.dim buf;
      arena = Event_arena.create ();
      tok = Array.make 6 0;
      lineno = 0;
      task_set = None;
      names = [||];
      cur_index = None;
      cur_lo = 0;
      marks = [];
      periods = [];
      kept = 0;
    }
  in
  match scan st with
  | ts ->
    let quarantine =
      { Quarantine.skipped_lines = []; kept = st.kept; repaired = [];
        dropped = [] }
    in
    Ok
      ( { trace = Trace.of_periods ~task_set:ts (List.rev st.periods);
          arena = st.arena;
          marks = Array.of_list (List.rev st.marks) },
        quarantine )
  | exception Fail e -> Error e

let load ?obs path =
  (match obs with
   | Some r -> Rt_obs.Registry.span_begin r "ingest.parse"
   | None -> ());
  let res = load_body path in
  (match obs with
   | Some r ->
     (match res with
      | Ok (_, q) -> Quarantine.publish r q
      | Error _ -> ());
     Rt_obs.Registry.span_end r
   | None -> ());
  res
