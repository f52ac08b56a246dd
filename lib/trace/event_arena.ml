(* Packed event arena. Layout (within OCaml's 63-bit int):

     bits 62..61  tag   : 0 Task_start | 1 Task_end | 2 Msg_rise | 3 Msg_fall
     bits 60..41  id    : task index or bus identifier
     bits 40..0   time  : microseconds

   The tag occupies the two highest usable bits so a packed word is
   always non-negative, which keeps textual dumps of raw words readable
   and lets the unused sign bit flag sentinel values if a future format
   needs them. *)

type t = {
  mutable buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
}

let id_bits = 20
let time_bits = 41
let max_id = (1 lsl id_bits) - 1
let max_time = (1 lsl time_bits) - 1

let tag_start = 0
let tag_end = 1
let tag_rise = 2
let tag_fall = 3

let tag_of_kind = function
  | Event.Task_start _ -> tag_start
  | Event.Task_end _ -> tag_end
  | Event.Msg_rise _ -> tag_rise
  | Event.Msg_fall _ -> tag_fall

let kind_id = function
  | Event.Task_start i | Event.Task_end i | Event.Msg_rise i | Event.Msg_fall i
    -> i

let pack_exn ~tag ~id ~time =
  if time < 0 || time > max_time then
    invalid_arg
      (Printf.sprintf "Event_arena: timestamp %d out of range" time);
  if id < 0 || id > max_id then
    invalid_arg (Printf.sprintf "Event_arena: identifier %d out of range" id);
  if tag < 0 || tag > 3 then
    invalid_arg (Printf.sprintf "Event_arena: bad kind tag %d" tag);
  (tag lsl (id_bits + time_bits)) lor (id lsl time_bits) lor time

let encode (e : Event.t) =
  pack_exn ~tag:(tag_of_kind e.kind) ~id:(kind_id e.kind) ~time:e.time

let decode w =
  let time = w land max_time in
  let id = (w lsr time_bits) land max_id in
  let kind =
    match (w lsr (id_bits + time_bits)) land 3 with
    | 0 -> Event.Task_start id
    | 1 -> Event.Task_end id
    | 2 -> Event.Msg_rise id
    | _ -> Event.Msg_fall id
  in
  { Event.time; kind }

let create ?(capacity = 4096) () =
  let capacity = max capacity 1 in
  { buf = Bigarray.(Array1.create int c_layout capacity); len = 0 }

let grow a =
  let cap = Bigarray.Array1.dim a.buf in
  let buf' = Bigarray.(Array1.create int c_layout (cap * 2)) in
  Bigarray.Array1.blit a.buf (Bigarray.Array1.sub buf' 0 cap);
  a.buf <- buf'

let push_word a w =
  if a.len = Bigarray.Array1.dim a.buf then grow a;
  Bigarray.Array1.unsafe_set a.buf a.len w;
  a.len <- a.len + 1

let push a e = push_word a (encode e)

let push_packed a ~tag ~id ~time = push_word a (pack_exn ~tag ~id ~time)

let length a = a.len

let get a i =
  if i < 0 || i >= a.len then invalid_arg "Event_arena.get: index out of range";
  decode (Bigarray.Array1.unsafe_get a.buf i)

let of_events events =
  let a = create ~capacity:(max (List.length events) 1) () in
  List.iter (push a) events;
  a

let to_list ?lo ?hi a =
  let lo = Option.value lo ~default:0 in
  let hi = Option.value hi ~default:a.len in
  if lo < 0 || hi > a.len || lo > hi then
    invalid_arg "Event_arena.to_list: range out of bounds";
  List.init (hi - lo) (fun i -> decode (Bigarray.Array1.unsafe_get a.buf (lo + i)))
