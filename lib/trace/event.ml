type kind =
  | Task_start of int
  | Task_end of int
  | Msg_rise of int
  | Msg_fall of int

type t = { time : int; kind : kind }

(* At equal timestamps, order events causally: a task end may enable a
   frame; a falling edge may enable both the next frame's rising edge
   (back-to-back bus transmissions) and a task start. *)
let rank_end = 0
let rank_fall = 1
let rank_rise = 2
let rank_start = 3

let kind_rank = function
  | Task_end _ -> rank_end
  | Msg_fall _ -> rank_fall
  | Msg_rise _ -> rank_rise
  | Task_start _ -> rank_start

let kind_key = function
  | Task_start i | Task_end i | Msg_rise i | Msg_fall i -> i

let kind_of_rank rank key =
  if rank = rank_end then Task_end key
  else if rank = rank_fall then Msg_fall key
  else if rank = rank_rise then Msg_rise key
  else if rank = rank_start then Task_start key
  else invalid_arg "Event.kind_of_rank"

let compare a b =
  let c = Int.compare a.time b.time in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
    if c <> 0 then c else Int.compare (kind_key a.kind) (kind_key b.kind)

let task e =
  match e.kind with
  | Task_start i | Task_end i -> Some i
  | Msg_rise _ | Msg_fall _ -> None

let msg_id e =
  match e.kind with
  | Msg_rise i | Msg_fall i -> Some i
  | Task_start _ | Task_end _ -> None

let to_string ts e =
  match e.kind with
  | Task_start i -> Printf.sprintf "%8d start %s" e.time (Rt_task.Task_set.name ts i)
  | Task_end i -> Printf.sprintf "%8d end   %s" e.time (Rt_task.Task_set.name ts i)
  | Msg_rise m -> Printf.sprintf "%8d rise  0x%x" e.time m
  | Msg_fall m -> Printf.sprintf "%8d fall  0x%x" e.time m

let pp ts ppf e = Format.pp_print_string ppf (to_string ts e)
