type frame = { can_id : int; tx_time : int; tag : int }

type t = {
  queue : frame Rt_util.Binary_heap.t;
  mutable current : frame option;
}

let cmp_frame a b =
  let c = Int.compare a.can_id b.can_id in
  if c <> 0 then c else Int.compare a.tag b.tag

let create () =
  { queue = Rt_util.Binary_heap.create ~cmp:cmp_frame ~capacity:16; current = None }

let submit t f = Rt_util.Binary_heap.push t.queue f

let is_idle t = t.current = None

let pending t = Rt_util.Binary_heap.length t.queue

let try_start t ~now =
  match t.current with
  | Some _ -> None
  | None ->
    (match Rt_util.Binary_heap.pop t.queue with
     | None -> None
     | Some f ->
       t.current <- Some f;
       Some (f, now + f.tx_time))

let complete t =
  match t.current with
  | None -> invalid_arg "Can_bus.complete: bus is idle"
  | Some f ->
    t.current <- None;
    f
