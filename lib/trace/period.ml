type msg = { occ : int; bus_id : int; rise : int; fall : int }

type t = {
  index : int;
  task_set : Rt_task.Task_set.t;
  executed : bool array;
  executed_ix : int array;
  start_time : int array;
  end_time : int array;
  msgs : msg array;
}

type error =
  | Duplicate_start of int
  | Duplicate_end of int
  | End_without_start of int
  | Start_without_end of int
  | End_before_start of int
  | Fall_without_rise of int
  | Rise_without_fall of int
  | Unknown_task of int

let string_of_error = function
  | Duplicate_start i -> Printf.sprintf "task %d started twice in a period" i
  | Duplicate_end i -> Printf.sprintf "task %d ended twice in a period" i
  | End_without_start i -> Printf.sprintf "task %d ended without starting" i
  | Start_without_end i -> Printf.sprintf "task %d started but never ended" i
  | End_before_start i -> Printf.sprintf "task %d ended before it started" i
  | Fall_without_rise m -> Printf.sprintf "falling edge of 0x%x without rising edge" m
  | Rise_without_fall m -> Printf.sprintf "rising edge of 0x%x without falling edge" m
  | Unknown_task i -> Printf.sprintf "task index %d out of range" i

(* Raised without a backtrace by the validation scan; only a failing
   period builds its payload. *)
exception Invalid of error

let invalid e = raise_notrace (Invalid e)

module Builder = struct
  (* Events as three unboxed columns in arrival order, plus scratch for
     the validation scan: frames in rising-edge order ([m_*]; [m_occ] is
     the frame's falling-edge sequence number, -1 while open) and the
     indices of the frames still open. All columns have one length, so
     a period never has more frames or open frames than it has room
     for events. *)
  type t = {
    mutable len : int;
    mutable in_order : bool;  (* arrival order is Event.compare order *)
    mutable time : int array;
    mutable rank : int array;
    mutable key : int array;
    mutable m_id : int array;
    mutable m_rise : int array;
    mutable m_fall : int array;
    mutable m_occ : int array;
    mutable opened : int array;
  }

  let create () =
    let cap = 16 in
    let col () = Array.make cap 0 in
    { len = 0; in_order = true; time = col (); rank = col (); key = col ();
      m_id = col (); m_rise = col (); m_fall = col (); m_occ = col ();
      opened = col () }

  let clear b =
    b.len <- 0;
    b.in_order <- true

  let grow b =
    let cap = 2 * Array.length b.time in
    let wider a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.time <- wider b.time;
    b.rank <- wider b.rank;
    b.key <- wider b.key;
    b.m_id <- Array.make cap 0;
    b.m_rise <- Array.make cap 0;
    b.m_fall <- Array.make cap 0;
    b.m_occ <- Array.make cap 0;
    b.opened <- Array.make cap 0

  (* Event.compare on columns [i] and [j]. *)
  let compare_at b i j =
    let c = Int.compare b.time.(i) b.time.(j) in
    if c <> 0 then c
    else
      let c = Int.compare b.rank.(i) b.rank.(j) in
      if c <> 0 then c else Int.compare b.key.(i) b.key.(j)

  let add b ~time ~rank ~key =
    if b.len = Array.length b.time then grow b;
    let k = b.len in
    b.time.(k) <- time;
    b.rank.(k) <- rank;
    b.key.(k) <- key;
    b.len <- k + 1;
    if b.in_order && k > 0 && compare_at b (k - 1) k > 0 then
      b.in_order <- false

  let events b =
    List.init b.len (fun k ->
        { Event.time = b.time.(k); kind = Event.kind_of_rank b.rank.(k) b.key.(k) })

  (* The scan visits events in Event.compare order: arrival order, or a
     sorted permutation of it. Events that compare equal are identical,
     so the permutation's tie order cannot matter. *)
  let scan_order b =
    if b.in_order then None
    else begin
      let perm = Array.init b.len Fun.id in
      Array.sort (compare_at b) perm;
      Some perm
    end

  (* The open frame of bus id [m], as an index into [opened]; -1 if
     none. A serial bus keeps at most a few frames open at once. *)
  let rec find_open b nopen m i =
    if i = nopen then -1
    else if b.m_id.(b.opened.(i)) = m then i
    else find_open b nopen m (i + 1)

  (* Of the frames still open, the one with the earliest rise, then the
     lowest bus id: the dangling rise a failed period reports. *)
  let first_dangling b nopen =
    let best = ref b.opened.(0) in
    for i = 1 to nopen - 1 do
      let f = b.opened.(i) in
      let c = Int.compare b.m_rise.(f) b.m_rise.(!best) in
      if c < 0 || (c = 0 && b.m_id.(f) < b.m_id.(!best)) then best := f
    done;
    b.m_id.(!best)

  (* Frames ordered by rise, then by falling-edge sequence: the order
     the learner numbers them in. *)
  let frame_order b nmsgs =
    let sorted = ref true in
    for f = 1 to nmsgs - 1 do
      if b.m_rise.(f) = b.m_rise.(f - 1) && b.m_occ.(f) < b.m_occ.(f - 1) then
        sorted := false
    done;
    if !sorted then None
    else begin
      let perm = Array.init nmsgs Fun.id in
      Array.sort
        (fun f g ->
           let c = Int.compare b.m_rise.(f) b.m_rise.(g) in
           if c <> 0 then c else Int.compare b.m_occ.(f) b.m_occ.(g))
        perm;
      Some perm
    end

  let finish b ~index ~task_set =
    let n = Rt_task.Task_set.size task_set in
    let start_time = Array.make n (-1) in
    let end_time = Array.make n (-1) in
    let order = scan_order b in
    let nmsgs = ref 0 and nopen = ref 0 and falls = ref 0 in
    match
      for k = 0 to b.len - 1 do
        let j = match order with None -> k | Some perm -> perm.(k) in
        let time = b.time.(j) and rank = b.rank.(j) and key = b.key.(j) in
        if rank = Event.rank_start then begin
          if key < 0 || key >= n then invalid (Unknown_task key);
          if start_time.(key) >= 0 then invalid (Duplicate_start key);
          start_time.(key) <- time
        end
        else if rank = Event.rank_end then begin
          if key < 0 || key >= n then invalid (Unknown_task key);
          if start_time.(key) < 0 then invalid (End_without_start key);
          if end_time.(key) >= 0 then invalid (Duplicate_end key);
          if time < start_time.(key) then invalid (End_before_start key);
          end_time.(key) <- time
        end
        else if rank = Event.rank_rise then begin
          (* Frames with the same bus id pair rise-to-next-fall; nesting
             of the same id cannot happen on a serial bus. *)
          if find_open b !nopen key 0 >= 0 then invalid (Rise_without_fall key);
          let f = !nmsgs in
          b.m_id.(f) <- key;
          b.m_rise.(f) <- time;
          b.m_occ.(f) <- -1;
          b.opened.(!nopen) <- f;
          incr nmsgs;
          incr nopen
        end
        else begin
          let i = find_open b !nopen key 0 in
          if i < 0 then invalid (Fall_without_rise key);
          let f = b.opened.(i) in
          b.m_fall.(f) <- time;
          b.m_occ.(f) <- !falls;
          incr falls;
          decr nopen;
          b.opened.(i) <- b.opened.(!nopen)
        end
      done;
      if !nopen > 0 then invalid (Rise_without_fall (first_dangling b !nopen));
      for i = 0 to n - 1 do
        if start_time.(i) >= 0 && end_time.(i) < 0 then
          invalid (Start_without_end i)
      done
    with
    | exception Invalid e -> Error e
    | () ->
      let executed = Array.init n (fun i -> start_time.(i) >= 0) in
      (* Hoisted once per period: the candidate inference walks the
         executed tasks once per message, for every live hypothesis
         set. *)
      let executed_ix =
        let count = Array.fold_left (fun c e -> if e then c + 1 else c) 0 executed in
        let ix = Array.make count 0 in
        let k = ref 0 in
        Array.iteri (fun i e -> if e then begin ix.(!k) <- i; incr k end) executed;
        ix
      in
      let frames = frame_order b !nmsgs in
      let msgs =
        Array.init !nmsgs (fun occ ->
            let f = match frames with None -> occ | Some perm -> perm.(occ) in
            { occ; bus_id = b.m_id.(f); rise = b.m_rise.(f); fall = b.m_fall.(f) })
      in
      Ok { index; task_set; executed; executed_ix; start_time; end_time; msgs }
end

let make ~index ~task_set events =
  let b = Builder.create () in
  List.iter (fun (e : Event.t) ->
      Builder.add b ~time:e.time ~rank:(Event.kind_rank e.kind)
        ~key:(Event.kind_key e.kind))
    events;
  Builder.finish b ~index ~task_set

let make_exn ~index ~task_set events =
  match make ~index ~task_set events with
  | Ok p -> p
  | Error e -> invalid_arg ("Period.make_exn: " ^ string_of_error e)

(* A valid period holds exactly one start and one end per executed task
   and one rise and one fall per frame, so the digest names every event
   (DESIGN.md §14.3.1). *)
let events p =
  let acc = ref [] in
  Array.iter (fun i ->
      acc :=
        { Event.time = p.start_time.(i); kind = Event.Task_start i }
        :: { Event.time = p.end_time.(i); kind = Event.Task_end i } :: !acc)
    p.executed_ix;
  Array.iter (fun m ->
      acc :=
        { Event.time = m.rise; kind = Event.Msg_rise m.bus_id }
        :: { Event.time = m.fall; kind = Event.Msg_fall m.bus_id } :: !acc)
    p.msgs;
  List.sort Event.compare !acc

let event_count p = (2 * Array.length p.executed_ix) + (2 * Array.length p.msgs)

let filter_msgs keep p =
  let kept = List.filter keep (Array.to_list p.msgs) in
  { p with msgs = Array.of_list (List.mapi (fun occ m -> { m with occ }) kept) }

let executed_tasks p = Array.to_list p.executed_ix

let executed_count p = Array.length p.executed_ix

let msg_count p = Array.length p.msgs

let pp ppf p =
  let names = List.map (Rt_task.Task_set.name p.task_set) (executed_tasks p) in
  Format.fprintf ppf "period %d: tasks [%s], %d msgs"
    p.index (String.concat " " names) (Array.length p.msgs)
