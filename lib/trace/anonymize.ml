type mapping = {
  task_names : (string * string) list;
  bus_ids : (int * int) list;
}

let letter i =
  if i < 26 then String.make 1 (Char.chr (Char.code 'A' + i))
  else Printf.sprintf "T%d" i

let anonymize ?(rebase_time = true) (t : Trace.t) =
  let old_names = Rt_task.Task_set.names t.task_set in
  let new_names = Array.mapi (fun i _ -> letter i) old_names in
  let task_set = Rt_task.Task_set.of_names new_names in
  (* Bus ids in first-appearance order across the whole trace. *)
  let id_map : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0x100 in
  let anon_id id =
    match Hashtbl.find_opt id_map id with
    | Some x -> x
    | None ->
      let x = !next in
      incr next;
      Hashtbl.add id_map id x;
      x
  in
  let periods =
    List.map (fun (p : Period.t) ->
        let events = Period.events p in
        let base =
          if rebase_time then
            List.fold_left (fun acc (e : Event.t) -> min acc e.time) max_int
              events
          else 0
        in
        let base = if base = max_int then 0 else base in
        let events =
          List.map (fun (e : Event.t) ->
              let kind =
                match e.kind with
                | Event.Msg_rise m -> Event.Msg_rise (anon_id m)
                | Event.Msg_fall m -> Event.Msg_fall (anon_id m)
                | (Event.Task_start _ | Event.Task_end _) as k -> k
              in
              { Event.time = e.time - base; kind })
            events
        in
        Period.make_exn ~index:p.index ~task_set events)
      (Trace.periods t)
  in
  let mapping =
    {
      task_names =
        Array.to_list (Array.mapi (fun i n -> (n, new_names.(i))) old_names);
      bus_ids =
        Hashtbl.fold (fun o a acc -> (o, a) :: acc) id_map []
        |> List.sort (fun (o1, _) (o2, _) -> Int.compare o1 o2);
    }
  in
  (Trace.of_periods ~task_set periods, mapping)

let apply_names mapping name = List.assoc_opt name mapping.task_names
