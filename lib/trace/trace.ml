type t = { task_set : Rt_task.Task_set.t; periods : Period.t array }

let of_periods ~task_set ps =
  List.iter (fun (p : Period.t) ->
      if not (Rt_task.Task_set.equal p.task_set task_set) then
        invalid_arg "Trace.of_periods: period over a different task set")
    ps;
  { task_set; periods = Array.of_list ps }

let median = function
  | [] -> None
  | l ->
    let a = Array.of_list l in
    Array.sort Int.compare a;
    Some a.(Array.length a / 2)

let infer_period events =
  let starts : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (e : Event.t) ->
      match e.kind with
      | Event.Task_start i ->
        Hashtbl.replace starts i
          (e.time :: Option.value ~default:[] (Hashtbl.find_opt starts i))
      | Event.Task_end _ | Event.Msg_rise _ | Event.Msg_fall _ -> ())
    events;
  let per_task =
    Hashtbl.fold (fun _ times acc ->
        let times = List.sort Int.compare times in
        if List.length times < 3 then acc
        else
          let rec gaps = function
            | a :: (b :: _ as rest) -> (b - a) :: gaps rest
            | [ _ ] | [] -> []
          in
          match median (gaps times) with
          | Some g when g > 0 -> g :: acc
          | Some _ | None -> acc)
      starts []
  in
  median per_task

let periods t = Array.to_list t.periods

let period_count t = Array.length t.periods

let task_count t = Rt_task.Task_set.size t.task_set

let total_messages t =
  Array.fold_left (fun acc p -> acc + Period.msg_count p) 0 t.periods

let total_events t =
  Array.fold_left (fun acc p -> acc + Period.event_count p) 0 t.periods

let executed_matrix t =
  Array.to_list t.periods
  |> List.map (fun (p : Period.t) -> Array.copy p.executed)
  |> Array.of_list

let pp_summary ppf t =
  Format.fprintf ppf "trace: %d tasks, %d periods, %d messages, %d events"
    (task_count t) (period_count t) (total_messages t) (total_events t)
