type task_stats = {
  task : int;
  activations : int;
  activation_ratio : float;
  min_duration : int;
  max_duration : int;
  mean_duration : float;
  min_start : int;
  max_start : int;
}

type bus_stats = {
  frames : int;
  distinct_ids : int;
  busy_time : int;
  utilization : float;
  min_frame_time : int;
  max_frame_time : int;
}

type t = {
  periods : int;
  tasks : task_stats list;
  bus : bus_stats;
}

let of_trace trace =
  let n = Trace.task_count trace in
  let periods = Trace.periods trace in
  let nperiods = List.length periods in
  let acts = Array.make n 0 in
  let dur_sum = Array.make n 0 in
  let dur_min = Array.make n max_int and dur_max = Array.make n min_int in
  let start_min = Array.make n max_int and start_max = Array.make n min_int in
  let frames = ref 0 and busy = ref 0 in
  let ids = Hashtbl.create 16 in
  let ft_min = ref max_int and ft_max = ref min_int in
  let span_lo = ref max_int and span_hi = ref min_int in
  List.iter (fun (p : Period.t) ->
      for i = 0 to n - 1 do
        if p.executed.(i) then begin
          acts.(i) <- acts.(i) + 1;
          let d = p.end_time.(i) - p.start_time.(i) in
          dur_sum.(i) <- dur_sum.(i) + d;
          dur_min.(i) <- min dur_min.(i) d;
          dur_max.(i) <- max dur_max.(i) d;
          start_min.(i) <- min start_min.(i) p.start_time.(i);
          start_max.(i) <- max start_max.(i) p.start_time.(i)
        end
      done;
      Array.iter (fun (m : Period.msg) ->
          incr frames;
          Hashtbl.replace ids m.bus_id ();
          let ft = m.fall - m.rise in
          busy := !busy + ft;
          ft_min := min !ft_min ft;
          ft_max := max !ft_max ft)
        p.msgs;
      List.iter (fun (e : Event.t) ->
          span_lo := min !span_lo e.time;
          span_hi := max !span_hi e.time)
        (Period.events p))
    periods;
  let tasks =
    List.filter_map (fun i ->
        if acts.(i) = 0 then None
        else
          Some
            {
              task = i;
              activations = acts.(i);
              activation_ratio = Float.of_int acts.(i) /. Float.of_int (max 1 nperiods);
              min_duration = dur_min.(i);
              max_duration = dur_max.(i);
              mean_duration = Float.of_int dur_sum.(i) /. Float.of_int acts.(i);
              min_start = start_min.(i);
              max_start = start_max.(i);
            })
      (List.init n Fun.id)
  in
  let span = if !span_hi > !span_lo then !span_hi - !span_lo else 1 in
  {
    periods = nperiods;
    tasks;
    bus =
      {
        frames = !frames;
        distinct_ids = Hashtbl.length ids;
        busy_time = !busy;
        utilization = Float.of_int !busy /. Float.of_int span;
        min_frame_time = (if !frames = 0 then 0 else !ft_min);
        max_frame_time = (if !frames = 0 then 0 else !ft_max);
      };
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%d periods@," t.periods;
  Format.fprintf ppf "%-6s %6s %6s %8s %8s %8s@," "task" "acts" "ratio"
    "dur:min" "mean" "max";
  List.iter (fun s ->
      Format.fprintf ppf "t%-5d %6d %5.0f%% %8d %8.0f %8d@," (s.task + 1)
        s.activations
        (100.0 *. s.activation_ratio)
        s.min_duration s.mean_duration s.max_duration)
    t.tasks;
  Format.fprintf ppf
    "bus: %d frames, %d ids, busy %dus, utilization %.1f%%, frame %d..%dus@]"
    t.bus.frames t.bus.distinct_ids t.bus.busy_time
    (100.0 *. t.bus.utilization) t.bus.min_frame_time t.bus.max_frame_time

let to_string trace = Format.asprintf "%a" pp (of_trace trace)
