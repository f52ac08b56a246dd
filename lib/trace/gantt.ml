let row_height = 24
let label_width = 80
let top_margin = 8

let to_svg ?(width = 800) (p : Period.t) =
  let executed = Period.executed_tasks p in
  let nrows = List.length executed + 1 (* bus row *) in
  let height = top_margin + (nrows * row_height) + 8 in
  let tmin, tmax =
    List.fold_left (fun (lo, hi) (e : Event.t) -> (min lo e.time, max hi e.time))
      (max_int, min_int) (Period.events p)
  in
  let tmin, tmax = if tmin > tmax then (0, 1) else (tmin, max tmax (tmin + 1)) in
  let plot = width - label_width - 10 in
  let x t = label_width + (plot * (t - tmin) / (tmax - tmin)) in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"12\">\n"
       width height);
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"white\"/>\n"
       width height);
  let row i = top_margin + (i * row_height) in
  List.iteri (fun i task ->
      let y = row i in
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"4\" y=\"%d\">%s</text>\n" (y + 16)
           (Rt_task.Task_set.name p.task_set task));
      let x0 = x p.start_time.(task) and x1 = x p.end_time.(task) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect class=\"task\" x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
            fill=\"#4a90d9\" stroke=\"#2a5a8a\"/>\n"
           x0 (y + 4) (max 1 (x1 - x0)) (row_height - 8)))
    executed;
  (* Bus row. *)
  let y = row (List.length executed) in
  Buffer.add_string buf
    (Printf.sprintf "<text x=\"4\" y=\"%d\">bus</text>\n" (y + 16));
  Array.iter (fun (m : Period.msg) ->
      let x0 = x m.rise and x1 = x m.fall in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect class=\"frame\" x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
            fill=\"#d98b4a\" stroke=\"#8a542a\"><title>0x%x</title></rect>\n"
           x0 (y + 4) (max 1 (x1 - x0)) (row_height - 8) m.bus_id))
    p.msgs;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save ?width path p =
  Rt_util.Atomic_file.write path (to_svg ?width p)
