let header = "# rtgen-trace v1"

let render task_set iter_periods =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "tasks";
  Array.iter (fun n ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf n)
    (Rt_task.Task_set.names task_set);
  Buffer.add_char buf '\n';
  iter_periods (fun index events ->
      Buffer.add_string buf (Printf.sprintf "period %d\n" index);
      List.iter (fun (e : Event.t) ->
          let line =
            match e.kind with
            | Event.Task_start i ->
              Printf.sprintf "%d start %s" e.time (Rt_task.Task_set.name task_set i)
            | Event.Task_end i ->
              Printf.sprintf "%d end %s" e.time (Rt_task.Task_set.name task_set i)
            | Event.Msg_rise m -> Printf.sprintf "%d rise 0x%x" e.time m
            | Event.Msg_fall m -> Printf.sprintf "%d fall 0x%x" e.time m
          in
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        events);
  Buffer.contents buf

let to_string (t : Trace.t) =
  render t.task_set (fun f ->
      List.iter (fun (p : Period.t) -> f p.index (Period.events p))
        (Trace.periods t))

let save path t = Rt_util.Atomic_file.write path (to_string t)

type parse_error = Stream_io.parse_error = { line : int; message : string }

type mode = Stream_io.mode

(* Batch parsing drains the incremental {!Stream_io} parser: one
   implementation serves this path and the live [--stream]/[watch]
   paths, so they cannot disagree. *)
let parse ~mode ?eps ?window source =
  let p = Stream_io.create ~mode ?eps ?window source in
  let rec drain acc =
    match Stream_io.next p with
    | Ok (Some period) -> drain (period :: acc)
    | Ok None ->
      let ts = Option.get (Stream_io.task_set p) in
      Ok (Trace.of_periods ~task_set:ts (List.rev acc), Stream_io.quarantine p)
    | Error e -> Error e
  in
  drain []

let of_string ?(mode = `Strict) ?eps ?window s =
  parse ~mode ?eps ?window (Stream_io.lines_of_string s)

let of_string_exn s =
  match of_string s with
  | Ok (t, _) -> t
  | Error e ->
    invalid_arg (Printf.sprintf "Trace_io.of_string_exn: line %d: %s" e.line e.message)

let load ?(mode = `Strict) ?eps ?window path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      parse ~mode ?eps ?window (Stream_io.lines_of_channel ic))
