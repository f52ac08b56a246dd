(* VCD identifier codes: printable ASCII starting at '!'. *)
let code k =
  let base = Char.code '!' in
  let span = 94 in
  if k < span then String.make 1 (Char.chr (base + k))
  else
    String.make 1 (Char.chr (base + (k / span)))
    ^ String.make 1 (Char.chr (base + (k mod span)))

let default_period_len t =
  let tmax =
    List.fold_left (fun acc (p : Period.t) ->
        List.fold_left (fun acc (e : Event.t) -> max acc e.time) acc (Period.events p))
      0 (Trace.periods t)
  in
  let rec pow10 x = if x > tmax then x else pow10 (x * 10) in
  pow10 10

let to_string ?period_len (t : Trace.t) =
  let period_len =
    match period_len with Some l -> l | None -> default_period_len t
  in
  let names = Rt_task.Task_set.names t.task_set in
  let ntasks = Array.length names in
  (* Collect the distinct bus ids in first-seen order, straight from the
     events so that every edge emitted below has a declared signal. *)
  let id_code : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let ids = ref [] in
  List.iter (fun (p : Period.t) ->
      List.iter (fun (e : Event.t) ->
          match e.kind with
          | Event.Msg_rise m | Event.Msg_fall m ->
            if not (Hashtbl.mem id_code m) then begin
              Hashtbl.add id_code m (code (ntasks + Hashtbl.length id_code));
              ids := m :: !ids
            end
          | Event.Task_start _ | Event.Task_end _ -> ())
        (Period.events p))
    (Trace.periods t);
  let ids = List.rev !ids in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$timescale 1us $end\n";
  Printf.bprintf buf "$comment period_len %d $end\n" period_len;
  Buffer.add_string buf "$scope module trace $end\n";
  Array.iteri (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire 1 %s task_%s $end\n" (code i) name))
    names;
  List.iter (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire 1 %s can_0x%x $end\n" (Hashtbl.find id_code id) id))
    ids;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  Buffer.add_string buf "$dumpvars\n";
  Array.iteri (fun i _ -> Buffer.add_string buf (Printf.sprintf "0%s\n" (code i)))
    names;
  List.iter (fun id ->
      Buffer.add_string buf (Printf.sprintf "0%s\n" (Hashtbl.find id_code id)))
    ids;
  Buffer.add_string buf "$end\n";
  (* Emit changes grouped by timestamp across the whole trace. *)
  let changes =
    List.concat_map (fun (p : Period.t) ->
        let base = p.index * period_len in
        List.map (fun (e : Event.t) ->
            match e.kind with
            | Event.Task_start i -> (base + e.time, '1', code i)
            | Event.Task_end i -> (base + e.time, '0', code i)
            | Event.Msg_rise m -> (base + e.time, '1', Hashtbl.find id_code m)
            | Event.Msg_fall m -> (base + e.time, '0', Hashtbl.find id_code m))
          (Period.events p))
      (Trace.periods t)
  in
  let changes = List.stable_sort (fun (t1, _, _) (t2, _, _) -> Int.compare t1 t2) changes in
  let last_time = ref (-1) in
  List.iter (fun (time, bit, c) ->
      if time <> !last_time then begin
        Buffer.add_string buf (Printf.sprintf "#%d\n" time);
        last_time := time
      end;
      Buffer.add_char buf bit;
      Buffer.add_string buf c;
      Buffer.add_char buf '\n')
    changes;
  Buffer.contents buf

let save ?period_len path t =
  Rt_util.Atomic_file.write path (to_string ?period_len t)

type parse_error = { line : int; message : string }

type signal = Task of int | Can of int

let prefixed ~prefix name =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    Some (String.sub name pl (String.length name - pl))
  else None

let of_string ?period_len s =
  let exception Fail of parse_error in
  let fail line message = raise (Fail { line; message }) in
  let lines = String.split_on_char '\n' s in
  let codes : (string, signal) Hashtbl.t = Hashtbl.create 16 in
  let task_names = ref [] in
  let in_defs = ref true and in_dump = ref false in
  let time = ref 0 in
  let events = ref [] in
  let declared = ref None in  (* the exporter's period_len comment *)
  try
    List.iteri (fun i raw ->
        let lineno = i + 1 in
        let line = String.trim raw in
        if line = "" then ()
        else
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ "$var"; _ty; width; c; name; "$end" ] ->
            if not !in_defs then fail lineno "$var after $enddefinitions";
            if width <> "1" then fail lineno ("unsupported var width: " ^ width);
            if Hashtbl.mem codes c then
              fail lineno ("duplicate identifier code: " ^ c);
            let signal =
              match prefixed ~prefix:"task_" name with
              | Some tname ->
                let idx = List.length !task_names in
                task_names := tname :: !task_names;
                Task idx
              | None ->
                (match prefixed ~prefix:"can_0x" name with
                 | Some hex ->
                   (match int_of_string_opt ("0x" ^ hex) with
                    | Some id -> Can id
                    | None -> fail lineno ("bad bus id in signal name: " ^ name))
                 | None -> fail lineno ("unrecognised signal name: " ^ name))
            in
            Hashtbl.add codes c signal
          | [ "$comment"; "period_len"; l; "$end" ] ->
            (match int_of_string_opt l with
             | Some l when l > 0 -> declared := Some l
             | Some _ | None -> fail lineno ("bad period_len: " ^ l))
          | "$enddefinitions" :: _ -> in_defs := false
          | "$dumpvars" :: _ -> in_dump := true
          | [ "$end" ] -> in_dump := false
          | tok :: _ when tok.[0] = '$' -> ()
          | [ tok ] when tok.[0] = '#' ->
            (match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
             | Some t when t >= 0 ->
               if t < !time then fail lineno "timestamps must not decrease";
               time := t
             | Some _ | None -> fail lineno ("bad timestamp: " ^ tok))
          | [ tok ] when tok.[0] = '0' || tok.[0] = '1' ->
            let c = String.sub tok 1 (String.length tok - 1) in
            (match Hashtbl.find_opt codes c with
             | None -> fail lineno ("unknown identifier code: " ^ c)
             | Some signal ->
               if !in_dump then ()
               else
                 let kind =
                   match (signal, tok.[0]) with
                   | Task i, '1' -> Event.Task_start i
                   | Task i, '0' -> Event.Task_end i
                   | Can m, '1' -> Event.Msg_rise m
                   | Can m, '0' -> Event.Msg_fall m
                   | _ -> assert false
                 in
                 events := { Event.time = !time; kind } :: !events)
          | tok :: _ -> fail lineno ("unparseable line: " ^ tok)
          | [] -> ())
      lines;
    let names = Array.of_list (List.rev !task_names) in
    if Array.length names = 0 then
      fail (List.length lines) "no task_* signals declared";
    let task_set =
      match Rt_task.Task_set.of_names names with
      | ts -> ts
      | exception Invalid_argument m -> fail 0 m
    in
    let events = List.rev !events in
    let period_len =
      match period_len with
      | Some l -> if l <= 0 then fail 0 "period_len must be positive" else l
      | None ->
        (match (!declared, Trace.infer_period events) with
         | Some l, _ | None, Some l -> l
         | None, None ->
           1 + List.fold_left (fun acc (e : Event.t) -> max acc e.time) 0 events)
    in
    (* A VCD timeline is laid out end to end: bucket each event by
       [time / period_len] and re-base its period at 0. *)
    let by_period : (int, Event.t list) Hashtbl.t = Hashtbl.create 32 in
    List.iter (fun (e : Event.t) ->
        let idx = e.time / period_len in
        let e = { e with Event.time = e.time - (idx * period_len) } in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_period idx) in
        Hashtbl.replace by_period idx (e :: cur))
      events;
    let idxs =
      Hashtbl.fold (fun k _ acc -> k :: acc) by_period []
      |> List.sort Int.compare
    in
    let ps =
      List.mapi (fun new_idx old_idx ->
          match
            Period.make ~index:new_idx ~task_set
              (List.rev (Hashtbl.find by_period old_idx))
          with
          | Ok p -> p
          | Error e ->
            fail 0
              (Printf.sprintf "period %d: %s" old_idx (Period.string_of_error e)))
        idxs
    in
    Ok (Trace.of_periods ~task_set ps, period_len)
  with Fail e -> Error e

let load ?period_len path =
  of_string ?period_len (Rt_util.Atomic_file.read path)
