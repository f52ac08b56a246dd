let header = "# rtgen-trace v1"

let to_string (t : Trace.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "tasks";
  Array.iter (fun n ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf n)
    (Rt_task.Task_set.names t.task_set);
  Buffer.add_char buf '\n';
  List.iter (fun (p : Period.t) ->
      Buffer.add_string buf (Printf.sprintf "period %d\n" p.index);
      List.iter (fun (e : Event.t) ->
          let line =
            match e.kind with
            | Event.Task_start i ->
              Printf.sprintf "%d start %s" e.time (Rt_task.Task_set.name t.task_set i)
            | Event.Task_end i ->
              Printf.sprintf "%d end %s" e.time (Rt_task.Task_set.name t.task_set i)
            | Event.Msg_rise m -> Printf.sprintf "%d rise 0x%x" e.time m
            | Event.Msg_fall m -> Printf.sprintf "%d fall 0x%x" e.time m
          in
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        p.events)
    (Trace.periods t);
  Buffer.contents buf

let save path t = Rt_util.Atomic_file.write path (to_string t)

type parse_error = Stream_io.parse_error = { line : int; message : string }

type mode = Stream_io.mode

(* Quarantine tallies are published with [set_counter] (overwrite, not
   add): each ingestion stage re-states the whole account, so the last
   stage to run — [semantic_filter] when the recover pipeline uses it —
   owns the final numbers. *)
let publish_quarantine_to r (q : Quarantine.t) =
  let set = Rt_obs.Registry.set_counter r in
  set "ingest.lines_skipped" (List.length q.skipped_lines);
  set "ingest.periods_kept" q.kept;
  set "ingest.periods_repaired" (List.length q.repaired);
  set "ingest.periods_dropped" (List.length q.dropped)

(* Batch parsing drains the incremental {!Stream_io} parser: one
   implementation serves this path and the live [--stream]/[watch]
   paths, so they cannot disagree. *)
let parse ~mode ?eps ?obs source =
  let p = Stream_io.create ~mode ?eps source in
  let rec drain acc =
    match Stream_io.next p with
    | Ok (Some period) -> drain (period :: acc)
    | Ok None ->
      let ts = Option.get (Stream_io.task_set p) in
      Ok (Trace.of_periods ~task_set:ts (List.rev acc), Stream_io.quarantine p)
    | Error e -> Error e
  in
  match obs with
  | None -> drain []
  | Some r ->
    Rt_obs.Registry.with_span r "ingest.parse" (fun () ->
        let res = drain [] in
        (match res with Ok (_, q) -> publish_quarantine_to r q | Error _ -> ());
        res)

let of_string ?(mode = `Strict) ?eps ?obs s =
  parse ~mode ?eps ?obs (Stream_io.lines_of_string s)

let of_string_exn s =
  match of_string s with
  | Ok (t, _) -> t
  | Error e ->
    invalid_arg (Printf.sprintf "Trace_io.of_string_exn: line %d: %s" e.line e.message)

let load ?(mode = `Strict) ?eps ?obs path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      parse ~mode ?eps ?obs (Stream_io.lines_of_channel ic))

(* A structurally valid period can still be semantically hopeless: a
   message with an empty candidate set A_m collapses the learner's
   hypothesis set to the empty set (paper §3.1). Excising just that
   message's edges cannot invalidate the others — candidate sets depend
   only on task times — so we cut the bad frames and re-validate, and
   drop the period only if that fails. *)
let salvage_period ?window (p : Period.t) =
  let bad_msgs =
    Array.to_list p.msgs
    |> List.filter (fun m -> Candidates.pairs ?window p m = [])
  in
  if bad_msgs = [] then `Clean
  else begin
    (* Within a valid period, edges of a given bus id never overlap, so
       (id, time) identifies each bad edge uniquely. *)
    let is_bad (e : Event.t) =
      match e.kind with
      | Event.Msg_rise id ->
        List.exists (fun (m : Period.msg) -> m.bus_id = id && m.rise = e.time)
          bad_msgs
      | Event.Msg_fall id ->
        List.exists (fun (m : Period.msg) -> m.bus_id = id && m.fall = e.time)
          bad_msgs
      | Event.Task_start _ | Event.Task_end _ -> false
    in
    let events = List.filter (fun e -> not (is_bad e)) p.events in
    match Period.make ~index:p.index ~task_set:p.task_set events with
    | Ok p' when Candidates.unexplained ?window p' = [] ->
      `Excised (p', List.length bad_msgs)
    | Ok _ | Error _ -> `Dropped
  end

(* Fold the salvage outcomes back into the quarantine account: excised
   periods become (or extend) repair entries, unsalvageable ones become
   drops, and the kept count gives up the periods that were clean before
   salvage touched them. Shared verbatim between [semantic_filter] and
   the streaming ingest path, so their accounts cannot diverge. *)
let salvage_account (q : Quarantine.t) ~excised ~dropped_idx =
  if excised = [] && dropped_idx = [] then q
  else begin
    let was_repaired i =
      List.exists
        (fun (r : Quarantine.period_repair) -> r.period_index = i)
        q.repaired
    in
    let touched = List.map fst excised @ dropped_idx in
    let clean_touched =
      List.length (List.filter (fun i -> not (was_repaired i)) touched)
    in
    let fix_of (i, n) =
      match
        List.find_opt
          (fun (r : Quarantine.period_repair) -> r.period_index = i)
          q.repaired
      with
      | Some r ->
        { r with
          Quarantine.fixes =
            r.fixes @ [ Printf.sprintf "excised %d inexplicable frame(s)" n ] }
      | None ->
        { Quarantine.period_index = i;
          fixes = [ Printf.sprintf "excised %d inexplicable frame(s)" n ] }
    in
    { q with
      Quarantine.kept = q.kept - clean_touched;
      repaired =
        List.filter
          (fun (r : Quarantine.period_repair) ->
             not (List.mem r.period_index touched))
          q.repaired
        @ List.map fix_of excised;
      dropped =
        q.dropped
        @ List.map
            (fun i ->
               { Quarantine.period_index = i;
                 reason = "message with no admissible sender/receiver" })
            dropped_idx;
    }
  end

let publish_salvage r (q : Quarantine.t) ~frames_excised =
  Rt_obs.Registry.set_counter r "ingest.frames_excised" frames_excised;
  publish_quarantine_to r q

let semantic_filter ?window ?obs (trace : Trace.t) (q : Quarantine.t) =
  let good = ref [] and excised = ref [] and dropped = ref [] in
  List.iter (fun (p : Period.t) ->
      match salvage_period ?window p with
      | `Clean -> good := p :: !good
      | `Excised (p', n) ->
        good := p' :: !good;
        excised := (p'.Period.index, n) :: !excised
      | `Dropped -> dropped := p.index :: !dropped)
    (Trace.periods trace);
  let excised = List.rev !excised and dropped_idx = List.rev !dropped in
  let untouched = excised = [] && dropped_idx = [] in
  let q = salvage_account q ~excised ~dropped_idx in
  (match obs with
   | None -> ()
   | Some r ->
     publish_salvage r q
       ~frames_excised:(List.fold_left (fun a (_, n) -> a + n) 0 excised));
  if untouched then (trace, q)
  else (Trace.of_periods ~task_set:trace.task_set (List.rev !good), q)
