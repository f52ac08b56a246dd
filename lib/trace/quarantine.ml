type line_issue = { line : int; message : string }

type period_repair = { period_index : int; fixes : string list }

type period_drop = { period_index : int; reason : string }

type t = {
  skipped_lines : line_issue list;
  kept : int;
  repaired : period_repair list;
  dropped : period_drop list;
}

let empty = { skipped_lines = []; kept = 0; repaired = []; dropped = [] }

let is_empty q = q.skipped_lines = [] && q.repaired = [] && q.dropped = []

let periods_seen q = q.kept + List.length q.repaired + List.length q.dropped

let confidence q =
  let seen = periods_seen q in
  if seen = 0 then 1.0
  else
    (float_of_int q.kept +. (0.5 *. float_of_int (List.length q.repaired)))
    /. float_of_int seen

let summary q =
  Printf.sprintf
    "quarantine: %d kept, %d repaired, %d dropped, %d lines skipped (confidence %.2f)"
    q.kept (List.length q.repaired) (List.length q.dropped)
    (List.length q.skipped_lines) (confidence q)

let to_string q =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (summary q);
  List.iter (fun { line; message } ->
      Buffer.add_string buf (Printf.sprintf "\n  line %d skipped: %s" line message))
    q.skipped_lines;
  List.iter (fun { period_index; fixes } ->
      Buffer.add_string buf
        (Printf.sprintf "\n  period %d repaired: %s" period_index
           (String.concat "; " fixes)))
    q.repaired;
  List.iter (fun { period_index; reason } ->
      Buffer.add_string buf
        (Printf.sprintf "\n  period %d dropped: %s" period_index reason))
    q.dropped;
  Buffer.contents buf

let pp ppf q = Format.pp_print_string ppf (to_string q)

let publish ?frames_excised r q =
  let set = Rt_obs.Registry.set_counter r in
  set "ingest.lines_skipped" (List.length q.skipped_lines);
  set "ingest.periods_kept" q.kept;
  set "ingest.periods_repaired" (List.length q.repaired);
  set "ingest.periods_dropped" (List.length q.dropped);
  Option.iter (set "ingest.frames_excised") frames_excised
