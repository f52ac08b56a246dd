module Pcg = Rt_util.Pcg32

type kind =
  | Drop_edge
  | Duplicate_edge
  | Swap_order
  | Truncate_tail
  | Clock_skew
  | Splice_garbage
  | Reorder_within_eps

let all_kinds =
  [ Drop_edge; Duplicate_edge; Swap_order; Truncate_tail; Clock_skew;
    Splice_garbage; Reorder_within_eps ]

let kind_to_string = function
  | Drop_edge -> "drop_edge"
  | Duplicate_edge -> "duplicate_edge"
  | Swap_order -> "swap_order"
  | Truncate_tail -> "truncate_tail"
  | Clock_skew -> "clock_skew"
  | Splice_garbage -> "splice_garbage"
  | Reorder_within_eps -> "reorder_within_eps"

let kind_of_string s =
  List.find_opt (fun k -> kind_to_string k = s) all_kinds

type spec = { kinds : kind list; rate : float; eps : int; seed : int }

let default = { kinds = all_kinds; rate = 0.05; eps = 50; seed = 42 }

type raw = {
  task_set : Rt_task.Task_set.t;
  raw_periods : (int * Event.t list) list;
}

(* Corruptions are applied in [all_kinds] order, period by period, off a
   single PRNG stream: a spec is a complete, reproducible description of
   the damage. Every draw is gated on [rate], so at rate 0.0 each
   transformation is the identity. *)
let apply spec (trace : Trace.t) =
  let rng = Pcg.of_int spec.seed in
  let rate = spec.rate and eps = max 0 spec.eps in
  let ntasks = Trace.task_count trace in
  let has k = List.mem k spec.kinds in
  let corrupt_period (p : Period.t) =
    let evs = ref (Period.events p) in
    if has Drop_edge then
      evs := List.filter (fun _ -> not (Pcg.chance rng rate)) !evs;
    if has Duplicate_edge then
      evs :=
        List.concat_map
          (fun e -> if Pcg.chance rng rate then [ e; e ] else [ e ])
          !evs;
    if has Swap_order then begin
      (* Swap the timestamps of adjacent events, inverting their causal
         order (the list order itself is immaterial — loaders sort). *)
      let a = Array.of_list !evs in
      for i = 0 to Array.length a - 2 do
        if Pcg.chance rng rate then begin
          let t = a.(i).Event.time in
          a.(i) <- { a.(i) with Event.time = a.(i + 1).Event.time };
          a.(i + 1) <- { a.(i + 1) with Event.time = t }
        end
      done;
      evs := Array.to_list a
    end;
    if has Truncate_tail && Pcg.chance rng rate then begin
      let n = List.length !evs in
      if n > 0 then begin
        let keep = Pcg.int rng n in
        evs := List.filteri (fun i _ -> i < keep) !evs
      end
    end;
    if has Clock_skew && Pcg.chance rng rate && eps > 0 then begin
      (* The bus logger and the ECU logger run on different clocks: shift
         every bus event against the task events by a period-constant
         offset. *)
      let shift = Pcg.int_in rng (-eps) eps in
      evs :=
        List.map
          (fun (e : Event.t) ->
             match e.kind with
             | Event.Msg_rise _ | Event.Msg_fall _ ->
               { e with Event.time = max 0 (e.time + shift) }
             | Event.Task_start _ | Event.Task_end _ -> e)
          !evs
    end;
    if has Splice_garbage then begin
      let top = 1 + List.fold_left (fun m (e : Event.t) -> max m e.time) 0 !evs in
      evs :=
        List.concat_map
          (fun e ->
             if Pcg.chance rng rate then begin
               let time = Pcg.int rng top in
               let kind =
                 match Pcg.int rng 4 with
                 | 0 -> Event.Msg_rise (0x700 + Pcg.int rng 256)
                 | 1 -> Event.Msg_fall (0x700 + Pcg.int rng 256)
                 | 2 -> Event.Task_start (Pcg.int rng ntasks)
                 | _ -> Event.Task_end (Pcg.int rng ntasks)
               in
               [ { Event.time; kind }; e ]
             end
             else [ e ])
          !evs
    end;
    if has Reorder_within_eps && eps > 0 then
      evs :=
        List.map
          (fun (e : Event.t) ->
             if Pcg.chance rng rate then
               { e with Event.time = max 0 (e.time + Pcg.int_in rng (-eps) eps) }
             else e)
          !evs;
    (p.index, !evs)
  in
  {
    task_set = trace.task_set;
    raw_periods = List.map corrupt_period (Trace.periods trace);
  }

let to_string raw =
  Trace_io.render raw.task_set (fun f ->
      List.iter (fun (index, events) -> f index events) raw.raw_periods)

let torn_write ~at text =
  String.sub text 0 (max 0 (min at (String.length text)))

let save path raw = Rt_util.Atomic_file.write path (to_string raw)
