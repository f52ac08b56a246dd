(* Filters run over the period's precomputed executed-index array — the
   seed allocated [List.init (task count) Fun.id] afresh for every
   message, for every learner step, which dominated the profile on large
   bounds. [Array.fold_right] builds each result list in ascending order
   without an intermediate list. *)
let filter_executed pred (p : Period.t) =
  Array.fold_right (fun i acc -> if pred i then i :: acc else acc)
    p.executed_ix []

let senders ?(slack = 0) ?window (p : Period.t) (m : Period.msg) =
  let lo = match window with None -> min_int | Some w -> m.rise - w in
  filter_executed
    (fun i -> p.end_time.(i) <= m.rise + slack && p.end_time.(i) >= lo)
    p

let receivers ?(slack = 0) ?window (p : Period.t) (m : Period.msg) =
  let hi = match window with None -> max_int | Some w -> m.fall + w in
  filter_executed
    (fun i -> p.start_time.(i) + slack >= m.fall && p.start_time.(i) <= hi)
    p

let pairs ?slack ?window ?hist p m =
  let ss = senders ?slack ?window p m and rs = receivers ?slack ?window p m in
  let out =
    List.concat_map (fun s ->
        List.filter_map (fun r -> if s = r then None else Some (s, r)) rs)
      ss
  in
  (match hist with
   | Some h -> Rt_obs.Histogram.record h (List.length out)
   | None -> ());
  out

(* [pairs] as codes, without a list: senders in [executed_ix] order,
   then receivers, so the codes come out in [pairs]'s order. *)
let pair_codes ?(slack = 0) ?window (p : Period.t) (m : Period.msg) codes =
  let n = Array.length p.start_time and ix = p.executed_ix in
  let slo = match window with None -> min_int | Some w -> m.rise - w in
  let rhi = match window with None -> max_int | Some w -> m.fall + w in
  let count = ref 0 in
  for a = 0 to Array.length ix - 1 do
    let s = ix.(a) in
    if p.end_time.(s) <= m.rise + slack && p.end_time.(s) >= slo then
      for b = 0 to Array.length ix - 1 do
        let r = ix.(b) in
        if r <> s && p.start_time.(r) + slack >= m.fall
           && p.start_time.(r) <= rhi
        then begin
          codes.(!count) <- (s * n) + r;
          incr count
        end
      done
  done;
  !count

(* [pairs p m <> []] without building it: some sender and some
   receiver, not both the same single task. Only the first of each and
   the counts are kept, so the check allocates nothing. *)
let admissible ?(slack = 0) ?window (p : Period.t) (m : Period.msg) =
  let slo = match window with None -> min_int | Some w -> m.rise - w in
  let rhi = match window with None -> max_int | Some w -> m.fall + w in
  let ns = ref 0 and s0 = ref (-1) and nr = ref 0 and r0 = ref (-1) in
  for k = 0 to Array.length p.executed_ix - 1 do
    let i = p.executed_ix.(k) in
    if p.end_time.(i) <= m.rise + slack && p.end_time.(i) >= slo then begin
      if !ns = 0 then s0 := i;
      incr ns
    end;
    if p.start_time.(i) + slack >= m.fall && p.start_time.(i) <= rhi then begin
      if !nr = 0 then r0 := i;
      incr nr
    end
  done;
  !ns > 0 && !nr > 0 && (!ns > 1 || !nr > 1 || !s0 <> !r0)

let pair_count ?slack ?window p =
  Array.fold_left (fun acc m -> acc + List.length (pairs ?slack ?window p m))
    0 p.Period.msgs
