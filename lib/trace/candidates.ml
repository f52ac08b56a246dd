(* The two halves of A_m, each written once: task [i] could have sent
   [m] if it ended no later than the rising edge, and received it if it
   started no earlier than the falling edge; [slack] relaxes both edges
   and [window] bounds how far from its edge a task may lie. Every
   function below filters the period's executed tasks through these. *)
let[@inline] sends ~slack ~window (p : Period.t) (m : Period.msg) i =
  let e = p.end_time.(i) in
  e <= m.rise + slack
  && (match window with None -> true | Some w -> e >= m.rise - w)

let[@inline] receives ~slack ~window (p : Period.t) (m : Period.msg) i =
  let s = p.start_time.(i) in
  s + slack >= m.fall
  && (match window with None -> true | Some w -> s <= m.fall + w)

(* [Array.fold_right] over the executed-index array builds the list in
   ascending order without an intermediate list. *)
let filter_executed pred (p : Period.t) =
  Array.fold_right (fun i acc -> if pred i then i :: acc else acc)
    p.executed_ix []

let senders ?(slack = 0) ?window p m =
  filter_executed (sends ~slack ~window p m) p

let receivers ?(slack = 0) ?window p m =
  filter_executed (receives ~slack ~window p m) p

(* The one enumerator: senders in [executed_ix] order, each with its
   receivers in the same order, so the codes ascend. *)
let pair_codes ?(slack = 0) ?window (p : Period.t) m codes =
  let n = Array.length p.start_time and ix = p.executed_ix in
  let count = ref 0 in
  for a = 0 to Array.length ix - 1 do
    let s = ix.(a) in
    if sends ~slack ~window p m s then
      for b = 0 to Array.length ix - 1 do
        let r = ix.(b) in
        if r <> s && receives ~slack ~window p m r then begin
          codes.(!count) <- (s * n) + r;
          incr count
        end
      done
  done;
  !count

let pairs ?slack ?window (p : Period.t) m =
  let n = Array.length p.start_time in
  let codes = Array.make (n * n) 0 in
  List.init (pair_codes ?slack ?window p m codes) (fun k ->
      (codes.(k) / n, codes.(k) mod n))

(* Some sender and some receiver, not both the same single task. Only
   the first of each and the counts are kept, so the check allocates
   nothing. *)
let admissible ?(slack = 0) ?window (p : Period.t) m =
  let ns = ref 0 and s0 = ref (-1) and nr = ref 0 and r0 = ref (-1) in
  for k = 0 to Array.length p.executed_ix - 1 do
    let i = p.executed_ix.(k) in
    if sends ~slack ~window p m i then begin
      if !ns = 0 then s0 := i;
      incr ns
    end;
    if receives ~slack ~window p m i then begin
      if !nr = 0 then r0 := i;
      incr nr
    end
  done;
  !ns > 0 && !nr > 0 && (!ns > 1 || !nr > 1 || !s0 <> !r0)

let pair_count ?slack ?window (p : Period.t) =
  let n = Array.length p.start_time in
  let codes = Array.make (n * n) 0 in
  Array.fold_left (fun acc m -> acc + pair_codes ?slack ?window p m codes)
    0 p.msgs
