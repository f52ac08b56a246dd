type line_source = unit -> string option

module Cutter = struct
  (* [buf.[lo, hi)] is read and not yet cut; [buf.[lo, scan)] holds no
     newline. The buffer is allocated by the first refill and given
     back by [clear], so an idle cutter costs a few words. *)
  type t = {
    mutable buf : Bytes.t;
    mutable lo : int;
    mutable scan : int;
    mutable hi : int;
  }

  (* The first buffer: as much as one read of a channel returns. *)
  let chunk = 65536

  let create () = { buf = Bytes.empty; lo = 0; scan = 0; hi = 0 }

  let clear t =
    t.buf <- Bytes.empty;
    t.lo <- 0;
    t.scan <- 0;
    t.hi <- 0

  let refill t input =
    let pending = t.hi - t.lo in
    if t.lo > 0 then Bytes.blit t.buf t.lo t.buf 0 pending
    else if pending = Bytes.length t.buf then begin
      let bigger = Bytes.create (max chunk (2 * pending)) in
      Bytes.blit t.buf 0 bigger 0 pending;
      t.buf <- bigger
    end;
    t.scan <- t.scan - t.lo;
    t.lo <- 0;
    t.hi <- pending;
    let n = input t.buf pending (Bytes.length t.buf - pending) in
    t.hi <- pending + n;
    n

  let take t stop next =
    let l = Bytes.sub_string t.buf t.lo (stop - t.lo) in
    t.lo <- next;
    t.scan <- next;
    Some l

  let rec find_nl buf i hi =
    if i >= hi then -1
    else if Bytes.unsafe_get buf i = '\n' then i
    else find_nl buf (i + 1) hi

  let cut t =
    let nl = find_nl t.buf t.scan t.hi in
    if nl >= 0 then take t nl (nl + 1)
    else begin
      t.scan <- t.hi;
      None
    end

  let rest t = if t.lo < t.hi then take t t.hi t.hi else None
end

(* Cut the lines that [input buf off len] returns, 0 meaning end of
   input: one string per line, where [input_line] also allocates its
   scanning closures. *)
let lines_of_input input =
  let c = Cutter.create () and eof = ref false in
  let rec pull () =
    match Cutter.cut c with
    | Some _ as l -> l
    | None when !eof -> Cutter.rest c
    | None ->
      eof := Cutter.refill c input = 0;
      pull ()
  in
  pull

(* [input] returns whatever a pipe holds, so lines arrive as soon as
   they are complete. *)
let lines_of_channel ic = lines_of_input (input ic)

let lines_of_string s =
  let pos = ref 0 in
  lines_of_input (fun buf off len ->
      let n = min len (String.length s - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n)

(* At end of file, poll until [stop ()]; the cutter yields only whole
   lines, and the final partial one once the input ends. *)
let follow_lines ?(poll_interval = 0.05) ~stop ic =
  lines_of_input (fun buf off len ->
      let rec read () =
        match input ic buf off len with
        | 0 when not (stop ()) ->
          Unix.sleepf poll_interval;
          read ()
        | n -> n
      in
      read ())

module Tail = struct
  type event =
    | Line of string
    | Opened
    | Waiting
    | Rotated
    | Truncated
    | Vanished

  type t = {
    path : string;
    cut : Cutter.t;  (* read from [ic], not yet yielded *)
    mutable ic : in_channel option;
    mutable identity : (int * int) option;  (* (st_dev, st_ino) of [ic] *)
    mutable flush_then : event option;
    (* Rotation detected with a partial line pending: the old file is
       final, so its tail is yielded as a line first, then this queued
       event fires and the reopen happens. *)
  }

  let create path =
    { path; cut = Cutter.create (); ic = None; identity = None;
      flush_then = None }

  let pending t = Cutter.rest t.cut

  let close t =
    (match t.ic with Some ic -> close_in_noerr ic | None -> ());
    t.ic <- None;
    t.identity <- None;
    Cutter.clear t.cut

  (* The old file is final (rotated away or deleted): yield its partial
     last line, if any, now and queue the status event for the next
     step; the next step after that reopens. *)
  let finish_file t event =
    let last = pending t in
    close t;
    match last with
    | Some l ->
      t.flush_then <- Some event;
      Line l
    | None -> event

  (* End of what is on disk right now: decide between plain waiting,
     rotation (the path names a different file) and truncation (the same
     file shrank under us, so the partial line belonged to overwritten
     content). *)
  let at_end t ic =
    match Unix.stat t.path with
    | exception Unix.Unix_error _ -> finish_file t Vanished
    | st ->
      if Some (st.Unix.st_dev, st.Unix.st_ino) <> t.identity then
        finish_file t Rotated
      else if st.Unix.st_size < pos_in ic then begin
        close t;
        Truncated
      end
      else Waiting

  let rec read t ic =
    match Cutter.cut t.cut with
    | Some l -> Line l
    | None ->
      if Cutter.refill t.cut (input ic) > 0 then read t ic else at_end t ic

  let step t =
    match t.flush_then with
    | Some e ->
      t.flush_then <- None;
      e
    | None ->
      (match t.ic with
       | None ->
         (match open_in_bin t.path with
          | ic ->
            let st = Unix.fstat (Unix.descr_of_in_channel ic) in
            t.ic <- Some ic;
            t.identity <- Some (st.Unix.st_dev, st.Unix.st_ino);
            Opened
          | exception Sys_error _ -> Vanished)
       | Some ic -> read t ic)
end

let follow_path ?(poll_interval = 0.05) ?(max_backoff = 1.0) ?on_event ~stop
    path =
  let tail = Tail.create path in
  let notify ev = match on_event with Some f -> f ev | None -> () in
  let backoff = ref poll_interval in
  let finished = ref false in
  let stop_now () =
    finished := true;
    let last = Tail.pending tail in
    Tail.close tail;
    last
  in
  let rec pull () =
    match Tail.step tail with
    | Tail.Line l ->
      backoff := poll_interval;
      Some l
    | (Tail.Opened | Tail.Rotated | Tail.Truncated) as ev ->
      notify ev;
      backoff := poll_interval;
      pull ()
    | Tail.Waiting ->
      if stop () then stop_now ()
      else begin
        Unix.sleepf poll_interval;
        pull ()
      end
    | Tail.Vanished ->
      if stop () then stop_now ()
      else begin
        (* The file is gone (mid-rotation, or not created yet): retry
           with capped exponential backoff rather than spinning on a
           stale descriptor. *)
        Unix.sleepf !backoff;
        backoff := Float.min max_backoff (!backoff *. 2.0);
        pull ()
      end
  in
  fun () -> if !finished then None else pull ()

type parse_error = { line : int; message : string }

type mode = [ `Strict | `Recover ]

type t = {
  mode : mode;
  eps : int option;
  window : int option;  (* candidate window salvage judges frames under *)
  source : line_source;
  mutable lineno : int;
  mutable task_set : Rt_task.Task_set.t option;
  mutable names : string array;  (* the task set's names, for lookups *)
  tok : int array;  (* scratch: (lo, hi) bounds of a line's first three tokens *)
  mutable cur_index : int option;
  period : Period.Builder.t;  (* the events of period [cur_index] *)
  mutable state : [ `Running | `Done | `Failed of parse_error ];
  (* Quarantine accumulators, reverse order. *)
  mutable kept : int;
  mutable skipped : Quarantine.line_issue list;
  mutable repaired : Quarantine.period_repair list;
  mutable dropped : Quarantine.period_drop list;
  mutable ndropped : int;
  mutable excised : int;  (* frames salvage cut, running total *)
}

let create ?(mode = `Strict) ?eps ?window source =
  {
    mode; eps; window; source;
    lineno = 0;
    task_set = None;
    names = [||];
    tok = Array.make 6 0;
    cur_index = None;
    period = Period.Builder.create ();
    state = `Running;
    kept = 0;
    skipped = [];
    repaired = [];
    dropped = [];
    ndropped = 0;
    excised = 0;
  }

let task_set t = t.task_set

let quarantine t =
  { Quarantine.skipped_lines = List.rev t.skipped;
    kept = t.kept;
    repaired = List.rev t.repaired;
    dropped = List.rev t.dropped }

let dropped_since t n =
  let rec take k l acc =
    match l with
    | d :: rest when k > 0 -> take (k - 1) rest (d :: acc)
    | _ -> acc
  in
  take (t.ndropped - n) t.dropped []

let publish r t =
  Quarantine.publish
    ?frames_excised:(if t.mode = `Recover then Some t.excised else None)
    r (quarantine t)

exception Fail of parse_error

let fail line message = raise (Fail { line; message })

let strict t = t.mode = `Strict

(* A malformed line is fatal in strict mode, a diagnostic in recover
   mode. *)
let skip_line t lineno message =
  if strict t then fail lineno message
  else t.skipped <- { Quarantine.line = lineno; message } :: t.skipped

let drop t period_index reason =
  t.dropped <- { Quarantine.period_index; reason } :: t.dropped;
  t.ndropped <- t.ndropped + 1;
  None

(* Recover mode: salvage the period, and account for its repair fixes
   and its salvage in one report entry. A structurally valid period can
   still be semantically hopeless: a message with an empty candidate set
   A_m collapses the learner's hypothesis set to the empty set (paper
   §3.1). Candidate sets depend only on task times, so cutting just
   those frames leaves every other frame's set, and the period's
   validity, as they were. *)
let keep t ~index p fixes =
  let admissible = Candidates.admissible ?window:t.window p in
  let bad =
    Array.fold_left (fun n m -> if admissible m then n else n + 1) 0 p.msgs
  in
  let p, fixes =
    if bad = 0 then (p, fixes)
    else begin
      t.excised <- t.excised + bad;
      ( Period.filter_msgs admissible p,
        fixes @ [ Printf.sprintf "excised %d inexplicable frame(s)" bad ] )
    end
  in
  if fixes = [] then t.kept <- t.kept + 1
  else t.repaired <- { Quarantine.period_index = index; fixes } :: t.repaired;
  Some p

(* Close the period under construction, if any. Returns it when it
   survives validation (strict) or repair and salvage (recover); [None]
   when there was nothing to close or the period was quarantined. A
   period that validates skips [Repair], which would return it
   unchanged with no fixes; only a failing one becomes an event list. *)
let flush_period t lineno : Period.t option =
  match t.cur_index with
  | None -> None
  | Some index ->
    t.cur_index <- None;
    (match t.task_set with
     | None ->
       if strict t then fail lineno "period before tasks line"
       else drop t index "before tasks line"
     | Some task_set ->
       (match Period.Builder.finish t.period ~index ~task_set with
        | Ok p when strict t ->
          t.kept <- t.kept + 1;
          Some p
        | Ok p -> keep t ~index p []
        | Error e when strict t ->
          fail lineno
            (Printf.sprintf "invalid period %d: %s" index
               (Period.string_of_error e))
        | Error _ ->
          (match
             Repair.period ?eps:t.eps ~index ~task_set
               (Period.Builder.events t.period)
           with
           | Ok (p, fixes) -> keep t ~index p (List.map Repair.string_of_fix fixes)
           | Error e -> drop t index (Period.string_of_error e))))

(* Line-level parse failures signal with a local exception so recover
   mode can skip just the line. *)
exception Bad_line of string

(* Lines are tokenised in place: token bounds go into the parser's
   scratch array and keywords, numbers and task names are compared
   against the raw line directly. Substrings are cut only for error
   text and for the once-per-file tasks line. *)

(* String.trim's whitespace set. *)
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let sub raw lo hi = String.sub raw lo (hi - lo)

let rec chars_eq raw lo kw i =
  i < 0
  || (String.unsafe_get raw (lo + i) = String.unsafe_get kw i
      && chars_eq raw lo kw (i - 1))

let token_eq raw lo hi kw =
  hi - lo = String.length kw && chars_eq raw lo kw (hi - lo - 1)

(* Raised, without allocating, by [parse_int] on a non-integer. *)
exception Not_int

(* Integer scan for the two lexemes real traces contain — plain decimal
   and 0x hex, short enough not to overflow. Anything else (signs,
   underscores, 0o/0b, long digit runs) goes through [int_of_string_opt]
   on a substring, so the accepted language is exactly that function's. *)
let rec scan_int raw hi ~hex i acc =
  if i = hi then acc
  else
    let d =
      match String.unsafe_get raw i with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c when hex -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c when hex -> Char.code c - Char.code 'A' + 10
      | _ -> raise_notrace Not_int
    in
    scan_int raw hi ~hex (i + 1) ((acc * if hex then 16 else 10) + d)

let parse_int raw lo hi =
  let hex =
    hi - lo > 2 && raw.[lo] = '0' && (raw.[lo + 1] = 'x' || raw.[lo + 1] = 'X')
  in
  let first = if hex then lo + 2 else lo in
  match
    if hi > first && hi - first <= (if hex then 15 else 18) then
      scan_int raw hi ~hex first 0
    else raise_notrace Not_int
  with
  | n -> n
  | exception Not_int ->
    (match int_of_string_opt (sub raw lo hi) with
     | Some n -> n
     | None -> raise_notrace Not_int)

let msg_id raw lo hi =
  match parse_int raw lo hi with
  | m -> m
  | exception Not_int -> raise (Bad_line ("bad message id: " ^ sub raw lo hi))

(* Task names are unique, so the first slice match is Task_set.index. *)
let rec find_task names raw lo hi i =
  if i >= Array.length names then
    raise (Bad_line ("unknown task: " ^ sub raw lo hi))
  else if token_eq raw lo hi names.(i) then i
  else find_task names raw lo hi (i + 1)

let task t raw lo hi =
  if Option.is_none t.task_set then raise (Bad_line "event before tasks line");
  find_task t.names raw lo hi 0

let tasks_line t lineno raw lo hi =
  if t.task_set <> None then skip_line t lineno "duplicate tasks line"
  else
    match String.split_on_char ' ' (sub raw lo hi) |> List.filter (( <> ) "") with
    | [] -> skip_line t lineno "tasks line without names"
    | names ->
      (match Rt_task.Task_set.of_names (Array.of_list names) with
       | ts ->
         t.task_set <- Some ts;
         t.names <- Rt_task.Task_set.names ts
       | exception Invalid_argument m -> skip_line t lineno m)

(* A three-token line; [tok] holds its token bounds. Appends the event
   to the period's builder, or raises [Bad_line] leaving it as it was. *)
let event t raw =
  let tok = t.tok in
  if Option.is_none t.cur_index then
    raise (Bad_line "event before a period line");
  let time =
    match parse_int raw tok.(0) tok.(1) with
    | tm when tm >= 0 -> tm
    | _ -> raise (Bad_line "negative timestamp")
    | exception Not_int ->
      raise (Bad_line ("bad timestamp: " ^ sub raw tok.(0) tok.(1)))
  in
  let vlo = tok.(2) and vhi = tok.(3) and alo = tok.(4) and ahi = tok.(5) in
  let rank =
    if token_eq raw vlo vhi "start" then Event.rank_start
    else if token_eq raw vlo vhi "end" then Event.rank_end
    else if token_eq raw vlo vhi "rise" then Event.rank_rise
    else if token_eq raw vlo vhi "fall" then Event.rank_fall
    else raise (Bad_line ("unknown event kind: " ^ sub raw vlo vhi))
  in
  let key =
    if rank = Event.rank_start || rank = Event.rank_end then task t raw alo ahi
    else msg_id raw alo ahi
  in
  Period.Builder.add t.period ~time ~rank ~key

(* Consume one line. Returns a period when the line closed one. Arm
   order: a "tasks" head wins at any arity, "period" needs exactly two
   tokens, any other three-token line is an event (so "period 1 2"
   fails as "bad timestamp: period"). *)
let consume_line t raw : Period.t option =
  let lineno = t.lineno in
  let lo = ref 0 and hi = ref (String.length raw) in
  while !lo < !hi && is_space (String.unsafe_get raw !lo) do incr lo done;
  while !hi > !lo && is_space (String.unsafe_get raw (!hi - 1)) do decr hi done;
  let lo = !lo and hi = !hi in
  if lo = hi || String.unsafe_get raw lo = '#' then None
  else begin
    let tok = t.tok in
    let ntok = ref 0 and p = ref lo in
    while !p < hi do
      if String.unsafe_get raw !p = ' ' then incr p
      else begin
        let s = !p in
        while !p < hi && String.unsafe_get raw !p <> ' ' do incr p done;
        if !ntok < 3 then begin
          tok.(!ntok * 2) <- s;
          tok.((!ntok * 2) + 1) <- !p
        end;
        incr ntok
      end
    done;
    if token_eq raw tok.(0) tok.(1) "tasks" then begin
      tasks_line t lineno raw tok.(1) hi;
      None
    end
    else if !ntok = 2 && token_eq raw tok.(0) tok.(1) "period" then begin
      let finished = flush_period t lineno in
      Period.Builder.clear t.period;
      (match parse_int raw tok.(2) tok.(3) with
       | n -> t.cur_index <- Some n
       | exception Not_int ->
         skip_line t lineno ("bad period index: " ^ sub raw tok.(2) tok.(3)));
      finished
    end
    else if !ntok = 3 then begin
      (try event t raw with Bad_line m -> skip_line t lineno m);
      None
    end
    else begin
      skip_line t lineno ("unparseable line: " ^ sub raw lo hi);
      None
    end
  end

let rec next t =
  match t.state with
  | `Done -> Ok None
  | `Failed e -> Error e
  | `Running ->
    (try
       match t.source () with
       | Some raw ->
         t.lineno <- t.lineno + 1;
         (match consume_line t raw with
          | Some p -> Ok (Some p)
          | None -> next t)
       | None ->
         let finished = flush_period t t.lineno in
         (match t.task_set with
          | None -> fail t.lineno "missing tasks line"
          | Some _ -> ());
         t.state <- `Done;
         (match finished with Some p -> Ok (Some p) | None -> Ok None)
     with Fail e ->
       t.state <- `Failed e;
       Error e)
