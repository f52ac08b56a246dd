type line_source = unit -> string option

type input = bytes -> int -> int -> int

module Cutter = struct
  (* [buf.[lo, hi)] is read and not yet cut; [buf.[lo, scan)] holds no
     newline; [buf.[line_lo, line_hi)] is the line cut last. The buffer
     is allocated by the first refill and given back by [clear], so an
     idle cutter costs a few words. *)
  type t = {
    mutable buf : Bytes.t;
    mutable lo : int;
    mutable scan : int;
    mutable hi : int;
    mutable line_lo : int;
    mutable line_hi : int;
  }

  (* The first buffer: as much as one read of a channel returns. *)
  let chunk = 65536

  let create () =
    { buf = Bytes.empty; lo = 0; scan = 0; hi = 0; line_lo = 0; line_hi = 0 }

  let clear t =
    t.buf <- Bytes.empty;
    t.lo <- 0;
    t.scan <- 0;
    t.hi <- 0;
    t.line_lo <- 0;
    t.line_hi <- 0

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

  let buffer t = t.buf
  let line_lo t = t.line_lo
  let line_hi t = t.line_hi

  let take t stop next =
    t.line_lo <- t.lo;
    t.line_hi <- stop;
    t.lo <- next;
    t.scan <- next;
    true

  external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  let rec find_nl_bytes buf i hi =
    if i >= hi then -1
    else if Bytes.unsafe_get buf i = '\n' then i
    else find_nl_bytes buf (i + 1) hi

  (* Eight bytes at a time: a word has a newline byte iff
     (x - 0x01..) land (lnot x) land 0x80.. is nonzero, where x is the
     word xor newlines. *)
  let rec find_nl buf i hi =
    if i + 8 > hi then find_nl_bytes buf i hi
    else
      let x = Int64.logxor (get64u buf i) 0x0a0a0a0a0a0a0a0aL in
      if Int64.equal
          (Int64.logand
             (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
             0x8080808080808080L)
          0L
      then find_nl buf (i + 8) hi
      else find_nl_bytes buf i hi

  let cut_bounds t =
    let nl = find_nl t.buf t.scan t.hi in
    if nl >= 0 then take t nl (nl + 1)
    else begin
      t.scan <- t.hi;
      false
    end

  let rest_bounds t = t.lo < t.hi && take t t.hi t.hi

  let line t = Some (Bytes.sub_string t.buf t.line_lo (t.line_hi - t.line_lo))

  let cut t = if cut_bounds t then line t else None

  let rest t = if rest_bounds t then line t else None
end

(* A cutter fed by [input] until it returns 0. *)
type reader = { cutter : Cutter.t; input : input; mutable eof : bool }

let reader input = { cutter = Cutter.create (); input; eof = false }

(* Cut the next line, whose bounds the cutter then holds; [false] once
   the input has ended and its last line was cut. *)
let rec advance r =
  Cutter.cut_bounds r.cutter
  || if r.eof then Cutter.rest_bounds r.cutter
  else begin
    r.eof <- Cutter.refill r.cutter r.input = 0;
    advance r
  end

(* One string per line, where [input_line] also allocates its scanning
   closures. *)
let lines_of_input input =
  let r = reader input in
  fun () -> if advance r then Cutter.line r.cutter else None

(* [input] returns whatever a pipe holds, so lines arrive as soon as
   they are complete. *)
let lines_of_channel ic = lines_of_input (input ic)

let string_input s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let lines_of_string s = lines_of_input (string_input s)

(* At end of file, poll until [stop ()]: the cutter yields only whole
   lines, and the final partial one once the input ends. *)
let follow_input ?(poll_interval = 0.05) ~stop ic buf off len =
  let rec read () =
    match input ic buf off len with
    | 0 when not (stop ()) ->
      Unix.sleepf poll_interval;
      read ()
    | n -> n
  in
  read ()

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

type source = Lines of line_source | Input of input

(* Where lines come from: strings, or bounds in a reader's cutter. *)
type feed = Strings of line_source | Bounds of reader

type t = {
  mode : mode;
  eps : int option;
  window : int option;  (* candidate window salvage judges frames under *)
  feed : feed;
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

let of_source ?(mode = `Strict) ?eps ?window source =
  {
    mode; eps; window;
    feed =
      (match source with
       | Lines l -> Strings l
       | Input i -> Bounds (reader i));
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

let create ?mode ?eps ?window lines = of_source ?mode ?eps ?window (Lines lines)

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

(* A line is read in place as [buf.[lo, hi)]: the cutter's buffer, or a
   line source's string as bytes (never written to). Token bounds go
   into the parser's scratch array, and keywords, numbers and task
   names are compared against the buffer directly. Substrings are cut
   only for error text, numbers outside the fast lexemes, and the
   once-per-file tasks line. *)

(* String.trim's whitespace set. *)
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let sub buf lo hi = Bytes.sub_string buf lo (hi - lo)

let rec chars_eq buf lo kw i =
  i < 0
  || (Bytes.unsafe_get buf (lo + i) = String.unsafe_get kw i
      && chars_eq buf lo kw (i - 1))

let token_eq buf lo hi kw =
  hi - lo = String.length kw && chars_eq buf lo kw (hi - lo - 1)

(* Integer scans for the two lexemes real traces contain — plain
   decimal and 0x hex, short enough not to overflow: the value, or -1 at
   a byte that is not a digit. *)
let rec scan_dec buf i hi acc =
  if i = hi then acc
  else
    match Bytes.unsafe_get buf i with
    | '0' .. '9' as c ->
      scan_dec buf (i + 1) hi ((acc * 10) + Char.code c - Char.code '0')
    | _ -> -1

let rec scan_hex buf i hi acc =
  if i = hi then acc
  else
    let d =
      match Bytes.unsafe_get buf i with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> -1
    in
    if d < 0 then -1 else scan_hex buf (i + 1) hi ((acc * 16) + d)

let slow_int what buf lo hi =
  let s = sub buf lo hi in
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Bad_line (what ^ s))

(* The token as an integer, or [Bad_line (what ^ token)]. Anything
   the scans decline (signs, underscores, 0o/0b, long digit runs) goes
   through [int_of_string_opt] on a substring, so the accepted
   language is exactly that function's. *)
let parse_int what buf lo hi =
  let n =
    if hi - lo > 2
    && Bytes.unsafe_get buf lo = '0'
    && (match Bytes.unsafe_get buf (lo + 1) with 'x' | 'X' -> true | _ -> false)
    then if hi - lo <= 17 then scan_hex buf (lo + 2) hi 0 else -1
    else if hi - lo <= 18 then scan_dec buf lo hi 0
    else -1
  in
  if n >= 0 then n else slow_int what buf lo hi

(* Task names are unique, so the first slice match is Task_set.index. *)
let rec find_task names buf lo hi i =
  if i >= Array.length names then
    raise (Bad_line ("unknown task: " ^ sub buf lo hi))
  else if token_eq buf lo hi names.(i) then i
  else find_task names buf lo hi (i + 1)

let task t buf lo hi =
  if Option.is_none t.task_set then raise (Bad_line "event before tasks line");
  find_task t.names buf lo hi 0

let tasks_line t lineno buf lo hi =
  if t.task_set <> None then skip_line t lineno "duplicate tasks line"
  else
    match String.split_on_char ' ' (sub buf lo hi) |> List.filter (( <> ) "") with
    | [] -> skip_line t lineno "tasks line without names"
    | names ->
      (match Rt_task.Task_set.of_names (Array.of_list names) with
       | ts ->
         t.task_set <- Some ts;
         t.names <- Rt_task.Task_set.names ts
       | exception Invalid_argument m -> skip_line t lineno m)

(* A three-token line; [tok] holds its token bounds. Appends the event
   to the period's builder, or raises [Bad_line] leaving it as it was.
   The kind is told by its first byte. *)
let event t buf =
  let tok = t.tok in
  if Option.is_none t.cur_index then
    raise (Bad_line "event before a period line");
  let time = parse_int "bad timestamp: " buf tok.(0) tok.(1) in
  if time < 0 then raise (Bad_line "negative timestamp");
  let vlo = tok.(2) and vhi = tok.(3) and alo = tok.(4) and ahi = tok.(5) in
  match Bytes.unsafe_get buf vlo with
  | 's' when token_eq buf vlo vhi "start" ->
    Period.Builder.add t.period ~time ~rank:Event.rank_start
      ~key:(task t buf alo ahi)
  | 'e' when token_eq buf vlo vhi "end" ->
    Period.Builder.add t.period ~time ~rank:Event.rank_end
      ~key:(task t buf alo ahi)
  | 'r' when token_eq buf vlo vhi "rise" ->
    Period.Builder.add t.period ~time ~rank:Event.rank_rise
      ~key:(parse_int "bad message id: " buf alo ahi)
  | 'f' when token_eq buf vlo vhi "fall" ->
    Period.Builder.add t.period ~time ~rank:Event.rank_fall
      ~key:(parse_int "bad message id: " buf alo ahi)
  | _ -> raise (Bad_line ("unknown event kind: " ^ sub buf vlo vhi))

(* Consume the line [buf.[lo, hi)]. Returns a period when the line
   closed one. Arm order: a "tasks" head wins at any arity, "period"
   needs exactly two tokens, any other three-token line is an event (so
   "period 1 2" fails as "bad timestamp: period"). *)
let consume_line t buf lo hi : Period.t option =
  let lineno = t.lineno in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_space (Bytes.unsafe_get buf !lo) do incr lo done;
  while !hi > !lo && is_space (Bytes.unsafe_get buf (!hi - 1)) do decr hi done;
  let lo = !lo and hi = !hi in
  if lo = hi || Bytes.unsafe_get buf lo = '#' then None
  else begin
    let tok = t.tok in
    let ntok = ref 0 and p = ref lo in
    while !p < hi do
      if Bytes.unsafe_get buf !p = ' ' then incr p
      else begin
        let s = !p in
        while !p < hi && Bytes.unsafe_get buf !p <> ' ' do incr p done;
        if !ntok < 3 then begin
          tok.(!ntok * 2) <- s;
          tok.((!ntok * 2) + 1) <- !p
        end;
        incr ntok
      end
    done;
    if token_eq buf tok.(0) tok.(1) "tasks" then begin
      tasks_line t lineno buf tok.(1) hi;
      None
    end
    else if !ntok = 2 && token_eq buf tok.(0) tok.(1) "period" then begin
      let finished = flush_period t lineno in
      Period.Builder.clear t.period;
      (match parse_int "bad period index: " buf tok.(2) tok.(3) with
       | n -> t.cur_index <- Some n
       | exception Bad_line m -> skip_line t lineno m);
      finished
    end
    else if !ntok = 3 then begin
      (try event t buf with Bad_line m -> skip_line t lineno m);
      None
    end
    else begin
      skip_line t lineno ("unparseable line: " ^ sub buf lo hi);
      None
    end
  end

(* Lines until one closes a period, then end of input: tail calls all
   the way, so a run of lines that close nothing costs no stack. *)
let rec pump t =
  match t.feed with
  | Bounds r ->
    if advance r then
      let c = r.cutter in
      line t (Cutter.buffer c) (Cutter.line_lo c) (Cutter.line_hi c)
    else finish t
  | Strings source ->
    (match source () with
     | Some s -> line t (Bytes.unsafe_of_string s) 0 (String.length s)
     | None -> finish t)

and line t buf lo hi =
  t.lineno <- t.lineno + 1;
  match consume_line t buf lo hi with
  | Some _ as p -> p
  | None -> pump t

and finish t =
  let finished = flush_period t t.lineno in
  if Option.is_none t.task_set then fail t.lineno "missing tasks line";
  t.state <- `Done;
  finished

let next t =
  match t.state with
  | `Done -> Ok None
  | `Failed e -> Error e
  | `Running ->
    (match pump t with
     | p -> Ok p
     | exception Fail e ->
       t.state <- `Failed e;
       Error e)
