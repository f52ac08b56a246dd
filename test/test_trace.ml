module Ts = Rt_task.Task_set
module E = Rt_trace.Event
module P = Rt_trace.Period
module C = Rt_trace.Candidates
module T = Rt_trace.Trace
module Io = Rt_trace.Trace_io
open Test_support

let ts4 = Ts.numbered 4

let ev time kind = { E.time; kind }

(* --- Event ordering --- *)

let test_event_order_by_time () =
  let a = ev 5 (E.Task_start 0) and b = ev 6 (E.Task_end 0) in
  Alcotest.(check bool) "a < b" true (E.compare a b < 0)

let test_event_causal_tiebreak () =
  (* At equal time: end < fall < rise < start. *)
  let es =
    [ ev 10 (E.Task_start 1); ev 10 (E.Msg_rise 7); ev 10 (E.Msg_fall 7);
      ev 10 (E.Task_end 0) ]
  in
  let sorted = List.sort E.compare es in
  let kinds = List.map (fun (e : E.t) -> e.kind) sorted in
  Alcotest.(check bool) "causal order" true
    (kinds = [ E.Task_end 0; E.Msg_fall 7; E.Msg_rise 7; E.Task_start 1 ])

let test_event_accessors () =
  Alcotest.(check (option int)) "task" (Some 2) (E.task (ev 0 (E.Task_start 2)));
  Alcotest.(check (option int)) "no task" None (E.task (ev 0 (E.Msg_rise 5)));
  Alcotest.(check (option int)) "msg" (Some 5) (E.msg_id (ev 0 (E.Msg_fall 5)));
  Alcotest.(check (option int)) "no msg" None (E.msg_id (ev 0 (E.Task_end 1)))

(* --- Period validation --- *)

let ok_events =
  [ ev 10 (E.Task_start 0); ev 20 (E.Task_end 0); ev 21 (E.Msg_rise 1);
    ev 24 (E.Msg_fall 1); ev 25 (E.Task_start 1); ev 35 (E.Task_end 1) ]

let test_period_ok () =
  let pd = P.make_exn ~index:0 ~task_set:ts4 ok_events in
  Alcotest.(check (list int)) "executed" [ 0; 1 ] (P.executed_tasks pd);
  Alcotest.(check int) "count" 2 (P.executed_count pd);
  Alcotest.(check int) "msgs" 1 (P.msg_count pd);
  Alcotest.(check int) "start" 10 pd.start_time.(0);
  Alcotest.(check int) "end" 35 pd.end_time.(1);
  Alcotest.(check int) "absent" (-1) pd.start_time.(2);
  let m = pd.msgs.(0) in
  Alcotest.(check int) "rise" 21 m.rise;
  Alcotest.(check int) "fall" 24 m.fall;
  Alcotest.(check int) "bus id" 1 m.bus_id

let expect_error err events =
  match P.make ~index:0 ~task_set:ts4 events with
  | Ok _ -> Alcotest.fail "expected validation error"
  | Error e ->
    Alcotest.(check string) "error kind" (P.string_of_error err)
      (P.string_of_error e)

let test_period_duplicate_start () =
  expect_error (P.Duplicate_start 0)
    [ ev 1 (E.Task_start 0); ev 2 (E.Task_end 0); ev 3 (E.Task_start 0);
      ev 4 (E.Task_end 0) ]

let test_period_end_without_start () =
  expect_error (P.End_without_start 1) [ ev 5 (E.Task_end 1) ]

let test_period_start_without_end () =
  expect_error (P.Start_without_end 1) [ ev 5 (E.Task_start 1) ]

let test_period_fall_without_rise () =
  expect_error (P.Fall_without_rise 9) [ ev 5 (E.Msg_fall 9) ]

let test_period_rise_without_fall () =
  expect_error (P.Rise_without_fall 9) [ ev 5 (E.Msg_rise 9) ]

let test_period_unknown_task () =
  expect_error (P.Unknown_task 12) [ ev 5 (E.Task_start 12) ]

let test_period_multiple_frames_same_id () =
  (* Two frames with the same bus id in one period pair sequentially. *)
  let pd =
    P.make_exn ~index:0 ~task_set:ts4
      [ ev 1 (E.Msg_rise 5); ev 2 (E.Msg_fall 5); ev 3 (E.Msg_rise 5);
        ev 4 (E.Msg_fall 5) ]
  in
  Alcotest.(check int) "2 occurrences" 2 (P.msg_count pd);
  Alcotest.(check int) "occ 0 rise" 1 pd.msgs.(0).rise;
  Alcotest.(check int) "occ 1 rise" 3 pd.msgs.(1).rise

let test_period_msgs_sorted_by_rise () =
  let pd =
    P.make_exn ~index:0 ~task_set:ts4
      [ ev 10 (E.Msg_rise 2); ev 12 (E.Msg_fall 2); ev 1 (E.Msg_rise 7);
        ev 3 (E.Msg_fall 7) ]
  in
  Alcotest.(check int) "first is earliest" 7 pd.msgs.(0).bus_id;
  Alcotest.(check int) "occ renumbered" 0 pd.msgs.(0).occ

(* Two frames left open: the error names the earliest rise, then the
   lowest bus id, whatever order the lines came in. *)
let test_period_dangling_rises () =
  let strict_error text =
    match Io.of_string text with
    | Ok _ -> Alcotest.failf "%S parsed" text
    | Error e -> e.message
  in
  let check name expected lines =
    List.iter
      (fun lines ->
         Alcotest.(check string) name expected
           (strict_error ("tasks a\nperiod 0\n" ^ String.concat "\n" lines)))
      [ lines; List.rev lines ]
  in
  check "earliest rise first"
    "invalid period 0: rising edge of 0x9 without falling edge"
    [ "3 rise 0x9"; "5 rise 0x7" ];
  check "then lowest id"
    "invalid period 0: rising edge of 0x7 without falling edge"
    [ "4 rise 0x9"; "4 rise 0x7" ];
  expect_error (P.Rise_without_fall 7)
    [ ev 4 (E.Msg_rise 9); ev 4 (E.Msg_rise 7) ]

(* Valid periods over four tasks and bus ids 1–3, on a small clock so
   that equal timestamps are common: a frame may fall exactly when the
   next one (of any id, the same included) rises, frames of two ids may
   rise together, and one id may carry several frames. Events come out
   shuffled. *)
let valid_period_events =
  let open QCheck.Gen in
  let task i =
    bool >>= fun runs ->
    if not runs then return []
    else
      int_range 0 20 >>= fun s ->
      int_range 1 8 >|= fun d ->
      [ ev s (E.Task_start i); ev (s + d) (E.Task_end i) ]
  in
  let frames id =
    int_range 0 3 >>= fun n ->
    int_range 0 10 >>= fun t0 ->
    let rec go k t acc =
      if k = 0 then return acc
      else
        int_range 1 4 >>= fun len ->
        int_range 0 2 >>= fun gap ->
        go (k - 1) (t + len + gap)
          (ev t (E.Msg_rise id) :: ev (t + len) (E.Msg_fall id) :: acc)
    in
    go n t0 []
  in
  flatten_l (List.map task [ 0; 1; 2; 3 ] @ List.map frames [ 1; 2; 3 ])
  >>= fun parts -> shuffle_l (List.concat parts)

let print_events evs =
  String.concat "; " (List.map (E.to_string ts4) evs)

let events_of_make =
  Test_support.qcheck_case "events (make evs) = sorted evs" ~count:300
    (QCheck.make ~print:print_events valid_period_events)
    (fun evs ->
       match P.make ~index:0 ~task_set:ts4 evs with
       | Error e -> QCheck.Test.fail_report (P.string_of_error e)
       | Ok p ->
         (* Frames are numbered by rise, then by when they fell. *)
         let key (m : P.msg) = (m.rise, m.fall, m.bus_id) in
         let msgs = Array.to_list p.msgs in
         let rec ordered = function
           | a :: (b :: _ as rest) -> compare (key a) (key b) < 0 && ordered rest
           | [ _ ] | [] -> true
         in
         P.events p = List.sort E.compare evs
         && P.event_count p = List.length evs
         && ordered msgs
         && List.for_all2 (fun (m : P.msg) k -> m.occ = k) msgs
              (List.init (List.length msgs) Fun.id))

(* The allocation-free test salvage uses agrees with [pairs], slack
   (which can make a task its own candidate sender and receiver) and
   windows included. *)
let admissible_is_nonempty_pairs =
  Test_support.qcheck_case "admissible = (pairs <> [])" ~count:200
    (QCheck.make ~print:print_events valid_period_events)
    (fun evs ->
       let p = P.make_exn ~index:0 ~task_set:ts4 evs in
       List.for_all
         (fun (slack, window) ->
            Array.for_all
              (fun m ->
                 C.admissible ~slack ?window p m
                 = (C.pairs ~slack ?window p m <> []))
              p.msgs)
         [ (0, None); (3, None); (6, Some 2); (0, Some 1); (-2, Some 5) ])

(* A_m as paper §3.1 defines it, written out over the period's events:
   every ordered pair of distinct executed tasks whose sender ended by
   the message's rising edge and whose receiver started after its
   falling edge, [slack] relaxing both edges and [window] bounding how
   far before (after) its edge the sender ended (the receiver
   started); in ascending (sender, receiver) order. *)
let spec_pairs ~slack ~window (p : P.t) (m : P.msg) =
  let time_of kind =
    List.find_map (fun (e : E.t) -> if e.kind = kind then Some e.time else None)
      (P.events p)
  in
  let near d = match window with None -> true | Some w -> d <= w in
  let tasks = List.init (Ts.size p.task_set) Fun.id in
  List.concat_map
    (fun s ->
       List.filter_map
         (fun r ->
            match time_of (E.Task_end s), time_of (E.Task_start r) with
            | Some ended, Some started
              when s <> r && ended <= m.rise + slack && near (m.rise - ended)
                   && started + slack >= m.fall && near (started - m.fall) ->
              Some (s, r)
            | _ -> None)
         tasks)
    tasks

(* The one enumerator writes exactly the spec's A_m, as codes in its
   order, over random periods (slack can make a task its own
   candidate) and simulated ones, with and without slack and windows;
   [pairs] is its decoded view. *)
let pair_codes_are_spec =
  let periods =
    QCheck.Gen.(
      oneof
        [ (valid_period_events >|= fun evs ->
           [ P.make_exn ~index:0 ~task_set:ts4 evs ]);
          (pair (int_bound 11) (int_bound 100_000) >|= fun (d, seed) ->
           T.periods (simulate ~periods:4 ~seed (small_design d))) ])
  in
  let print ps =
    String.concat " | " (List.map (fun p -> print_events (P.events p)) ps)
  in
  Test_support.qcheck_case "pair_codes = A_m spec" ~count:300
    (QCheck.make ~print periods)
    (fun ps ->
       List.for_all
         (fun (p : P.t) ->
            let n = Ts.size p.task_set in
            let codes = Array.make (n * n) (-1) in
            Array.for_all
              (fun m ->
                 List.for_all
                   (fun (slack, window) ->
                      let spec = spec_pairs ~slack ~window p m in
                      let k = C.pair_codes ~slack ?window p m codes in
                      List.init k (fun i -> (codes.(i) / n, codes.(i) mod n))
                      = spec
                      && C.pairs ~slack ?window p m = spec)
                   [ (0, None); (3, None); (6, Some 2); (0, Some 1);
                     (-2, Some 5); (0, Some 400); (0, Some 0) ])
              p.msgs)
         ps)

(* Candidate inference allocates nothing: [pair_codes] writes A_m into
   the caller's buffer, so enumerating it for every message of the GM
   trace, with and without a window, costs no minor words. Minor words
   count deterministically once a collection has flushed them, so the
   gate is exact, not a timing. *)
let test_pair_codes_alloc () =
  let trace = Rt_case.Gm_model.trace ~periods:27 () in
  let periods = Array.of_list (T.periods trace) in
  let n = T.task_count trace in
  let codes = Array.make (n * n) 0 in
  let total = ref 0 in
  Gc.minor ();
  let before = Gc.minor_words () in
  for i = 0 to Array.length periods - 1 do
    let p = periods.(i) in
    for k = 0 to Array.length p.msgs - 1 do
      total :=
        !total + C.pair_codes p p.msgs.(k) codes
        + C.pair_codes ~window:400 p p.msgs.(k) codes
    done
  done;
  Gc.minor ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "candidates found" true (!total > 0);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* Damage a valid period now and then (drop, duplicate or retime an
   event, or add a stray one) so both outcomes are exercised. *)
let maybe_broken_events =
  let open QCheck.Gen in
  valid_period_events >>= fun evs ->
  int_range 0 4 >>= fun damage ->
  let n = List.length evs in
  int_range 0 (max 0 (n - 1)) >>= fun at ->
  int_range 0 30 >>= fun t ->
  let stray = oneofl [ E.Task_start 2; E.Task_end 1; E.Msg_rise 2; E.Msg_fall 3 ] in
  match damage with
  | 0 when n > 0 -> return (List.filteri (fun i _ -> i <> at) evs)
  | 1 when n > 0 -> return (List.nth evs at :: evs)
  | 2 when n > 0 ->
    return (List.mapi (fun i (e : E.t) -> if i = at then { e with time = t } else e) evs)
  | 3 -> stray >|= fun kind -> ev t kind :: evs
  | _ -> return evs

let period_text lines = "tasks t1 t2 t3 t4\nperiod 0\n" ^ String.concat "" lines

let line_of (e : E.t) =
  match e.kind with
  | E.Task_start i -> Printf.sprintf "%d start t%d\n" e.time (i + 1)
  | E.Task_end i -> Printf.sprintf "%d end t%d\n" e.time (i + 1)
  | E.Msg_rise m -> Printf.sprintf "%d rise 0x%x\n" e.time m
  | E.Msg_fall m -> Printf.sprintf "%d fall 0x%x\n" e.time m

let digest = function
  | Error (e : Io.parse_error) -> Error (e.line, e.message)
  | Ok (t, _) ->
    Ok (List.map (fun (p : P.t) ->
        (p.index, p.executed, p.executed_ix, p.start_time, p.end_time, p.msgs))
        (T.periods t))

let shuffled_lines_parse_alike =
  Test_support.qcheck_case "shuffled period lines parse alike" ~count:300
    (QCheck.make
       ~print:(fun (evs, _) -> print_events evs)
       QCheck.Gen.(pair maybe_broken_events (int_bound 1_000_000)))
    (fun (evs, seed) ->
       let sorted = List.map line_of (List.sort E.compare evs) in
       let shuffled =
         QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |])
           (QCheck.Gen.shuffle_l sorted)
       in
       digest (Io.of_string (period_text sorted))
       = digest (Io.of_string (period_text shuffled)))

(* Draining the streaming parser over a simulated trace allocates a
   bounded number of bytes per event: the line string and its option,
   and each period's digest; no per-event record. On OCaml 5
   [Gc.allocated_bytes] counts minor-heap words only at a minor
   collection, so one is forced on each side of the drain: the count is
   then exact, not a timing, and does not hang on how full the minor
   heap was when the test began. *)
let test_stream_alloc_per_event () =
  let trace = simulate ~periods:2_000 ~seed:3 (small_design 3) in
  let text = Io.to_string trace in
  let events = T.total_events trace in
  let p = Rt_trace.Stream_io.create (Rt_trace.Stream_io.lines_of_string text) in
  let rec drain n =
    match Rt_trace.Stream_io.next p with
    | Ok (Some _) -> drain (n + 1)
    | Ok None -> n
    | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let periods = drain 0 in
  Gc.minor ();
  let per_event = (Gc.allocated_bytes () -. before) /. float_of_int events in
  Alcotest.(check int) "every period" 2_000 periods;
  if per_event > 112.0 then
    Alcotest.failf "%.1f B/event allocated draining %d events (bound 112)"
      per_event events

(* --- Line sources: one cutter under every ingest path --- *)

module Sio = Rt_trace.Stream_io

let drain_source source =
  let rec go acc =
    match source () with Some l -> go (l :: acc) | None -> List.rev acc
  in
  go []

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* [lines_of_channel] over a pipe a child process writes chunk by
   chunk, so lines are cut from whatever each read returns. *)
let lines_via_pipe chunks =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try List.iter (write_all w) chunks with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let lines = drain_source (Sio.lines_of_channel ic) in
    close_in ic;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> ()
     | _ -> Alcotest.fail "pipe writer failed");
    lines

(* [Tail] over a file that grows by one chunk at a time, drained to
   [Waiting] after each, then its pending partial line. *)
let lines_via_tail chunks =
  let path = Filename.temp_file "rtgen_tail" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let tail = Sio.Tail.create path in
  let rec drain acc =
    match Sio.Tail.step tail with
    | Sio.Tail.Line l -> drain (l :: acc)
    | Sio.Tail.Opened -> drain acc
    | Sio.Tail.Waiting -> acc
    | (Sio.Tail.Rotated | Sio.Tail.Truncated | Sio.Tail.Vanished) ->
      Alcotest.fail "tail lost its file"
  in
  let acc =
    List.fold_left
      (fun acc chunk ->
         let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
         output_string oc chunk;
         close_out oc;
         drain acc)
      [] chunks
  in
  let acc = match Sio.Tail.pending tail with Some l -> l :: acc | None -> acc in
  Sio.Tail.close tail;
  List.rev acc

(* A bare cutter refilled from each chunk in turn, then its rest. *)
let lines_via_cutter chunks =
  let c = Sio.Cutter.create () in
  let rec cut acc =
    match Sio.Cutter.cut c with Some l -> cut (l :: acc) | None -> acc
  in
  let acc =
    List.fold_left
      (fun acc chunk ->
         let pos = ref 0 in
         let input buf off len =
           let n = min len (String.length chunk - !pos) in
           Bytes.blit_string chunk !pos buf off n;
           pos := !pos + n;
           n
         in
         let rec feed acc =
           if !pos >= String.length chunk then acc
           else begin
             ignore (Sio.Cutter.refill c input);
             feed (cut acc)
           end
         in
         feed acc)
      [] chunks
  in
  let acc = match Sio.Cutter.rest c with Some l -> l :: acc | None -> acc in
  List.rev acc

(* Random texts — empty lines, '\r', sometimes one line longer than the
   cutter's first buffer, with or without a final newline — cut into
   chunks at random offsets and just after random newlines. *)
let chunked_text =
  let open QCheck.Gen in
  let gen =
    let* lines =
      list_size (int_bound 30)
        (string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\r'; '#' ]) (int_bound 12))
    in
    let* long =
      frequency
        [ (3, return None); (1, map Option.some (int_bound (List.length lines))) ]
    in
    let lines =
      match long with
      | None -> lines
      | Some at ->
        List.filteri (fun i _ -> i < at) lines
        @ (String.make 70_000 'x' :: List.filteri (fun i _ -> i >= at) lines)
    in
    let* trailing = bool in
    let text =
      String.concat "\n" lines ^ if trailing && lines <> [] then "\n" else ""
    in
    let len = String.length text in
    let newlines =
      List.filter_map
        (fun i -> if text.[i] = '\n' then Some (i + 1) else None)
        (List.init len Fun.id)
    in
    let* cuts =
      list_size (int_bound 12)
        (if newlines = [] then int_bound len
         else oneof [ int_bound len; oneofl newlines ])
    in
    let cuts = List.sort_uniq compare (0 :: len :: cuts) in
    let rec chunks = function
      | a :: (b :: _ as rest) -> String.sub text a (b - a) :: chunks rest
      | _ -> []
    in
    return (text, chunks cuts)
  in
  let print (text, chunks) =
    Printf.sprintf "%d bytes %S, chunks of %s" (String.length text)
      (if String.length text > 200 then String.sub text 0 200 ^ "..." else text)
      (String.concat ","
         (List.map (fun c -> string_of_int (String.length c)) chunks))
  in
  QCheck.make ~print gen

let line_sources_agree =
  Test_support.qcheck_case "every line source = lines_of_string" ~count:100
    ~long_factor:20 chunked_text (fun (text, chunks) ->
      let want = drain_source (Sio.lines_of_string text) in
      (* the format's rule, from first principles: a final newline ends
         the last line and opens no empty one *)
      let model =
        match List.rev (String.split_on_char '\n' text) with
        | "" :: rev -> List.rev rev
        | rev -> List.rev rev
      in
      let check what got =
        if got <> want then
          QCheck.Test.fail_reportf "%s: %d lines, lines_of_string %d" what
            (List.length got) (List.length want)
      in
      check "split_on_char" model;
      check "lines_of_channel over a pipe" (lines_via_pipe chunks);
      check "Tail over a growing file" (lines_via_tail chunks);
      check "Cutter" (lines_via_cutter chunks);
      true)

(* Following a file costs one [Line] box per line over reading it:
   both paths cut lines with the same cutter. A path's cost per line is
   the difference between reading the trace twice over and once, which
   leaves out the per-file opens and stats; what is left per read (a
   closure per 64 KB) comes to well under a byte a line. [Gc.minor_words]
   counts deterministically. *)
let test_tail_alloc_per_line () =
  let text = Io.to_string (simulate ~periods:800 ~seed:3 (small_design 3)) in
  let file text =
    let path = Filename.temp_file "rtgen_alloc" ".trace" in
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    path
  in
  let once = file text and twice = file (text ^ text) in
  Fun.protect ~finally:(fun () -> Sys.remove once; Sys.remove twice)
  @@ fun () ->
  let bytes_per_line count_lines =
    let measure path =
      let before = Gc.minor_words () in
      let lines = count_lines path in
      (lines, Gc.minor_words () -. before)
    in
    let n1, w1 = measure once and n2, w2 = measure twice in
    (w2 -. w1) *. float_of_int (Sys.word_size / 8) /. float_of_int (n2 - n1)
  in
  let channel =
    bytes_per_line (fun path ->
        let ic = open_in_bin path in
        let source = Sio.lines_of_channel ic in
        let rec go n = match source () with Some _ -> go (n + 1) | None -> n in
        let n = go 0 in
        close_in ic;
        n)
  in
  let tail =
    bytes_per_line (fun path ->
        let t = Sio.Tail.create path in
        let rec go n =
          match Sio.Tail.step t with
          | Sio.Tail.Line _ -> go (n + 1)
          | Sio.Tail.Opened -> go n
          | _ -> n
        in
        let n = go 0 in
        Sio.Tail.close t;
        n)
  in
  let line_box = float_of_int (2 * Sys.word_size / 8) in
  if tail > channel +. line_box +. 1.0 then
    Alcotest.failf
      "Tail.step allocates %.2f B/line, lines_of_channel %.2f B/line (bar: \
       + %.0f B, one Line box, + 1 B)"
      tail channel line_box

(* --- Candidates (the paper's A_m computation) --- *)

(* Period 1 of Fig. 2: t1 [10,20], m1 (21,24), t2 [25,35], m2 (36,39),
   t4 [40,50]. *)
let fig2_period1 () =
  P.make_exn ~index:0 ~task_set:ts4
    [ ev 10 (E.Task_start 0); ev 20 (E.Task_end 0); ev 21 (E.Msg_rise 1);
      ev 24 (E.Msg_fall 1); ev 25 (E.Task_start 1); ev 35 (E.Task_end 1);
      ev 36 (E.Msg_rise 2); ev 39 (E.Msg_fall 2); ev 40 (E.Task_start 3);
      ev 50 (E.Task_end 3) ]

let test_candidates_m1 () =
  let pd = fig2_period1 () in
  let m1 = pd.msgs.(0) in
  Alcotest.(check (list int)) "senders m1" [ 0 ] (C.senders pd m1);
  Alcotest.(check (list int)) "receivers m1" [ 1; 3 ] (C.receivers pd m1);
  Alcotest.(check (list (pair int int))) "A_m1" [ (0, 1); (0, 3) ]
    (C.pairs pd m1)

let test_candidates_m2 () =
  let pd = fig2_period1 () in
  let m2 = pd.msgs.(1) in
  Alcotest.(check (list (pair int int))) "A_m2" [ (0, 3); (1, 3) ]
    (C.pairs pd m2)

let test_candidates_exclude_self () =
  let pd = fig2_period1 () in
  List.iter (fun (s, r) -> Alcotest.(check bool) "s<>r" true (s <> r))
    (List.concat_map (fun m -> C.pairs pd m) (Array.to_list pd.msgs))

let test_candidates_slack () =
  let pd = fig2_period1 () in
  let m1 = pd.msgs.(0) in
  (* With enough slack, t2 (ends at 35) becomes a plausible sender of m1
     (rise 21): 35 <= 21 + 14. *)
  Alcotest.(check (list int)) "slack senders" [ 0; 1 ] (C.senders ~slack:14 pd m1)

let test_pair_count () =
  let pd = fig2_period1 () in
  Alcotest.(check int) "total pairs" 4 (C.pair_count pd)

(* --- Trace --- *)

let test_trace_of_periods_checks_task_set () =
  let pd = fig2_period1 () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Trace.of_periods: period over a different task set")
    (fun () -> ignore (T.of_periods ~task_set:(Ts.numbered 3) [ pd ]))

let test_trace_stats () =
  let t = fig2_trace () in
  Alcotest.(check int) "periods" 3 (T.period_count t);
  Alcotest.(check int) "tasks" 4 (T.task_count t);
  Alcotest.(check int) "messages" 8 (T.total_messages t);
  Alcotest.(check int) "events" 36 (T.total_events t)

let test_executed_matrix () =
  let t = fig2_trace () in
  let m = T.executed_matrix t in
  Alcotest.(check bool) "p0: t1 t2 t4" true
    (m.(0).(0) && m.(0).(1) && not m.(0).(2) && m.(0).(3));
  Alcotest.(check bool) "p1: t1 t3 t4" true
    (m.(1).(0) && not m.(1).(1) && m.(1).(2) && m.(1).(3));
  Alcotest.(check bool) "p2: all" true
    (m.(2).(0) && m.(2).(1) && m.(2).(2) && m.(2).(3))

(* --- Trace_io --- *)

let test_io_round_trip () =
  let t = fig2_trace () in
  let s = Io.to_string t in
  let t' = Io.of_string_exn s in
  Alcotest.(check string) "round trip" s (Io.to_string t')

let test_io_round_trip_simulated () =
  let d = small_design 11 in
  let t = simulate ~periods:6 d in
  let s = Io.to_string t in
  Alcotest.(check string) "simulated round trip" s
    (Io.to_string (Io.of_string_exn s))

let expect_parse_error text =
  match Io.of_string text with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ()

let test_io_missing_tasks () = expect_parse_error "period 0\n1 start t1\n"

let test_io_unknown_task () =
  expect_parse_error "tasks t1\nperiod 0\n1 start zz\n2 end zz\n"

let test_io_bad_timestamp () =
  expect_parse_error "tasks t1\nperiod 0\nxx start t1\n"

let test_io_bad_verb () =
  expect_parse_error "tasks t1\nperiod 0\n1 jump t1\n"

let test_io_event_before_period () =
  expect_parse_error "tasks t1\n1 start t1\n"

let test_io_duplicate_tasks_line () =
  expect_parse_error "tasks t1\ntasks t2\n"

let test_io_comments_and_blanks () =
  let t =
    Io.of_string_exn
      "# comment\n\ntasks t1\n# another\nperiod 0\n1 start t1\n2 end t1\n"
  in
  Alcotest.(check int) "parsed" 1 (T.period_count t)

let test_io_error_line_numbers () =
  match Io.of_string "tasks t1\nperiod 0\nbogus line here\n" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.(check int) "line 3" 3 e.line

(* Errors found at end of input cite the last line actually read, from
   every source: an in-memory string, a channel, a file, and the mmap
   reference reader. *)
let test_io_error_line_at_end_of_input () =
  let cases =
    [ (* the last period never closes: line 3, not a phantom line 4 *)
      ("tasks t1\nperiod 0\n1 start t1\n", 3,
       "invalid period 0: task 0 started but never ended");
      (* a file holding only a header: line 1, not 2 *)
      ("# rtgen-trace v1\n", 1, "missing tasks line") ]
  in
  List.iter
    (fun (text, line, message) ->
       let path = Filename.temp_file "rtgen" ".trace" in
       Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
           let oc = open_out_bin path in
           output_string oc text;
           close_out oc;
           let via_channel =
             let ic = open_in path in
             Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                 let p =
                   Rt_trace.Stream_io.create
                     (Rt_trace.Stream_io.lines_of_channel ic)
                 in
                 let rec drain () =
                   match Rt_trace.Stream_io.next p with
                   | Ok (Some _) -> drain ()
                   | Ok None -> Ok ()
                   | Error e -> Error e
                 in
                 drain ())
           in
           let error_of what = function
             | Ok _ -> Alcotest.failf "%s: %S parsed" what text
             | Error (e : Io.parse_error) -> (e.line, e.message)
           in
           List.iter
             (fun (what, got) ->
                Alcotest.(check (pair int string))
                  (Printf.sprintf "%s: %S" what text) (line, message) got)
             [ ("string", error_of "string" (Io.of_string text));
               ("channel", error_of "channel" via_channel);
               ("file", error_of "file" (Io.load path));
               ("mmap", error_of "mmap" (Rt_trace.Mmap_io.load path)) ]))
    cases

let test_io_save_load () =
  let t = fig2_trace () in
  let path = Filename.temp_file "rtgen" ".trace" in
  Io.save path t;
  (match Io.load path with
   | Ok (t', _) ->
     Alcotest.(check string) "file round trip" (Io.to_string t) (Io.to_string t')
   | Error _ -> Alcotest.fail "load failed");
  Sys.remove path

(* --- Candidate windows --- *)

let test_candidates_window_narrows () =
  let pd = fig2_period1 () in
  let m2 = pd.msgs.(1) in
  (* m2: rise 36 fall 39; senders end<=36: {t1 (ended 20), t2 (ended 35)}.
     With a 10us freshness window only t2 qualifies. *)
  Alcotest.(check (list int)) "windowed senders" [ 1 ]
    (C.senders ~window:10 pd m2);
  (* receivers start>=39: {t4 (40)}; within 5us after the fall. *)
  Alcotest.(check (list int)) "windowed receivers" [ 3 ]
    (C.receivers ~window:5 pd m2)

let test_candidates_window_monotone () =
  let pd = fig2_period1 () in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  Array.iter (fun m ->
      let unbounded = C.pairs pd m in
      List.iter (fun w ->
          let narrow = C.pairs ~window:w pd m in
          Alcotest.(check bool) "narrow subset of unbounded" true
            (subset narrow unbounded))
        [ 1; 5; 20; 100 ];
      Alcotest.(check bool) "huge window = unbounded" true
        (C.pairs ~window:1_000_000 pd m = unbounded))
    pd.msgs

(* --- Period inference --- *)

(* Flatten a simulated trace into an absolute-time event stream, laying
   periods out every [period_len] microseconds — what a real logging
   device would capture. *)
let flatten ~period_len trace =
  List.concat_map (fun (pd : P.t) ->
      List.map (fun (e : E.t) -> { e with E.time = e.time + (pd.index * period_len) })
        (P.events pd))
    (Rt_trace.Trace.periods trace)

let test_infer_period_exact () =
  let d = small_design 7 in
  let trace = simulate ~periods:10 d in
  let events = flatten ~period_len:10_000 trace in
  match T.infer_period events with
  | None -> Alcotest.fail "should infer"
  | Some p ->
    (* Jitter shifts individual starts but the median gap stays within
       the release jitter of the true period. *)
    Alcotest.(check bool) "close to 10000" true (abs (p - 10_000) < 200)

let test_infer_period_insufficient () =
  Alcotest.(check (option int)) "no recurrence" None
    (T.infer_period [ ev 1 (E.Task_start 0); ev 2 (E.Task_end 0) ])

let test_infer_period_skip_periods () =
  (* A task that skips a period leaves one double-length gap; the median
     over the regular gaps discards it. Starts in periods 0,1,2,4,5,6. *)
  let events =
    List.concat_map (fun k ->
        [ ev ((k * 1000) + 10) (E.Task_start 0);
          ev ((k * 1000) + 20) (E.Task_end 0) ])
      [ 0; 1; 2; 4; 5; 6 ]
  in
  Alcotest.(check (option int)) "skip-period gaps" (Some 1000)
    (T.infer_period events)

let test_infer_period_heavy_jitter () =
  (* Release jitter shifts every start, but the median gap stays within
     the jitter amplitude of the true period. *)
  let offsets = [ 0; 180; -150; 120; -90; 60 ] in
  let events =
    List.concat (List.mapi (fun k off ->
        [ ev ((k * 10_000) + 500 + off) (E.Task_start 0);
          ev ((k * 10_000) + 600 + off) (E.Task_end 0) ])
        offsets)
  in
  match T.infer_period events with
  | None -> Alcotest.fail "should infer under jitter"
  | Some p ->
    Alcotest.(check bool) "within jitter of 10000" true
      (abs (p - 10_000) <= 200)

let test_infer_period_no_task_recurs_enough () =
  (* Two tasks with two activations each: nobody recurs three times, so
     there is no defensible estimate. *)
  let events =
    [ ev 10 (E.Task_start 0); ev 20 (E.Task_end 0);
      ev 30 (E.Task_start 1); ev 40 (E.Task_end 1);
      ev 1010 (E.Task_start 0); ev 1020 (E.Task_end 0);
      ev 1030 (E.Task_start 1); ev 1040 (E.Task_end 1) ]
  in
  Alcotest.(check (option int)) "two activations are not recurrence" None
    (T.infer_period events);
  (* Message traffic alone never yields a period either. *)
  Alcotest.(check (option int)) "messages only" None
    (T.infer_period
       [ ev 1 (E.Msg_rise 5); ev 2 (E.Msg_fall 5);
         ev 101 (E.Msg_rise 5); ev 102 (E.Msg_fall 5);
         ev 201 (E.Msg_rise 5); ev 202 (E.Msg_fall 5) ])

(* --- Gantt --- *)

let export_total_on_random_traces =
  Test_support.qcheck_case "vcd/gantt/stats total on random traces" ~count:25
    (QCheck.int_range 0 5_000)
    (fun seed ->
       let d = small_design (seed mod 30) in
       let trace = simulate ~periods:4 ~seed d in
       let vcd = Rt_trace.Vcd.to_string trace in
       let stats = Rt_trace.Stats.to_string trace in
       let gantts =
         List.map Rt_trace.Gantt.to_svg (Rt_trace.Trace.periods trace)
       in
       String.length vcd > 0 && String.length stats > 0
       && List.for_all (fun s -> String.length s > 0) gantts)

let test_gantt_svg () =
  let pd = fig2_period1 () in
  let svg = Rt_trace.Gantt.to_svg pd in
  let count needle =
    let n = String.length needle and h = String.length svg in
    let rec go i acc =
      if i + n > h then acc
      else if String.sub svg i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check bool) "svg root" true (count "<svg" = 1);
  Alcotest.(check int) "task bars" 3 (count "class=\"task\"");
  Alcotest.(check int) "frame bars" 2 (count "class=\"frame\"");
  Alcotest.(check bool) "closed" true (count "</svg>" = 1)

(* --- Stats --- *)

let test_stats_fig2 () =
  let s = Rt_trace.Stats.of_trace (fig2_trace ()) in
  Alcotest.(check int) "periods" 3 s.periods;
  Alcotest.(check int) "4 running tasks" 4 (List.length s.tasks);
  let t1 = List.find (fun (x : Rt_trace.Stats.task_stats) -> x.task = 0) s.tasks in
  Alcotest.(check int) "t1 in all periods" 3 t1.activations;
  Alcotest.(check (float 0.001)) "ratio" 1.0 t1.activation_ratio;
  Alcotest.(check int) "t1 duration" 10 t1.min_duration;
  Alcotest.(check int) "t1 duration max" 10 t1.max_duration;
  let t2 = List.find (fun (x : Rt_trace.Stats.task_stats) -> x.task = 1) s.tasks in
  Alcotest.(check int) "t2 twice" 2 t2.activations;
  Alcotest.(check int) "frames" 8 s.bus.frames;
  Alcotest.(check int) "ids" 4 s.bus.distinct_ids;
  Alcotest.(check int) "frame time" 3 s.bus.min_frame_time;
  Alcotest.(check bool) "utilization sane" true
    (s.bus.utilization > 0.0 && s.bus.utilization < 1.0)

let test_stats_report_renders () =
  let s = Rt_trace.Stats.to_string (fig2_trace ()) in
  Alcotest.(check bool) "nonempty" true (String.length s > 50)

(* --- Vcd --- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_vcd_structure () =
  let s = Rt_trace.Vcd.to_string (fig2_trace ()) in
  Alcotest.(check bool) "header" true (contains ~needle:"$timescale 1us $end" s);
  Alcotest.(check bool) "task signal" true (contains ~needle:"task_t1" s);
  Alcotest.(check bool) "bus signal" true (contains ~needle:"can_0x1" s);
  Alcotest.(check bool) "dumpvars" true (contains ~needle:"$dumpvars" s);
  Alcotest.(check bool) "enddefinitions" true
    (contains ~needle:"$enddefinitions" s)

let test_vcd_timestamps_monotone () =
  let s = Rt_trace.Vcd.to_string ~period_len:100 (fig2_trace ()) in
  let times =
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
        if String.length line > 1 && line.[0] = '#' then
          int_of_string_opt (String.sub line 1 (String.length line - 1))
        else None)
  in
  Alcotest.(check bool) "some timestamps" true (List.length times > 5);
  let rec mono = function
    | a :: (b :: _ as rest) -> a < b && mono rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly increasing" true (mono times);
  (* period 2 events land beyond 2 * period_len *)
  Alcotest.(check bool) "periods laid out" true
    (List.exists (fun t -> t >= 200) times)

let test_vcd_balanced_toggles () =
  (* Every signal toggled high must be toggled low again: count 1x/0x
     lines per code. *)
  let s = Rt_trace.Vcd.to_string (fig2_trace ()) in
  let ups = Hashtbl.create 16 and downs = Hashtbl.create 16 in
  List.iter (fun line ->
      if String.length line >= 2 && (line.[0] = '0' || line.[0] = '1') then begin
        let code = String.sub line 1 (String.length line - 1) in
        let tbl = if line.[0] = '1' then ups else downs in
        Hashtbl.replace tbl code
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl code))
      end)
    (String.split_on_char '\n' s);
  (* $dumpvars initializes every signal to 0, so each active signal has
     exactly one more down-toggle than up-toggles. *)
  Hashtbl.iter (fun code n ->
      Alcotest.(check (option int)) ("balanced " ^ code) (Some (n + 1))
        (Hashtbl.find_opt downs code))
    ups

let () =
  Alcotest.run "rt_trace"
    [
      ( "event",
        [
          Alcotest.test_case "order by time" `Quick test_event_order_by_time;
          Alcotest.test_case "causal tiebreak" `Quick test_event_causal_tiebreak;
          Alcotest.test_case "accessors" `Quick test_event_accessors;
        ] );
      ( "period",
        [
          Alcotest.test_case "valid period" `Quick test_period_ok;
          Alcotest.test_case "duplicate start" `Quick test_period_duplicate_start;
          Alcotest.test_case "end w/o start" `Quick test_period_end_without_start;
          Alcotest.test_case "start w/o end" `Quick test_period_start_without_end;
          Alcotest.test_case "fall w/o rise" `Quick test_period_fall_without_rise;
          Alcotest.test_case "rise w/o fall" `Quick test_period_rise_without_fall;
          Alcotest.test_case "unknown task" `Quick test_period_unknown_task;
          Alcotest.test_case "same-id frames" `Quick
            test_period_multiple_frames_same_id;
          Alcotest.test_case "msgs sorted" `Quick test_period_msgs_sorted_by_rise;
          Alcotest.test_case "dangling rises" `Quick test_period_dangling_rises;
          events_of_make;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "A_m1 of Fig.2" `Quick test_candidates_m1;
          Alcotest.test_case "A_m2 of Fig.2" `Quick test_candidates_m2;
          Alcotest.test_case "no self pairs" `Quick test_candidates_exclude_self;
          Alcotest.test_case "slack widens" `Quick test_candidates_slack;
          Alcotest.test_case "pair count" `Quick test_pair_count;
          Alcotest.test_case "window narrows" `Quick
            test_candidates_window_narrows;
          Alcotest.test_case "window monotone" `Quick
            test_candidates_window_monotone;
          admissible_is_nonempty_pairs;
          pair_codes_are_spec;
          Alcotest.test_case "pair_codes allocates 0" `Quick
            test_pair_codes_alloc;
        ] );
      ( "inference",
        [
          Alcotest.test_case "infer period" `Quick test_infer_period_exact;
          Alcotest.test_case "insufficient data" `Quick
            test_infer_period_insufficient;
          Alcotest.test_case "skip-period gaps" `Quick
            test_infer_period_skip_periods;
          Alcotest.test_case "heavy jitter" `Quick
            test_infer_period_heavy_jitter;
          Alcotest.test_case "no task recurs 3x" `Quick
            test_infer_period_no_task_recurs_enough;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "svg render" `Quick test_gantt_svg;
          export_total_on_random_traces;
        ] );
      ( "stats",
        [
          Alcotest.test_case "fig2 statistics" `Quick test_stats_fig2;
          Alcotest.test_case "report renders" `Quick test_stats_report_renders;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "timestamps monotone" `Quick
            test_vcd_timestamps_monotone;
          Alcotest.test_case "balanced toggles" `Quick
            test_vcd_balanced_toggles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "task set check" `Quick
            test_trace_of_periods_checks_task_set;
          Alcotest.test_case "stats" `Quick test_trace_stats;
          Alcotest.test_case "executed matrix" `Quick test_executed_matrix;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "round trip" `Quick test_io_round_trip;
          Alcotest.test_case "simulated round trip" `Quick
            test_io_round_trip_simulated;
          Alcotest.test_case "missing tasks" `Quick test_io_missing_tasks;
          Alcotest.test_case "unknown task" `Quick test_io_unknown_task;
          Alcotest.test_case "bad timestamp" `Quick test_io_bad_timestamp;
          Alcotest.test_case "bad verb" `Quick test_io_bad_verb;
          Alcotest.test_case "event before period" `Quick
            test_io_event_before_period;
          Alcotest.test_case "duplicate tasks line" `Quick
            test_io_duplicate_tasks_line;
          Alcotest.test_case "comments and blanks" `Quick
            test_io_comments_and_blanks;
          Alcotest.test_case "error line numbers" `Quick
            test_io_error_line_numbers;
          Alcotest.test_case "error line at end of input" `Quick
            test_io_error_line_at_end_of_input;
          Alcotest.test_case "save/load" `Quick test_io_save_load;
          shuffled_lines_parse_alike;
          Alcotest.test_case "stream alloc per event" `Quick
            test_stream_alloc_per_event;
        ] );
      ( "lines",
        [
          line_sources_agree;
          Alcotest.test_case "Tail alloc per line" `Quick
            test_tail_alloc_per_line;
        ] );
    ]
