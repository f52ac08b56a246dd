(* The packed-event encoding and the mmap reader built on it.

   Two contracts: [decode ∘ encode = id] over the whole encodable event
   space (including events recovered from quarantined frames), and
   byte-for-byte parity of {!Rt_trace.Mmap_io} with the boxed
   {!Rt_trace.Trace_io} strict loader — same accepted traces, same
   error messages, same line numbers. *)

module E = Rt_trace.Event
module A = Rt_trace.Event_arena
module Mmap = Rt_trace.Mmap_io
module Tio = Rt_trace.Trace_io
module Trace = Rt_trace.Trace

let event : E.t Alcotest.testable =
  Alcotest.testable
    (fun ppf e -> Format.fprintf ppf "{time=%d}" e.E.time)
    (fun a b -> E.compare a b = 0 && a.E.kind = b.E.kind)

(* --- encode / decode -------------------------------------------------- *)

let arb_event =
  let open QCheck in
  let kind =
    map
      (fun (tag, id) ->
         match tag with
         | 0 -> E.Task_start id
         | 1 -> E.Task_end id
         | 2 -> E.Msg_rise id
         | _ -> E.Msg_fall id)
      (pair (int_range 0 3) (int_range 0 A.max_id))
  in
  map
    (fun (time, kind) -> { E.time; kind })
    (pair (int_range 0 A.max_time) kind)

let qc_roundtrip =
  Test_support.qcheck_case "decode (encode e) = e" ~count:1000 arb_event
    (fun e ->
       let e' = A.decode (A.encode e) in
       e'.E.time = e.E.time && e'.E.kind = e.E.kind)

let qc_stream_roundtrip =
  Test_support.qcheck_case "arena preserves arbitrary event streams"
    ~count:200
    QCheck.(small_list arb_event)
    (fun events ->
       let a = A.of_events events in
       A.length a = List.length events
       && A.to_list a = events)

let test_limits () =
  let ok time id = ignore (A.encode { E.time; kind = E.Msg_rise id }) in
  ok A.max_time A.max_id;
  ok 0 0;
  let bad time kind =
    match A.encode { E.time; kind } with
    | _ -> Alcotest.fail "out-of-range event encoded"
    | exception Invalid_argument _ -> ()
  in
  bad (A.max_time + 1) (E.Msg_rise 0);
  bad (-1) (E.Msg_rise 0);
  bad 0 (E.Msg_rise (A.max_id + 1));
  bad 0 (E.Task_start (-1))

let test_sub_ranges () =
  let events =
    List.init 10 (fun i -> { E.time = i * 10; kind = E.Task_start (i mod 3) })
  in
  let a = A.of_events events in
  Alcotest.(check (list event)) "middle slice"
    (List.filteri (fun i _ -> i >= 3 && i < 7) events)
    (A.to_list ~lo:3 ~hi:7 a);
  Alcotest.(check (list event)) "empty slice" [] (A.to_list ~lo:4 ~hi:4 a);
  Alcotest.check_raises "bad range"
    (Invalid_argument "Event_arena.to_list: range out of bounds") (fun () ->
        ignore (A.to_list ~lo:0 ~hi:11 a))

(* Recover-mode quarantined frames: a period Repair had to touch still
   yields events the arena must carry verbatim. *)
let test_quarantined_roundtrip () =
  let text =
    "tasks t1 t2\n\
     period 0\n\
     100 start t1\n\
     200 end t1\n\
     210 rise 0x10\n\
     260 start t2\n\
     300 end t2\n\
     period 1\n\
     100 start t1\n\
     150 end t1\n"
  in
  (* Period 0's frame never falls: recover mode repairs or drops it. *)
  match Tio.of_string ~mode:`Recover text with
  | Error e -> Alcotest.failf "recover load failed: %s" e.message
  | Ok (trace, q) ->
    Alcotest.(check bool) "something was quarantined" true
      (q.repaired <> [] || q.dropped <> []);
    let events =
      List.concat_map Rt_trace.Period.events
        (Trace.periods trace)
    in
    Alcotest.(check (list event)) "quarantined-frame events roundtrip"
      events
      (A.to_list (A.of_events events))

(* --- mmap parity with the boxed loader -------------------------------- *)

let with_file text f =
  let path = Filename.temp_file "rtgen_arena" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let oc = open_out_bin path in
       output_string oc text;
       close_out oc;
       f path)

let check_parity ?(name = "parity") text =
  with_file text (fun path ->
      match (Tio.load path, Mmap.load path) with
      | Ok (t1, q1), Ok (mm, q2) ->
        Alcotest.(check string)
          (name ^ ": same trace")
          (Tio.to_string t1)
          (Tio.to_string mm.Mmap.trace);
        Alcotest.(check int) (name ^ ": same kept count") q1.kept q2.kept;
        (* The arena holds exactly the trace's events and the marks
           delimit each period's slice. The arena keeps file order while
           [Period.make] sorts, so compare as sorted sequences. *)
        List.iteri
          (fun i (p : Rt_trace.Period.t) ->
             let idx, lo, hi = mm.Mmap.marks.(i) in
             Alcotest.(check int) (name ^ ": mark index") p.index idx;
             Alcotest.(check (list event))
               (name ^ ": mark slice = period events")
               (Rt_trace.Period.events p)
               (List.sort E.compare (A.to_list ~lo ~hi mm.Mmap.arena)))
          (Trace.periods mm.Mmap.trace)
      | Error e1, Error e2 ->
        Alcotest.(check (pair int string))
          (name ^ ": same error")
          (e1.line, e1.message) (e2.line, e2.message)
      | Ok _, Error e ->
        Alcotest.failf "%s: mmap rejects (line %d: %s), boxed accepts" name
          e.line e.message
      | Error e, Ok _ ->
        Alcotest.failf "%s: mmap accepts, boxed rejects (line %d: %s)" name
          e.line e.message)

let test_parity_valid () =
  check_parity ~name:"paper example" Test_support.fig2_trace_text;
  let sim =
    Test_support.simulate ~periods:10 ~seed:6 (Test_support.pipeline_design 4)
  in
  check_parity ~name:"simulated" (Tio.to_string sim);
  check_parity ~name:"no trailing newline" "tasks a b\nperiod 0";
  check_parity ~name:"hex and underscores"
    "tasks a b\n\
     period 0\n\
     0x64 start a\n\
     1_50 end a\n\
     160 rise 0x1_0\n\
     +200 fall 0x10\n\
     210 start b\n\
     250 end b\n";
  check_parity ~name:"crlf and comments"
    "# header\r\ntasks a\r\n\r\nperiod 0\r\n100 start a\r\n150 end a\r\n";
  check_parity ~name:"indented lines"
    "  tasks a  \nperiod 0\n  100 start a\n  150   end   a  \n"

let malformed =
  [
    ("empty file", "");
    ("blank only", "\n\n# c\n");
    ("tasks without names", "tasks\n");
    ("duplicate tasks", "tasks a b\ntasks c\n");
    ("duplicate task name", "tasks a a\n");
    ("period before tasks", "period 0\n100 rise 0x1\n200 fall 0x1\n");
    ("bad period index", "tasks a\nperiod x\n");
    ("event before period", "tasks a\n100 start a\n");
    ("bad timestamp", "tasks a\nperiod 0\nfoo start a\n");
    ("three-token period", "tasks a\nperiod 1 2\n");
    ("negative timestamp", "tasks a\nperiod 0\n-5 start a\n");
    ("unknown verb", "tasks a\nperiod 0\n100 boing a\n");
    ("unknown task", "tasks a\nperiod 0\n100 start b\n");
    ("bad message id", "tasks a\nperiod 0\n100 rise zz\n");
    ("unparseable", "tasks a\nperiod 0\nfoo bar\n");
    ("tab-joined tokens", "tasks a\nperiod 0\n100\tstart\ta\n");
    ("invalid period", "tasks a\nperiod 0\n200 end a\n100 start a\n");
    ("unpaired rise", "tasks a\nperiod 0\n100 start a\n150 rise 0x1\n200 end a\n");
    ("huge timestamp", "tasks a\nperiod 0\n99999999999999999999 start a\n");
  ]

let test_parity_malformed () =
  List.iter (fun (name, text) -> check_parity ~name text) malformed

let qc_parity_random =
  Test_support.qcheck_case "mmap = boxed loader on simulated traces"
    ~count:25
    QCheck.(pair (int_range 0 11) (int_range 1 10))
    (fun (seed, periods) ->
       let text =
         Tio.to_string
           (Test_support.simulate ~periods ~seed (Test_support.small_design seed))
       in
       with_file text (fun path ->
           match (Tio.load path, Mmap.load path) with
           | Ok (t1, _), Ok (mm, _) ->
             Tio.to_string t1 = Tio.to_string mm.Mmap.trace
           | _ -> false))

(* Timestamps beyond the 41-bit packed range: the boxed loader accepts,
   mmap refuses with its documented range error — the CLI's cue to fall
   back. *)
let test_range_fallback () =
  let text =
    Printf.sprintf "tasks a\nperiod 0\n%d start a\n%d end a\n"
      (A.max_time + 1)
      (A.max_time + 2)
  in
  with_file text (fun path ->
      (match Tio.load path with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "boxed loader rejected: %s" e.message);
      match Mmap.load path with
      | Ok _ -> Alcotest.fail "mmap stored an unencodable timestamp"
      | Error e ->
        Alcotest.(check bool) "flagged as range error" true
          (Mmap.is_range_error e);
        Alcotest.(check int) "at the offending line" 3 e.line)

(* A zero-byte file is the mmap edge case (length-0 mappings are
   implementation-defined): it must be a clean parse error, not a
   crash, and agree with the boxed loader. *)
let test_empty_file () =
  with_file "" (fun path ->
      match (Tio.load path, Mmap.load path) with
      | Error e1, Error e2 ->
        Alcotest.(check (pair int string))
          "same refusal"
          (e1.line, e1.message) (e2.line, e2.message)
      | Ok _, _ -> Alcotest.fail "boxed loader accepted an empty file"
      | _, Ok _ -> Alcotest.fail "mmap accepted an empty file")

(* Files cut mid-record — a writer died between bytes. Every prefix of
   a valid trace must load in parity with the boxed reader: either
   both accept (the cut fell on a record boundary) or both refuse with
   the same line and message. Exhaustive over all cut points. *)
let test_truncated_mid_record () =
  let text =
    "tasks a b\n\
     period 0\n\
     100 start a\n\
     120 rise 0x10\n\
     140 fall 0x10\n\
     150 end a\n\
     160 start b\n\
     200 end b\n"
  in
  for cut = 0 to String.length text - 1 do
    check_parity
      ~name:(Printf.sprintf "truncated at byte %d" cut)
      (String.sub text 0 cut)
  done

let () =
  Alcotest.run "arena"
    [
      ( "packed encoding",
        [
          qc_roundtrip;
          qc_stream_roundtrip;
          Alcotest.test_case "range limits" `Quick test_limits;
          Alcotest.test_case "sub-ranges" `Quick test_sub_ranges;
          Alcotest.test_case "quarantined frames roundtrip" `Quick
            test_quarantined_roundtrip;
        ] );
      ( "mmap reader parity",
        [
          Alcotest.test_case "valid traces" `Quick test_parity_valid;
          Alcotest.test_case "malformed traces" `Quick test_parity_malformed;
          qc_parity_random;
          Alcotest.test_case "packed-range fallback" `Quick
            test_range_fallback;
          Alcotest.test_case "empty file" `Quick test_empty_file;
          Alcotest.test_case "truncated mid-record" `Quick
            test_truncated_mid_record;
        ] );
    ]
