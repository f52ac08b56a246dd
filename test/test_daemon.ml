(* The daemon's robustness contract, tested without sleeping: the
   supervisor is a pure state machine driven by an injected clock; the
   bounded queue is strict-pipe; Tail survives rotation and truncation;
   a Stream killed between checkpoints and replayed from byte 0 renders
   a model byte-equal to an uninterrupted run; and an in-process daemon
   (signals off) drains, stops-and-resumes, refuses over-limit connects
   with BUSY, and keeps the accepted = finalized + failed + shed books
   exact even when a corrupt stream burns its whole restart budget. *)

module Sup = Rt_daemon.Supervisor
module Bq = Rt_daemon.Bqueue
module Stream = Rt_daemon.Stream
module Daemon = Rt_daemon.Daemon
module Control = Rt_daemon.Control
module Tail = Rt_trace.Stream_io.Tail

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let tmpdir () =
  let d = Filename.temp_file "rtgend_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A deterministic multi-period trace as text. *)
let trace_text ?(periods = 9) seed =
  Rt_trace.Trace_io.to_string
    (Test_support.simulate ~periods ~seed (Test_support.pipeline_design 3))

let lines_of text =
  match List.rev (String.split_on_char '\n' text) with
  | "" :: rev -> List.rev rev
  | rev -> List.rev rev

let period_lines text =
  List.length
    (List.filter
       (fun l -> String.length l >= 6 && String.sub l 0 6 = "period")
       (lines_of text))

(* --- bounded queue --------------------------------------------------- *)

let test_bqueue_fifo () =
  let q = Bq.create ~capacity:3 in
  Alcotest.(check bool) "empty" true (Bq.is_empty q);
  List.iter (fun i -> Alcotest.(check bool) "push" true (Bq.push q i = `Ok)) [ 1; 2; 3 ];
  Alcotest.(check bool) "overflow" true (Bq.push q 4 = `Overflow);
  Alcotest.(check int) "unchanged" 3 (Bq.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bq.pop q);
  Alcotest.(check bool) "room again" true (Bq.push q 4 = `Ok);
  Alcotest.(check (list int))
    "drain order" [ 2; 3; 4 ]
    (List.filter_map (fun () -> Bq.pop q) [ (); (); () ]);
  Alcotest.(check (option int)) "empty pop" None (Bq.pop q);
  Alcotest.(check int) "capacity" 3 (Bq.capacity q)

let test_bqueue_capacity () =
  match Bq.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

(* --- supervisor (fake clock, no sleeps) ------------------------------ *)

let policy =
  {
    Sup.max_restarts = 3;
    backoff_base = 0.1;
    backoff_cap = 5.0;
    idle_timeout = 2.0;
  }

let test_backoff_schedule () =
  let expected = [ 0.1; 0.2; 0.4; 0.8; 1.6; 3.2; 5.0; 5.0 ] in
  List.iteri
    (fun i want ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "restart %d" (i + 1))
        want
        (Sup.backoff_delay policy ~restart:(i + 1)))
    expected

let test_restart_budget () =
  let sup = Sup.create ~policy ~now:0.0 () in
  (* three crashes back off with the doubling schedule... *)
  List.iteri
    (fun i until ->
      let now = float_of_int i *. 10.0 in
      match Sup.note_crash sup ~now ~reason:"boom" with
      | `Backoff u ->
        Alcotest.(check (float 1e-9)) "backoff until" (now +. until) u;
        (* mid-backoff the verdict is Continue, after the deadline Restart *)
        Alcotest.(check bool) "too early" true
          (Sup.poll sup ~now:(u -. 0.01) = Sup.Continue);
        Alcotest.(check bool) "due" true
          (Sup.poll sup ~now:(u +. 0.01) = Sup.Restart);
        Sup.note_restart sup ~now:(u +. 0.01)
      | `Failed -> Alcotest.fail "failed before budget exhausted")
    [ 0.1; 0.2; 0.4 ];
  Alcotest.(check int) "restarts" 3 (Sup.restarts sup);
  (* ...the fourth exhausts the budget *)
  (match Sup.note_crash sup ~now:40.0 ~reason:"final straw" with
   | `Failed -> ()
   | `Backoff _ -> Alcotest.fail "budget not enforced");
  (match Sup.phase sup with
   | Sup.Failed r -> Alcotest.(check string) "reason" "final straw" r
   | _ -> Alcotest.fail "not failed");
  Alcotest.(check bool) "failed polls Continue" true
    (Sup.poll sup ~now:1000.0 = Sup.Continue)

let test_idle_watchdog () =
  let sup = Sup.create ~policy ~now:0.0 () in
  Alcotest.(check bool) "within" true
    (Sup.poll sup ~now:1.9 = Sup.Continue);
  Alcotest.(check bool) "idle" true
    (Sup.poll sup ~now:2.1 = Sup.Idle);
  (* fresh data resets idleness, and so does progress *)
  Sup.note_data sup ~now:2.05;
  Alcotest.(check bool) "reset" true
    (Sup.poll sup ~now:2.1 = Sup.Continue);
  Sup.note_progress sup ~now:4.0;
  Alcotest.(check bool) "progress resets" true
    (Sup.poll sup ~now:5.9 = Sup.Continue);
  (* the default policy never idles out *)
  let lazy_sup = Sup.create ~now:0.0 () in
  Alcotest.(check bool) "default never idle" true
    (Sup.poll lazy_sup ~now:1.0e9 = Sup.Continue)

let test_fail_latch () =
  let sup = Sup.create ~policy ~now:0.0 () in
  Sup.fail sup ~reason:"socket gone";
  (match Sup.phase sup with
   | Sup.Failed r -> Alcotest.(check string) "reason" "socket gone" r
   | _ -> Alcotest.fail "not failed");
  Alcotest.(check int) "no restart consumed" 0 (Sup.restarts sup);
  Alcotest.(check bool) "quarantine latch" false (Sup.quarantined sup);
  Sup.set_quarantined sup;
  Alcotest.(check bool) "latched" true (Sup.quarantined sup);
  let sup2 = Sup.create ~policy ~now:0.0 () in
  Sup.finalize sup2;
  Alcotest.(check bool) "finalized polls Continue" true
    (Sup.poll sup2 ~now:1.0e9 = Sup.Continue)

(* --- Tail: rotation, truncation, disappearance ----------------------- *)

(* Step until [stop] matches, collecting Line payloads; bounded so a
   regression fails fast instead of spinning. *)
let collect_until tail stop =
  let lines = ref [] in
  let rec go n =
    if n > 1000 then Alcotest.fail "tail did not settle in 1000 steps"
    else
      let ev = Tail.step tail in
      (match ev with Tail.Line l -> lines := l :: !lines | _ -> ());
      if stop ev then List.rev !lines else go (n + 1)
  in
  go 0

let test_tail_growth () =
  let dir = tmpdir () in
  let path = Filename.concat dir "t.trace" in
  let tail = Tail.create path in
  Alcotest.(check bool) "missing file" true (Tail.step tail = Tail.Vanished);
  write_file path "a\nb\n";
  Alcotest.(check (list string)) "initial" [ "a"; "b" ]
    (collect_until tail (fun e -> e = Tail.Waiting));
  (* append, including a line split across writes *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "c\nd";
  close_out oc;
  Alcotest.(check (list string)) "appended" [ "c" ]
    (collect_until tail (fun e -> e = Tail.Waiting));
  Alcotest.(check (option string)) "partial held back" (Some "d") (Tail.pending tail);
  (* pending takes the buffer; put the tail back together by reopening *)
  Tail.close tail

let test_tail_rotation () =
  let dir = tmpdir () in
  let path = Filename.concat dir "t.trace" in
  write_file path "a\npart";
  let tail = Tail.create path in
  Alcotest.(check (list string)) "before rotate" [ "a" ]
    (collect_until tail (fun e -> e = Tail.Waiting));
  (* logrotate-style: rename away, new file appears under the old name *)
  Sys.rename path (Filename.concat dir "t.trace.1");
  write_file path "fresh\n";
  let got = collect_until tail (fun e -> e = Tail.Waiting) in
  (* the old file's final partial line is flushed, then the new file is
     read from byte 0 *)
  Alcotest.(check (list string)) "across rotation" [ "part"; "fresh" ] got;
  Tail.close tail

let test_tail_truncation () =
  let dir = tmpdir () in
  let path = Filename.concat dir "t.trace" in
  write_file path "one\ntwo\nthree\n";
  let tail = Tail.create path in
  Alcotest.(check (list string)) "before truncate" [ "one"; "two"; "three" ]
    (collect_until tail (fun e -> e = Tail.Waiting));
  (* copytruncate-style shrink: reading restarts from byte 0 *)
  write_file path "anew\n";
  let saw_trunc = ref false in
  let got =
    collect_until tail (fun e ->
        if e = Tail.Truncated then saw_trunc := true;
        e = Tail.Waiting)
  in
  Alcotest.(check bool) "truncation detected" true !saw_trunc;
  Alcotest.(check (list string)) "reread" [ "anew" ] got;
  Tail.close tail

let test_follow_path_events () =
  (* follow_path absorbs Opened/Rotated/Truncated while yielding lines;
     on_event must surface each so callers can route them into the
     flight recorder. *)
  let dir = tmpdir () in
  let path = Filename.concat dir "f.trace" in
  write_file path "a\n";
  let seen = ref [] in
  let stop_flag = ref false in
  let source =
    Rt_trace.Stream_io.follow_path ~poll_interval:0.001
      ~on_event:(fun e -> seen := e :: !seen)
      ~stop:(fun () -> !stop_flag)
      path
  in
  Alcotest.(check (option string)) "first line" (Some "a") (source ());
  (* logrotate: rename away, recreate under the old name *)
  Sys.rename path (Filename.concat dir "f.trace.1");
  write_file path "fresh\n";
  Alcotest.(check (option string)) "line across rotation" (Some "fresh")
    (source ());
  (* copytruncate: shrink below the read position *)
  write_file path "zz\n";
  Alcotest.(check (option string)) "line after truncation" (Some "zz")
    (source ());
  stop_flag := true;
  Alcotest.(check (option string)) "ends on stop" None (source ());
  Alcotest.(check bool) "rotation surfaced" true
    (List.mem Tail.Rotated !seen);
  Alcotest.(check bool) "truncation surfaced" true
    (List.mem Tail.Truncated !seen);
  Alcotest.(check int) "every (re)open surfaced" 3
    (List.length (List.filter (fun e -> e = Tail.Opened) !seen))

(* --- stream: checkpoint kill/replay byte-equality -------------------- *)

let stream_cfg ?checkpoint_path ?(checkpoint_every = 2) () =
  {
    Stream.bound = 4;
    window = None;
    eps = None;
    queue_capacity = 4096;
    checkpoint =
      Option.map (fun p -> Rt_store.Slot.File p) checkpoint_path;
    checkpoint_every;
  }

let feed_all s text =
  List.iter (fun l -> ignore (Stream.offer_line s l)) (lines_of text);
  Stream.close_input s

let pump_to_done s =
  let rec go n =
    if n > 10_000 then Alcotest.fail "stream did not finish"
    else
      match Stream.pump s ~budget:7 with
      | _, Stream.Done -> ()
      | _, Stream.Crashed m -> Alcotest.failf "stream crashed: %s" m
      | _, (Stream.More | Stream.Blocked) -> go (n + 1)
  in
  go 0

(* A final model as [learn -o] writes it. *)
let render (lub, names) = Rt_lattice.Depfun.to_string ?names lub ^ "\n"

let uninterrupted text =
  let s, note = Stream.create ~id:"ref" (stream_cfg ()) in
  Alcotest.(check (option string)) "fresh" None note;
  feed_all s text;
  pump_to_done s;
  match Stream.render_model s with
  | Ok m -> m
  | Error e -> Alcotest.failf "reference render: %s" e

let uninterrupted_model text = render (uninterrupted text)

let test_stream_kill_replay () =
  let dir = tmpdir () in
  let ckpt = Filename.concat dir "v.ckpt" in
  let text = trace_text ~periods:12 42 in
  let reference = uninterrupted_model text in
  (* run half-way with checkpoints every 2 periods, then "die" *)
  let s1, _ = Stream.create ~id:"v" (stream_cfg ~checkpoint_path:ckpt ()) in
  List.iter (fun l -> ignore (Stream.offer_line s1 l)) (lines_of text);
  let handled, _ = Stream.pump s1 ~budget:5 in
  Alcotest.(check int) "made progress" 5 handled;
  Alcotest.(check bool) "checkpointed" true (Stream.checkpoints_written s1 > 0);
  Alcotest.(check bool) "checkpoint on disk" true (Sys.file_exists ckpt);
  (* the replacement resumes the checkpoint and replays from byte 0 *)
  let s2, note = Stream.create ~id:"v" (stream_cfg ~checkpoint_path:ckpt ()) in
  Alcotest.(check (option string)) "clean resume" None note;
  Alcotest.(check bool) "prefix restored" true (Stream.periods_fed s2 > 0);
  feed_all s2 text;
  pump_to_done s2;
  (match Stream.render_model s2 with
   | Ok m -> Alcotest.(check string) "byte-equal after kill" reference (render m)
   | Error e -> Alcotest.failf "resumed render: %s" e);
  Alcotest.(check int) "all periods" (period_lines text) (Stream.periods_fed s2)

let test_stream_corrupt_checkpoint () =
  let dir = tmpdir () in
  let ckpt = Filename.concat dir "v.ckpt" in
  let text = trace_text ~periods:6 7 in
  let reference = uninterrupted_model text in
  write_file ckpt "definitely not a checkpoint";
  let s, note = Stream.create ~id:"v" (stream_cfg ~checkpoint_path:ckpt ()) in
  Alcotest.(check bool) "fallback noted" true (note <> None);
  Alcotest.(check int) "fresh engine" 0 (Stream.periods_fed s);
  feed_all s text;
  pump_to_done s;
  (match Stream.render_model s with
   | Ok m -> Alcotest.(check string) "model unaffected" reference (render m)
   | Error e -> Alcotest.failf "render: %s" e)

let test_stream_foreign_checkpoint () =
  let dir = tmpdir () in
  let ckpt = Filename.concat dir "x.ckpt" in
  let text = trace_text ~periods:6 9 in
  (* a checkpoint tagged for another stream id must not be resumed *)
  let s1, _ = Stream.create ~id:"other" (stream_cfg ~checkpoint_path:ckpt ()) in
  List.iter (fun l -> ignore (Stream.offer_line s1 l)) (lines_of text);
  ignore (Stream.pump s1 ~budget:4);
  Stream.write_checkpoint s1;
  Alcotest.(check bool) "checkpoint exists" true (Sys.file_exists ckpt);
  let s2, note = Stream.create ~id:"mine" (stream_cfg ~checkpoint_path:ckpt ()) in
  Alcotest.(check bool) "foreign tag noted" true (note <> None);
  Alcotest.(check int) "fresh engine" 0 (Stream.periods_fed s2)

let test_stream_overflow_and_close () =
  let s, _ =
    Stream.create ~id:"tiny"
      { (stream_cfg ()) with Stream.queue_capacity = 2 }
  in
  Alcotest.(check bool) "1" true (Stream.offer_line s "a" = `Ok);
  Alcotest.(check bool) "2" true (Stream.offer_line s "b" = `Ok);
  Alcotest.(check bool) "full" true (Stream.offer_line s "c" = `Overflow);
  Alcotest.(check int) "queued" 2 (Stream.queued s);
  Stream.close_input s;
  Alcotest.(check bool) "post-close drop" true (Stream.offer_line s "d" = `Ok);
  Alcotest.(check int) "still 2" 2 (Stream.queued s)

(* --- control protocol ------------------------------------------------ *)

let test_control_parse () =
  let ok req s =
    match Control.parse s with
    | Ok r -> Alcotest.(check string) s (Control.to_string req) (Control.to_string r)
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  ok Control.Status "status";
  ok Control.Status "  status  ";
  ok Control.Metrics "metrics";
  ok Control.Drain "drain";
  ok Control.Flight "flight";
  ok Control.Prometheus "prometheus";
  ok (Control.Snapshot "veh01") "snapshot veh01";
  (match Control.parse "snapshot" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "snapshot needs an id");
  match Control.parse "launch-missiles" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb accepted"

(* --- in-process daemon ----------------------------------------------- *)

let daemon_cfg ~spool ~out ?checkpoint_dir ?stop_after ?drain_after () =
  {
    Daemon.default with
    Daemon.spool = Some spool;
    out_dir = out;
    checkpoint_dir;
    checkpoint_every = 4;
    bound = 4;
    tick = 0.002;
    stop_after_total = stop_after;
    drain_after_total = drain_after;
    handle_signals = false;
  }

(* Three spool streams; threshold is total minus one held-back final
   period per stream (the parser needs the next period line or EOF to
   close a period, and a followed file has no EOF until drain). *)
let make_spool dir seeds =
  List.iteri
    (fun i seed ->
      write_file
        (Filename.concat dir (Printf.sprintf "veh%02d.trace" i))
        (trace_text ~periods:9 seed))
    seeds;
  let total =
    List.fold_left
      (fun acc seed -> acc + period_lines (trace_text ~periods:9 seed))
      0 seeds
  in
  total - List.length seeds

let check_models dir seeds =
  List.iteri
    (fun i seed ->
      let reference = uninterrupted_model (trace_text ~periods:9 seed) in
      let got = read_file (Filename.concat dir (Printf.sprintf "veh%02d.model" i)) in
      Alcotest.(check string) (Printf.sprintf "veh%02d byte-equal" i) reference got)
    seeds

let test_daemon_drain () =
  let spool = tmpdir () and out = tmpdir () in
  let seeds = [ 11; 22; 33 ] in
  let threshold = make_spool spool seeds in
  (match Daemon.run (daemon_cfg ~spool ~out ~drain_after:threshold ()) with
   | Ok Daemon.Drained -> ()
   | Ok Daemon.Stopped -> Alcotest.fail "stopped without stop_after_total"
   | Error e -> Alcotest.failf "daemon: %s" e);
  check_models out seeds

let test_daemon_kill_resume () =
  let spool = tmpdir () and out = tmpdir () and ckpt = tmpdir () in
  let seeds = [ 5; 6; 7 ] in
  let threshold = make_spool spool seeds in
  (* two abrupt exits mid-learn, then a drain over the same spool *)
  List.iter
    (fun stop_after ->
      match
        Daemon.run
          (daemon_cfg ~spool ~out ~checkpoint_dir:ckpt ~stop_after ())
      with
      | Ok Daemon.Stopped -> ()
      | Ok Daemon.Drained -> Alcotest.fail "drained instead of stopping"
      | Error e -> Alcotest.failf "daemon: %s" e)
    [ 9; 18 ];
  Alcotest.(check bool) "no model yet" false
    (Sys.file_exists (Filename.concat out "veh00.model"));
  Alcotest.(check bool) "checkpoint written" true
    (Sys.file_exists (Filename.concat ckpt "veh00.ckpt"));
  (match
     Daemon.run
       (daemon_cfg ~spool ~out ~checkpoint_dir:ckpt ~drain_after:threshold ())
   with
   | Ok Daemon.Drained -> ()
   | Ok Daemon.Stopped -> Alcotest.fail "stopped during final run"
   | Error e -> Alcotest.failf "daemon: %s" e);
  check_models out seeds

(* BUSY admission and the control socket, exercised by a forked client
   while the daemon runs in this process. *)
let connect_retry path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if n > 500 then failwith "connect_retry"
      else begin
        Unix.sleepf 0.01;
        go (n + 1)
      end
  in
  go 0

let read_all fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents b

let roundtrip sock line =
  let fd = connect_retry sock in
  let msg = Bytes.of_string (line ^ "\n") in
  ignore (Unix.write fd msg 0 (Bytes.length msg));
  let resp = read_all fd in
  Unix.close fd;
  resp

let test_daemon_busy_and_control () =
  let dir = tmpdir () in
  let data_sock = Filename.concat dir "data.sock" in
  let ctrl_sock = Filename.concat dir "ctl.sock" in
  let out = Filename.concat dir "client.out" in
  let cfg =
    {
      Daemon.default with
      Daemon.listen = Some data_sock;
      control = Some ctrl_sock;
      out_dir = dir;
      max_streams = 0;
      tick = 0.002;
      metrics_path = Some (Filename.concat dir "m.json");
      handle_signals = false;
    }
  in
  match Unix.fork () with
  | 0 ->
    (* client: refused with BUSY, then a status round-trip, then drain *)
    (try
       let fd = connect_retry data_sock in
       let greeting = read_all fd in
       Unix.close fd;
       let status = roundtrip ctrl_sock "status" in
       let bogus = roundtrip ctrl_sock "frobnicate" in
       let flight = roundtrip ctrl_sock "flight" in
       let prom = roundtrip ctrl_sock "prometheus" in
       write_file out
         (String.concat "\x00" [ greeting; status; bogus; flight; prom ]);
       ignore (roundtrip ctrl_sock "drain")
     with _ -> ());
    Unix._exit 0
  | pid ->
    (match Daemon.run cfg with
     | Ok Daemon.Drained -> ()
     | Ok Daemon.Stopped -> Alcotest.fail "stopped"
     | Error e -> Alcotest.failf "daemon: %s" e);
    ignore (Unix.waitpid [] pid);
    (match String.split_on_char '\x00' (read_file out) with
     | [ greeting; status; bogus; flight; prom ] ->
       Alcotest.(check string) "refused" "BUSY\n" greeting;
       Alcotest.(check bool) "status header" true
         (contains status "rtgend status");
       (* an unknown verb gets exactly one "error: ..." line back *)
       let n = String.length bogus in
       Alcotest.(check bool) "error reply is one line" true
         (n > 0 && bogus.[n - 1] = '\n'
          && not (String.contains (String.sub bogus 0 (n - 1)) '\n'));
       Alcotest.(check bool) "error prefix" true
         (String.length bogus >= 6 && String.sub bogus 0 6 = "error:");
       Alcotest.(check bool) "names the verb" true (contains bogus "frobnicate");
       Alcotest.(check bool) "flight dump over the socket" true
         (contains flight "rtgen-flight" && contains flight "daemon.start");
       Alcotest.(check bool) "prometheus over the socket" true
         (contains prom "# TYPE rtgen_")
     | _ -> Alcotest.fail "client did not complete");
    let m = read_file (Filename.concat dir "m.json") in
    Alcotest.(check bool) "busy counted" true
      (contains m "\"daemon.busy_rejections\": 1")

(* Learning over the data socket: a forked client sends a trace in
   ragged chunks — some cut a line mid-way, some end just after its
   newline — whose last line has no newline, and closes. The model the
   daemon finalizes is the one recover mode learns from the same text. *)
let test_daemon_socket_ingest () =
  let dir = tmpdir () in
  let data_sock = Filename.concat dir "data.sock" in
  let ctrl_sock = Filename.concat dir "ctl.sock" in
  let greeting_file = Filename.concat dir "greeting" in
  let metrics = Filename.concat dir "m.json" in
  let full = trace_text ~periods:12 5 in
  let text = String.sub full 0 (String.length full - 1) in
  (* chunk i ends just after a newline when i is even, three bytes
     short of one when odd *)
  let chunks =
    let n = String.length text in
    let rec go i pos acc =
      if pos >= n then List.rev acc
      else
        let from = min (n - 1) (pos + (i * 7 mod 40)) in
        let nl = Option.value ~default:n (String.index_from_opt text from '\n') in
        let stop =
          if i mod 2 = 0 then min n (nl + 1) else max (pos + 1) (nl - 3)
        in
        go (i + 1) stop (String.sub text pos (stop - pos) :: acc)
    in
    go 0 0 []
  in
  let ends_line c = c <> "" && c.[String.length c - 1] = '\n' in
  Alcotest.(check bool) "chunks cut lines mid-way" true
    (List.exists (fun c -> not (ends_line c)) chunks);
  Alcotest.(check bool) "chunks end at newlines" true
    (List.exists ends_line chunks);
  Alcotest.(check string) "chunks cover the text" text
    (String.concat "" chunks);
  let cfg =
    {
      Daemon.default with
      Daemon.listen = Some data_sock;
      control = Some ctrl_sock;
      out_dir = dir;
      tick = 0.002;
      metrics_path = Some metrics;
      handle_signals = false;
    }
  in
  let model_path = Filename.concat dir "conn1.model" in
  match Unix.fork () with
  | 0 ->
    (try
       let fd = connect_retry data_sock in
       let b = Bytes.create 1 in
       let rec greeting acc =
         match Unix.read fd b 0 1 with
         | 1 when Bytes.get b 0 = '\n' -> acc ^ "\n"
         | 1 -> greeting (acc ^ Bytes.to_string b)
         | _ -> acc
       in
       write_file greeting_file (greeting "");
       List.iter
         (fun c ->
            let m = Bytes.of_string c in
            let rec send off =
              if off < Bytes.length m then
                send (off + Unix.write fd m off (Bytes.length m - off))
            in
            send 0;
            Unix.sleepf 0.002)
         chunks;
       Unix.close fd;
       let rec wait n =
         if (not (Sys.file_exists model_path)) && n < 5000 then begin
           Unix.sleepf 0.002;
           wait (n + 1)
         end
       in
       wait 0
     with _ -> ());
    ignore (try roundtrip ctrl_sock "drain" with _ -> "");
    Unix._exit 0
  | pid ->
    (match Daemon.run cfg with
     | Ok Daemon.Drained -> ()
     | Ok Daemon.Stopped -> Alcotest.fail "stopped"
     | Error e -> Alcotest.failf "daemon: %s" e);
    ignore (Unix.waitpid [] pid);
    Alcotest.(check string) "greeting" "OK conn1\n" (read_file greeting_file);
    (* the model and whether recover mode had to repair anything *)
    let recover text =
      let s, _ =
        Stream.create ~id:"ref"
          { (stream_cfg ()) with Stream.bound = cfg.Daemon.bound }
      in
      feed_all s text;
      pump_to_done s;
      ( render (Result.get_ok (Stream.render_model s)),
        Rt_trace.Quarantine.is_empty (Stream.quarantine s) )
    in
    let want, clean = recover text in
    Alcotest.(check bool) "the text is clean" true clean;
    (* the last line's loss would not change the model, since repair
       closes the period it leaves open, but it would be quarantined *)
    Alcotest.(check bool) "losing the last line shows" false
      (snd (recover (String.sub text 0 (String.rindex text '\n'))));
    Alcotest.(check string) "conn1.model" want (read_file model_path);
    Alcotest.(check bool) "nothing quarantined" true
      (contains (read_file metrics) "\"daemon.streams_quarantined\": 0")

(* The status totals line against the metrics document's counters: the
   daemon keeps each total in one place, so the two must agree. *)
let check_totals status metrics =
  let doc = Result.get_ok (Rt_obs.Json.of_string metrics) in
  let get section name =
    match
      Option.bind
        (Option.bind (Rt_obs.Json.member section doc) (Rt_obs.Json.member name))
        (fun v ->
           match Rt_obs.Json.to_int v with
           | Some n -> Some n
           | None -> Option.bind (Rt_obs.Json.member "last" v) Rt_obs.Json.to_int)
    with
    | Some n -> n
    | None -> Alcotest.failf "metrics document has no %s %s" section name
  in
  let totals =
    match
      List.find_opt (String.starts_with ~prefix:"totals ") (lines_of status)
    with
    | Some l -> l
    | None -> Alcotest.failf "no totals line in %S" status
  in
  List.iter
    (fun kv ->
       match String.split_on_char '=' kv with
       | [ key; v ] ->
         let want =
           match key with
           | "active" -> get "gauges" "daemon.streams_active"
           | "busy" -> get "counters" "daemon.busy_rejections"
           | "restarts" -> get "counters" "daemon.restarts"
           | "periods" -> get "counters" "daemon.periods"
           | k -> get "counters" ("daemon.streams_" ^ k)
         in
         Alcotest.(check int) ("status " ^ key ^ " = metrics") want
           (int_of_string v)
       | _ -> ())
    (List.tl (String.split_on_char ' ' totals))

(* Spool streams finalize at the idle watchdog, a corrupt one burns its
   restart budget, and a socket stream that overruns its 8-line queue
   in one read is shed. Once every stream settled, the forked client
   takes a status and drains. *)
let test_daemon_corrupt_isolation () =
  let spool = tmpdir () and out = tmpdir () in
  let seeds = [ 3; 4 ] in
  ignore (make_spool spool seeds);
  write_file (Filename.concat spool "broken.trace") "garbage\nmore garbage\n";
  let data_sock = Filename.concat out "data.sock" in
  let ctrl_sock = Filename.concat out "ctl.sock" in
  let status_file = Filename.concat out "status" in
  let metrics = Filename.concat out "m.json" in
  let cfg =
    {
      (daemon_cfg ~spool ~out ()) with
      Daemon.listen = Some data_sock;
      control = Some ctrl_sock;
      queue_capacity = 8;
      metrics_path = Some metrics;
      policy =
        { Sup.default_policy with
          Sup.max_restarts = 1; backoff_base = 0.0001; idle_timeout = 0.2 };
    }
  in
  match Unix.fork () with
  | 0 ->
    (try
       let fd = connect_retry data_sock in
       ignore (Unix.read fd (Bytes.create 16) 0 16);
       let m = Bytes.of_string (trace_text ~periods:40 1) in
       ignore (Unix.write fd m 0 (Bytes.length m));
       Unix.close fd;
       let rec settle n =
         let s = roundtrip ctrl_sock "status" in
         if contains s "accepted=4 active=0" || n > 2000 then s
         else begin
           Unix.sleepf 0.005;
           settle (n + 1)
         end
       in
       write_file status_file (settle 0)
     with _ -> ());
    ignore (try roundtrip ctrl_sock "drain" with _ -> "");
    Unix._exit 0
  | pid ->
    (match Daemon.run cfg with
     | Ok Daemon.Drained -> ()
     | Ok Daemon.Stopped -> Alcotest.fail "stopped"
     | Error e -> Alcotest.failf "daemon: %s" e);
    ignore (Unix.waitpid [] pid);
    (* neighbors unharmed, byte-equal *)
    check_models out seeds;
    Alcotest.(check bool) "no model for the corrupt stream" false
      (Sys.file_exists (Filename.concat out "broken.model"));
    Alcotest.(check bool) "no model for the shed stream" false
      (Sys.file_exists (Filename.concat out "conn1.model"));
    (* the books balance: 4 accepted = 2 finalized + 1 failed + 1 shed *)
    let m = read_file metrics in
    Alcotest.(check bool) "accepted" true
      (contains m "\"daemon.streams_accepted\": 4");
    Alcotest.(check bool) "finalized" true
      (contains m "\"daemon.streams_finalized\": 2");
    Alcotest.(check bool) "failed" true
      (contains m "\"daemon.streams_failed\": 1");
    Alcotest.(check bool) "shed" true (contains m "\"daemon.streams_shed\": 1");
    Alcotest.(check bool) "restart budget spent" true
      (contains m "\"daemon.restarts\": 1");
    check_totals (read_file status_file) m

(* A daemon that saw no stream still reports every event counter. *)
let test_daemon_quiet_counters () =
  let spool = tmpdir () and out = tmpdir () in
  let metrics = Filename.concat out "m.json" in
  (match
     Daemon.run
       { (daemon_cfg ~spool ~out ~drain_after:0 ()) with
         Daemon.metrics_path = Some metrics }
   with
   | Ok Daemon.Drained -> ()
   | Ok Daemon.Stopped -> Alcotest.fail "stopped"
   | Error e -> Alcotest.failf "daemon: %s" e);
  let m = read_file metrics in
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " = 0") true
         (contains m (Printf.sprintf "\"daemon.%s\": 0" name)))
    [ "streams_accepted"; "busy_rejections"; "streams_shed"; "streams_failed";
      "streams_finalized"; "restarts"; "streams_quarantined" ]

(* A period longer than the ingest queue: the spool stream's queue
   fills and empties several times before the period closes, so queued
   input waits whole ticks without a period fed. The model is still the
   one [learn --mode recover] learns from the file. *)
let test_daemon_period_over_queue () =
  let spool = tmpdir () and out = tmpdir () in
  let text =
    Rt_trace.Trace_io.to_string
      (Test_support.simulate ~periods:6 ~seed:8 (Test_support.pipeline_design 11))
  in
  let longest, _ =
    List.fold_left
      (fun (longest, n) l ->
         if String.length l >= 6 && String.sub l 0 6 = "period" then
           (max longest n, 1)
         else (longest, n + 1))
      (0, 0) (lines_of text)
  in
  Alcotest.(check bool) "a period of 40 lines" true (longest >= 40);
  write_file (Filename.concat spool "long.trace") text;
  (match
     Daemon.run
       { (daemon_cfg ~spool ~out ~drain_after:(period_lines text - 1) ()) with
         Daemon.queue_capacity = 8 }
   with
   | Ok Daemon.Drained -> ()
   | Ok Daemon.Stopped -> Alcotest.fail "stopped"
   | Error e -> Alcotest.failf "daemon: %s" e);
  let s, _ =
    Rt_shard.Session.create ~mode:`Recover
      (Rt_engine.Engine.Heuristic { bound = 4 })
      (Rt_trace.Stream_io.lines_of_string text)
  in
  let rec learn () =
    match Rt_shard.Session.next s with
    | Ok None -> ()
    | Ok (Some _) -> learn ()
    | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  in
  learn ();
  let snap = Option.get (Rt_shard.Session.finalize s) in
  Alcotest.(check string) "long.model = learn --mode recover"
    (render
       ( Rt_lattice.Depfun.lub snap.Rt_engine.Engine.hypotheses,
         Rt_shard.Session.names s ))
    (read_file (Filename.concat out "long.model"))

(* --- flight recorder: the dump narrates the supervisor ---------------- *)

module Json = Rt_obs.Json

let load_flight path =
  match Json.of_string (read_file path) with
  | Error m -> Alcotest.failf "flight dump unparsable: %s" m
  | Ok doc ->
    Alcotest.(check (option string)) "flight schema" (Some "rtgen-flight")
      (Option.bind (Json.member "schema" doc) Json.to_string_opt);
    (match Option.bind (Json.member "events" doc) Json.to_list with
     | Some events -> events
     | None -> Alcotest.fail "flight dump has no events array")

let ev_field name ev =
  Option.value ~default:""
    (Option.bind (Json.member name ev) Json.to_string_opt)

let index_of x l =
  let rec go i = function
    | [] -> None
    | y :: tl -> if y = x then Some i else go (i + 1) tl
  in
  go 0 l

let test_daemon_flight_sequence () =
  let spool = tmpdir () and out = tmpdir () and ckpt = tmpdir () in
  let seeds = [ 11; 22 ] in
  let threshold = make_spool spool seeds in
  let flight = Filename.concat out "flight.json" in
  let cfg =
    {
      (daemon_cfg ~spool ~out ~checkpoint_dir:ckpt ~drain_after:threshold ())
      with
      Daemon.flight_path = Some flight;
    }
  in
  (match Daemon.run cfg with
   | Ok Daemon.Drained -> ()
   | Ok Daemon.Stopped -> Alcotest.fail "stopped"
   | Error e -> Alcotest.failf "daemon: %s" e);
  let events = load_flight flight in
  let kinds = List.map (ev_field "kind") events in
  Alcotest.(check string) "recording opens with daemon.start" "daemon.start"
    (List.hd kinds);
  Alcotest.(check string) "recording closes with daemon.exit" "daemon.exit"
    (List.nth kinds (List.length kinds - 1));
  Alcotest.(check bool) "drain transition recorded" true
    (List.mem "drain.begin" kinds);
  (* Per stream, the event order retells the supervisor's life cycle:
     admitted first, period boundaries and checkpoint writes in the
     middle, finalize last. *)
  List.iteri
    (fun i _ ->
      let id = Printf.sprintf "veh%02d" i in
      let mine =
        List.filter (fun ev -> ev_field "stream" ev = id) events
      in
      let my_kinds = List.map (ev_field "kind") mine in
      (match my_kinds with
       | "stream.admit" :: _ -> ()
       | k :: _ -> Alcotest.failf "%s opens with %s, not admit" id k
       | [] -> Alcotest.failf "%s has no events" id);
      (match List.rev my_kinds with
       | "stream.finalize" :: _ -> ()
       | k :: _ -> Alcotest.failf "%s closes with %s, not finalize" id k
       | [] -> assert false);
      Alcotest.(check bool) (id ^ " wrote checkpoints") true
        (List.mem "checkpoint.write" my_kinds);
      Alcotest.(check bool) (id ^ " crossed period boundaries") true
        (List.mem "engine.period" my_kinds))
    seeds

let test_daemon_flight_resume_sequence () =
  let spool = tmpdir () and out = tmpdir () and ckpt = tmpdir () in
  let seeds = [ 5; 6 ] in
  let threshold = make_spool spool seeds in
  (* die abruptly mid-learn, checkpoints on disk... *)
  (match
     Daemon.run
       (daemon_cfg ~spool ~out ~checkpoint_dir:ckpt ~stop_after:9 ())
   with
   | Ok Daemon.Stopped -> ()
   | Ok Daemon.Drained -> Alcotest.fail "drained instead of stopping"
   | Error e -> Alcotest.failf "daemon: %s" e);
  (* ...then the successor's flight dump must narrate the resume. *)
  let flight = Filename.concat out "flight.json" in
  let cfg =
    {
      (daemon_cfg ~spool ~out ~checkpoint_dir:ckpt ~drain_after:threshold ())
      with
      Daemon.flight_path = Some flight;
    }
  in
  (match Daemon.run cfg with
   | Ok Daemon.Drained -> ()
   | Ok Daemon.Stopped -> Alcotest.fail "stopped during final run"
   | Error e -> Alcotest.failf "daemon: %s" e);
  let events = load_flight flight in
  List.iteri
    (fun i _ ->
      let id = Printf.sprintf "veh%02d" i in
      let my_kinds =
        List.map (ev_field "kind")
          (List.filter (fun ev -> ev_field "stream" ev = id) events)
      in
      match (index_of "stream.resume" my_kinds,
             index_of "engine.period" my_kinds) with
      | None, _ -> Alcotest.failf "%s never resumed its checkpoint" id
      | Some _, None -> Alcotest.failf "%s fed no periods" id
      | Some r, Some p ->
        Alcotest.(check bool) (id ^ " resumed before feeding") true (r < p))
    seeds;
  (* and the resumed run still renders byte-equal models *)
  check_models out seeds

(* --- write faults: crash consistency at every write ------------------ *)

module Fault = Rt_util.Atomic_file.Fault
module Store = Rt_store.Store
module Session = Rt_shard.Session

(* What a death at any write may leave: every ref loads, and gc runs
   and keeps every blob a ref names. A fault at the store's first write
   leaves no store at all. *)
let check_store_sound ~label dir =
  match Store.open_ dir with
  | Error _ -> ()
  | Ok s ->
    let named =
      List.concat_map
        (fun r ->
           match Store.generations s r with
           | Ok gens ->
             List.concat_map
               (fun e -> e.Store.address :: e.Store.meta.Store.parents)
               gens
           | Error m -> Alcotest.failf "%s: ref does not load: %s" label m)
        (Store.refs s)
    in
    (match Store.gc s with
     | Ok _ -> ()
     | Error m -> Alcotest.failf "%s: gc refused: %s" label m);
    List.iter
      (fun a ->
         if not (Store.has_blob s a) then
           Alcotest.failf "%s: gc deleted named blob %s" label a)
      named

(* Run [f] with the [at]th write faulted; [None] counts the writes of a
   run without faults. An exception out of [f] is the process dying. *)
let faulted ?at kind f =
  Fault.arm ~at:(Option.value at ~default:max_int) kind;
  Fun.protect ~finally:Fault.disarm (fun () ->
      (try ignore (f ()) with _ -> ());
      Fault.ops ())

let rm_rf path = ignore (Sys.command (Printf.sprintf "rm -rf %s" path))

(* One fault per write: nothing at all, or a prefix of the bytes. *)
let kinds n = [ Fault.Fail; Fault.Prefix (n * 37 mod 150) ]

let fault_daemon_cfg ~spool ~out ~store threshold =
  {
    (daemon_cfg ~spool ~out ~drain_after:threshold ()) with
    Daemon.store = Some store;
    policy =
      { Sup.default_policy with Sup.max_restarts = 1; backoff_base = 0.0001 };
  }

let test_daemon_write_faults () =
  let spool = tmpdir () in
  let seeds = [ 5; 6; 7 ] in
  let threshold = make_spool spool seeds in
  (* The daemon's loop reads the clock every pass, outside any stream's
     supervision: there the process dies once a fault has fired. *)
  let clock () =
    if Fault.tripped () then raise Exit;
    float_of_int (Rt_obs.Registry.now_ns ()) /. 1e9
  in
  let run ~out ~store () =
    Daemon.run ~clock (fault_daemon_cfg ~spool ~out ~store threshold)
  in
  let store_of () = Filename.concat (tmpdir ()) "s" in
  let writes = faulted Fault.Fail (run ~out:(tmpdir ()) ~store:(store_of ())) in
  Alcotest.(check bool) "the drain writes" true (writes > 10);
  for n = 1 to writes do
    List.iter
      (fun kind ->
         let out = tmpdir () and store = store_of () in
         let label =
           Printf.sprintf "write %d/%d %s" n writes
             (match kind with
              | Fault.Fail -> "failed"
              | Fault.Prefix k -> Printf.sprintf "cut at %d" k)
         in
         ignore (faulted ~at:n kind (run ~out ~store));
         check_store_sound ~label store;
         (match run ~out ~store () with
          | Ok Daemon.Drained -> ()
          | Ok Daemon.Stopped -> Alcotest.failf "%s: rerun stopped" label
          | Error e -> Alcotest.failf "%s: rerun: %s" label e);
         check_store_sound ~label store;
         let s = Result.get_ok (Store.open_ store) in
         List.iteri
           (fun i seed ->
              let id = Printf.sprintf "veh%02d" i in
              let lub, names = uninterrupted (trace_text ~periods:9 seed) in
              Alcotest.(check string) (label ^ ": " ^ id ^ ".model")
                (render (lub, names))
                (read_file (Filename.concat out (id ^ ".model")));
              let e = Result.get_ok (Store.resolve s ("model/" ^ id)) in
              Alcotest.(check string) (label ^ ": model/" ^ id)
                (Rt_store.Codec.model_to_blob ?names lub)
                (Result.get_ok (Store.read_blob s e.Store.address)))
           seeds;
         rm_rf out;
         rm_rf (Filename.dirname store))
      (kinds n)
  done;
  rm_rf spool

(* [learn --store DIR --checkpoint DIR//ckpt/learn --every 2] at bound 4,
   in process: checkpoints of the main engine and its bound-1 companion
   as ref generations, then the companion and the model committed as
   the CLI does. Returns the model text and the model blob. *)
let learn_to_store dir text =
  let store = Result.get_ok (Store.init dir) in
  let checkpoint =
    { Session.slot = Rt_store.Slot.Ref (store, "ckpt/learn"); tag = "learn";
      source = "trace"; every = 2 }
  in
  let s, _ =
    Session.create ~companion:true ~checkpoint
      (Rt_engine.Engine.Heuristic { bound = 4 })
      (Rt_trace.Stream_io.lines_of_string text)
  in
  let rec pump () =
    match Session.next s with
    | Ok None -> ()
    | Ok (Some _) -> pump ()
    | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  in
  pump ();
  let snap = Option.get (Session.finalize s) in
  Session.discard s;
  let names = Option.get (Session.names s) in
  let model = Rt_lattice.Depfun.lub snap.Rt_engine.Engine.hypotheses in
  let meta kind bound parents =
    { Store.kind; bound = Some bound; source = Some "trace"; parents;
      created_at = Session.periods_fed s }
  in
  let commit ref_ meta blob =
    (Result.get_ok (Store.commit store ~ref_ ~meta blob)).Store.address
  in
  let parents =
    List.map
      (fun (summary, violations) ->
         commit "m/b1" (meta Store.Companion 1 [])
           (Rt_store.Codec.companion_to_blob ~names
              ~summary:(Option.get summary) ~violations ()))
      (Array.to_list (Session.parts s))
  in
  let blob = Rt_store.Codec.model_to_blob ~names model in
  ignore (commit "m" (meta Store.Model 4 parents) blob);
  (Rt_lattice.Depfun.to_string ~names model, blob)

let test_learn_write_faults () =
  let text = trace_text ~periods:9 13 in
  let fresh () = Filename.concat (tmpdir ()) "s" in
  let want = learn_to_store (fresh ()) text in
  let writes = faulted Fault.Fail (fun () -> learn_to_store (fresh ()) text) in
  Alcotest.(check bool) "the learn writes" true (writes > 10);
  for n = 1 to writes do
    List.iter
      (fun kind ->
         let dir = fresh () in
         let label = Printf.sprintf "write %d/%d" n writes in
         ignore (faulted ~at:n kind (fun () -> learn_to_store dir text));
         check_store_sound ~label dir;
         let got = learn_to_store dir text in
         Alcotest.(check (pair string string)) (label ^ ": rerun") want got;
         check_store_sound ~label dir;
         let s = Result.get_ok (Store.open_ dir) in
         let e = Result.get_ok (Store.resolve s "m") in
         Alcotest.(check string) (label ^ ": m@latest") (snd want)
           (Result.get_ok (Store.read_blob s e.Store.address));
         rm_rf (Filename.dirname dir))
      (kinds n)
  done

let () =
  Alcotest.run "daemon"
    [
      ( "bqueue",
        [
          Alcotest.test_case "fifo and overflow" `Quick test_bqueue_fifo;
          Alcotest.test_case "capacity validation" `Quick test_bqueue_capacity;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "restart budget" `Quick test_restart_budget;
          Alcotest.test_case "idle watchdog" `Quick test_idle_watchdog;
          Alcotest.test_case "fail latch" `Quick test_fail_latch;
        ] );
      ( "tail",
        [
          Alcotest.test_case "growth" `Quick test_tail_growth;
          Alcotest.test_case "rotation" `Quick test_tail_rotation;
          Alcotest.test_case "truncation" `Quick test_tail_truncation;
          Alcotest.test_case "follow_path surfaces transitions" `Quick
            test_follow_path_events;
        ] );
      ( "stream",
        [
          Alcotest.test_case "kill/replay byte-equality" `Quick
            test_stream_kill_replay;
          Alcotest.test_case "corrupt checkpoint fallback" `Quick
            test_stream_corrupt_checkpoint;
          Alcotest.test_case "foreign checkpoint refused" `Quick
            test_stream_foreign_checkpoint;
          Alcotest.test_case "overflow and close" `Quick
            test_stream_overflow_and_close;
        ] );
      ( "control",
        [ Alcotest.test_case "request parsing" `Quick test_control_parse ] );
      ( "daemon",
        [
          Alcotest.test_case "spool drain byte-equality" `Quick
            test_daemon_drain;
          Alcotest.test_case "kill twice, resume, byte-equality" `Quick
            test_daemon_kill_resume;
          Alcotest.test_case "corrupt stream isolation" `Quick
            test_daemon_corrupt_isolation;
          Alcotest.test_case "busy admission and control socket" `Quick
            test_daemon_busy_and_control;
          Alcotest.test_case "learns over the data socket" `Quick
            test_daemon_socket_ingest;
          Alcotest.test_case "quiet drain reports zero totals" `Quick
            test_daemon_quiet_counters;
          Alcotest.test_case "period longer than the ingest queue" `Quick
            test_daemon_period_over_queue;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump narrates supervisor transitions" `Quick
            test_daemon_flight_sequence;
          Alcotest.test_case "resume sequence after abrupt stop" `Quick
            test_daemon_flight_resume_sequence;
        ] );
      ( "write faults",
        [
          Alcotest.test_case "store-backed drain survives a fault at every write"
            `Quick test_daemon_write_faults;
          Alcotest.test_case "store-backed learn survives a fault at every write"
            `Quick test_learn_write_faults;
        ] );
    ]
