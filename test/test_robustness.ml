(* Robustness suite for the fault-injection / resilient-ingestion /
   checkpointing work: Corrupt is exactly reproducible and the identity
   at rate 0; Recover-mode loading survives every corruption kind and
   accounts for everything it changed; Repair's per-stream fixes are the
   documented ones; checkpoints round-trip bit-exactly across all merge
   policies and make a killed run indistinguishable from an uninterrupted
   one; the simulator's extended fault model stays deterministic. *)

module E = Rt_trace.Event
module P = Rt_trace.Period
module T = Rt_trace.Trace
module Io = Rt_trace.Trace_io
module Q = Rt_trace.Quarantine
module Rp = Rt_trace.Repair
module C = Rt_trace.Corrupt
module V = Rt_trace.Vcd
module H = Rt_learn.Heuristic

let ev time kind = { E.time; kind }

let ts2 = Rt_task.Task_set.of_names [| "a"; "b" |]

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A mid-sized deterministic trace shared by the heavier tests. *)
let base_trace =
  lazy (Test_support.simulate ~periods:8 ~seed:3 (Test_support.pipeline_design 4))

(* --- Repair: the per-stream fixes --- *)

let repair_ok events =
  match Rp.period ~index:0 ~task_set:ts2 events with
  | Ok (p, fixes) -> (p, fixes)
  | Error e -> Alcotest.failf "repair failed: %s" (P.string_of_error e)

let test_repair_dangling_rise () =
  let p, fixes =
    repair_ok
      [ ev 0 (E.Task_start 0); ev 10 (E.Task_end 0); ev 12 (E.Msg_rise 5) ]
  in
  Alcotest.(check bool) "fix reported" true
    (fixes = [ Rp.Closed_dangling_rise 5 ]);
  Alcotest.(check int) "message kept" 1 (P.msg_count p);
  Alcotest.(check int) "synthetic fall just after tmax" 13 p.msgs.(0).fall

let test_repair_orphan_fall () =
  let p, fixes =
    repair_ok
      [ ev 0 (E.Task_start 0); ev 10 (E.Task_end 0); ev 8 (E.Msg_fall 5) ]
  in
  Alcotest.(check bool) "fix reported" true
    (fixes = [ Rp.Dropped_orphan_fall 5 ]);
  Alcotest.(check int) "message gone" 0 (P.msg_count p)

let test_repair_swap_within_eps () =
  let inverted =
    [ ev 0 (E.Task_start 0); ev 10 (E.Task_end 0);
      ev 22 (E.Msg_rise 5); ev 20 (E.Msg_fall 5) ]
  in
  (match Rp.period ~eps:5 ~index:0 ~task_set:ts2 inverted with
   | Error e -> Alcotest.failf "repair failed: %s" (P.string_of_error e)
   | Ok (p, fixes) ->
     Alcotest.(check bool) "swap reported" true
       (fixes = [ Rp.Swapped_edges_within_eps 5 ]);
     Alcotest.(check int) "rise took the earlier stamp" 20 p.msgs.(0).rise;
     Alcotest.(check int) "fall took the later stamp" 22 p.msgs.(0).fall);
  (* Without the tolerance the same evidence is an orphan plus a
     dangling edge. *)
  let _, fixes = repair_ok inverted in
  Alcotest.(check bool) "eps 0 falls back to drop+close" true
    (List.mem (Rp.Dropped_orphan_fall 5) fixes
     && List.mem (Rp.Closed_dangling_rise 5) fixes)

let test_repair_duplicate_start () =
  let p, fixes =
    repair_ok
      [ ev 0 (E.Task_start 0); ev 5 (E.Task_start 0); ev 10 (E.Task_end 0) ]
  in
  Alcotest.(check bool) "fix reported" true
    (fixes = [ Rp.Dropped_duplicate_start 0 ]);
  Alcotest.(check int) "first start kept" 0 p.start_time.(0);
  Alcotest.(check bool) "task executed" true p.executed.(0)

let test_repair_task_inversion () =
  match
    Rp.period ~eps:2 ~index:0 ~task_set:ts2
      [ ev 5 (E.Task_end 0); ev 7 (E.Task_start 0) ]
  with
  | Error e -> Alcotest.failf "repair failed: %s" (P.string_of_error e)
  | Ok (p, fixes) ->
    Alcotest.(check bool) "swap reported" true
      (fixes = [ Rp.Swapped_task_within_eps 0 ]);
    Alcotest.(check int) "start" 5 p.start_time.(0);
    Alcotest.(check int) "end" 7 p.end_time.(0)

(* --- Trace_io: strict vs recover --- *)

let damaged_text =
  "# rtgen-trace v1\ntasks a b\nperiod 0\nbogus line\n1 start a\n2 end a\n\
   period 1\n1 start a\n"

let test_io_strict_still_rejects () =
  match Io.of_string damaged_text with
  | Ok _ -> Alcotest.fail "strict mode accepted damage"
  | Error e -> Alcotest.(check int) "first bad line" 4 e.line

let test_io_recover_accounts () =
  match Io.of_string ~mode:`Recover damaged_text with
  | Error e -> Alcotest.failf "recover failed: %s" e.message
  | Ok (t, q) ->
    Alcotest.(check int) "both periods usable" 2 (T.period_count t);
    Alcotest.(check int) "one line skipped" 1 (List.length q.skipped_lines);
    Alcotest.(check int) "skipped line number" 4
      (List.hd q.skipped_lines).Q.line;
    Alcotest.(check int) "clean period counted" 1 q.kept;
    (* period 1's dangling start was closed, not dropped *)
    Alcotest.(check int) "repaired" 1 (List.length q.repaired);
    Alcotest.(check int) "dropped" 0 (List.length q.dropped)

(* Drain a recover-mode learn session over [text]: its account, which
   must equal a whole-trace recover load's. *)
let session_report ~eps text =
  let s, _ =
    Rt_shard.Session.create ~mode:`Recover ~eps
      (Rt_engine.Engine.Heuristic { bound = 1 })
      Rt_trace.Stream_io.(Input (string_input text))
  in
  let rec drain () =
    match Rt_shard.Session.next s with
    | Ok (Some _) -> drain ()
    | Ok None -> Ok (Rt_shard.Session.quarantine s)
    | Error e -> Error e
  in
  drain ()

(* Period 0 is structurally clean but its frame has no receiver, so
   salvage cuts it; period 1's dangling start is repaired. The account
   lists both in trace order, from a batch load and a session alike. *)
let test_io_recover_report_in_trace_order () =
  let text =
    "# rtgen-trace v1\ntasks a b\nperiod 0\n1 start a\n2 end a\n\
     5 rise 0x1\n6 fall 0x1\nperiod 1\n1 start a\n"
  in
  let check what = function
    | Error (e : Io.parse_error) -> Alcotest.failf "%s: %s" what e.message
    | Ok (q : Q.t) ->
      Alcotest.(check (list int)) (what ^ ": repaired in trace order")
        [ 0; 1 ]
        (List.map (fun (r : Q.period_repair) -> r.period_index) q.repaired);
      Alcotest.(check (list string)) (what ^ ": period 0's fix")
        [ "excised 1 inexplicable frame(s)" ]
        (List.hd q.repaired).fixes;
      Alcotest.(check int) (what ^ ": kept") 0 q.kept
  in
  check "load" (Result.map snd (Io.of_string ~mode:`Recover text));
  check "session" (session_report ~eps:0 text)

let test_io_missing_tasks_fatal_in_both_modes () =
  List.iter (fun mode ->
      match Io.of_string ~mode "period 0\n1 start a\n" with
      | Ok _ -> Alcotest.fail "accepted a trace without a tasks line"
      | Error _ -> ())
    [ `Strict; `Recover ]

(* --- Quarantine arithmetic --- *)

let test_quarantine_confidence () =
  Alcotest.(check (float 1e-9)) "empty is full confidence" 1.0
    (Q.confidence Q.empty);
  let q =
    { Q.empty with
      Q.kept = 3;
      repaired =
        [ { Q.period_index = 1; fixes = [ "x" ] };
          { Q.period_index = 2; fixes = [ "y" ] } ];
      dropped = [ { Q.period_index = 3; reason = "z" } ] }
  in
  Alcotest.(check int) "periods seen" 6 (Q.periods_seen q);
  Alcotest.(check (float 1e-9)) "kept=1, repaired=1/2, dropped=0"
    (4.0 /. 6.0) (Q.confidence q);
  Alcotest.(check bool) "summary mentions the counts" true
    (contains ~needle:"3 kept, 2 repaired, 1 dropped" (Q.summary q))

(* --- Corrupt: identity at rate 0, reproducible otherwise --- *)

let test_corrupt_zero_rate_is_identity () =
  let trace = Lazy.force base_trace in
  List.iter (fun kind ->
      let spec = { C.kinds = [ kind ]; rate = 0.0; eps = 50; seed = 9 } in
      Alcotest.(check string)
        ("rate 0 identity: " ^ C.kind_to_string kind)
        (Io.to_string trace)
        (C.to_string (C.apply spec trace)))
    C.all_kinds;
  (* ... and Recover-mode ingestion of the identity is bit-identical to
     Strict, with an empty quarantine and identical learning. *)
  let text = C.to_string (C.apply { C.default with rate = 0.0 } trace) in
  match (Io.of_string ~mode:`Recover text, Io.of_string text) with
  | Ok (tr, qr), Ok (ts, _) ->
    Alcotest.(check bool) "quarantine empty" true (Q.is_empty qr);
    Alcotest.(check string) "same trace" (Io.to_string ts) (Io.to_string tr);
    let a = H.run ~bound:8 tr and b = H.run ~bound:8 ts in
    Alcotest.(check bool) "same stats" true (a.H.stats = b.H.stats);
    Alcotest.(check (list Test_support.depfun)) "same hypotheses"
      b.H.hypotheses a.H.hypotheses
  | _ -> Alcotest.fail "loading the identity corruption failed"

let test_corrupt_reproducible () =
  let trace = Lazy.force base_trace in
  let spec = { C.default with rate = 0.2; seed = 77 } in
  Alcotest.(check string) "same seed, same damage"
    (C.to_string (C.apply spec trace))
    (C.to_string (C.apply spec trace))

let prop_recover_survives_each_kind =
  Test_support.qcheck_case ~count:60 "recover load survives any single kind"
    QCheck.(triple (oneofl C.all_kinds) (int_bound 9) (int_bound 1000))
    (fun (kind, r10, seed) ->
       let trace = Lazy.force base_trace in
       let rate = 0.03 +. (0.27 *. float_of_int r10 /. 9.0) in
       let spec = { C.kinds = [ kind ]; rate; eps = 40; seed } in
       let text = C.to_string (C.apply spec trace) in
       match Io.of_string ~mode:`Recover ~eps:80 text with
       | Ok (_, q) -> session_report ~eps:80 text = Ok q
       | Error _ -> false)

let prop_recover_survives_all_kinds =
  Test_support.qcheck_case ~count:40 "recover load survives combined kinds"
    QCheck.(pair (int_bound 9) (int_bound 1000))
    (fun (r10, seed) ->
       let trace = Lazy.force base_trace in
       let rate = 0.03 +. (0.27 *. float_of_int r10 /. 9.0) in
       let spec = { C.default with rate; seed } in
       let text = C.to_string (C.apply spec trace) in
       match Io.of_string ~mode:`Recover ~eps:80 text with
       | Ok (_, q) -> session_report ~eps:80 text = Ok q
       | Error _ -> false)

(* --- Checkpoint / resume --- *)

let policies = [ H.Lightest_pair; H.Heaviest_pair; H.First_last ]

let policy_name = function
  | H.Lightest_pair -> "lightest" | H.Heaviest_pair -> "heaviest"
  | H.First_last -> "first-last"

let outcomes_equal ~ctx (a : H.outcome) (b : H.outcome) =
  Alcotest.(check bool) (ctx ^ ": stats equal") true (a.H.stats = b.H.stats);
  Alcotest.(check (list Test_support.depfun)) (ctx ^ ": hypotheses equal")
    b.H.hypotheses a.H.hypotheses

let test_checkpoint_roundtrip () =
  let trace = Lazy.force base_trace in
  let periods = T.periods trace in
  let ntasks = T.task_count trace in
  let k = List.length periods / 2 in
  List.iter (fun policy ->
      let ctx = policy_name policy in
      let st = H.init ~policy ~bound:4 ~ntasks () in
      List.iteri (fun i p -> if i < k then H.feed st p) periods;
      H.set_provenance st ~dropped:2 ~repaired:3;
      let data = H.checkpoint ~tag:"trace-digest" [ st ] in
      match H.resume data with
      | Error m -> Alcotest.failf "%s: resume failed: %s" ctx m
      | Ok (_ :: _ :: _, _) | Ok ([], _) -> Alcotest.failf "%s: not one state" ctx
      | Ok ([ st' ], tag) ->
        Alcotest.(check string) (ctx ^ ": tag round trip") "trace-digest" tag;
        Alcotest.(check bool) (ctx ^ ": provenance survives") true
          (H.provenance st'
           = { H.periods_dropped = 2; periods_repaired = 3 });
        outcomes_equal ~ctx:(ctx ^ " at the cut") (H.snapshot st)
          (H.snapshot st');
        Alcotest.(check bool) (ctx ^ ": counters survive the cut") true
          (H.counters st = H.counters st');
        (* The killed-and-resumed learner must match the uninterrupted
           one for the rest of the trace. *)
        List.iteri (fun i p ->
            if i >= k then begin H.feed st p; H.feed st' p end)
          periods;
        outcomes_equal ~ctx:(ctx ^ " after the rest") (H.snapshot st)
          (H.snapshot st');
        Alcotest.(check bool) (ctx ^ ": counters equal after the rest") true
          (H.counters st = H.counters st'))
    policies

let test_checkpoint_matches_uninterrupted_run () =
  let trace = Lazy.force base_trace in
  let periods = T.periods trace in
  let ntasks = T.task_count trace in
  let st = H.init ~bound:4 ~ntasks () in
  (* Kill and resume after every single period. *)
  let st =
    List.fold_left (fun st p ->
        H.feed st p;
        match H.resume (H.checkpoint [ st ]) with
        | Ok ([ st' ], _) -> st'
        | Ok _ -> Alcotest.fail "not one state"
        | Error m -> Alcotest.failf "resume failed: %s" m)
      st periods
  in
  outcomes_equal ~ctx:"period-by-period kill-resume"
    (H.run ~bound:4 trace) (H.snapshot st);
  (* The observability counters also survive every cut: totals equal an
     uninterrupted state's, not just the reference stats triple. *)
  let whole = H.init ~bound:4 ~ntasks () in
  List.iter (H.feed whole) periods;
  Alcotest.(check bool) "counters equal an uninterrupted state's" true
    (H.counters whole = H.counters st)

let test_resume_rejects_garbage () =
  let bad data =
    match H.resume data with
    | Ok _ -> Alcotest.fail "resume accepted malformed input"
    | Error _ -> ()
  in
  bad "";
  bad "garbage";
  bad (String.make 64 '\000');
  (* a valid checkpoint, truncated *)
  let st = H.init ~bound:2 ~ntasks:3 () in
  let data = H.checkpoint [ st ] in
  bad (String.sub data 0 (String.length data - 1));
  bad (data ^ "\000");
  (* a valid payload cut exactly by its 32-byte integrity trailer *)
  bad (String.sub data 0 (String.length data - 32))

(* --- Vcd import/export --- *)

let test_vcd_roundtrip () =
  let t = Test_support.fig2_trace () in
  let dump = V.to_string ~period_len:1000 t in
  match V.of_string ~period_len:1000 dump with
  | Error (e : V.parse_error) ->
    Alcotest.failf "import failed: line %d: %s" e.line e.message
  | Ok (t', len) ->
    Alcotest.(check int) "period length" 1000 len;
    Alcotest.(check string) "round trip" (Io.to_string t) (Io.to_string t')

let test_vcd_roundtrip_simulated () =
  let t = Lazy.force base_trace in
  let dump = V.to_string ~period_len:2000 t in
  match V.of_string ~period_len:2000 dump with
  | Error (e : V.parse_error) ->
    Alcotest.failf "import failed: line %d: %s" e.line e.message
  | Ok (t', _) ->
    Alcotest.(check string) "round trip" (Io.to_string t) (Io.to_string t')

let test_vcd_errors_are_positioned () =
  let line_of s =
    match V.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> e.V.line
  in
  Alcotest.(check int) "junk first line" 1 (line_of "junk\n");
  Alcotest.(check int) "unknown code" 3
    (line_of "$var wire 1 ! task_a $end\n#5\n1?\n");
  Alcotest.(check int) "unsupported width" 1
    (line_of "$var wire 8 ! task_a $end\n");
  Alcotest.(check int) "bad signal name" 1
    (line_of "$var wire 1 ! voltage $end\n");
  Alcotest.(check int) "decreasing time" 4
    (line_of "$var wire 1 ! task_a $end\n#5\n1!\n#3\n0!\n");
  (* A task running across a period boundary breaks the model of
     computation: a whole-dump error, not a silently split period. *)
  match
    V.of_string ~period_len:100
      "$var wire 1 ! task_a $end\n#90\n1!\n#110\n0!\n"
  with
  | Ok _ -> Alcotest.fail "accepted a task straddling a period boundary"
  | Error e -> Alcotest.(check int) "straddling task" 0 e.V.line

let test_vcd_exporter_total () =
  (* Every bus id present in the events gets a declared signal; the
     seed's lookup could raise [Invalid_argument] here. *)
  let dump = V.to_string (Test_support.fig2_trace ()) in
  Alcotest.(check bool) "task signals declared" true
    (contains ~needle:"task_" dump);
  Alcotest.(check bool) "bus signals declared" true
    (contains ~needle:"can_0x" dump)

(* --- Atomic writes --- *)

let test_atomic_write () =
  let path = Filename.temp_file "rtgen" ".atomic" in
  Rt_util.Atomic_file.write path "hello";
  Alcotest.(check bool) "no tmp residue" false
    (Sys.file_exists (path ^ ".tmp"));
  let read p =
    let ic = open_in p in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "content written" "hello" (read path);
  Rt_util.Atomic_file.write path "world";
  Alcotest.(check string) "overwrite is atomic too" "world" (read path);
  Sys.remove path

(* --- Simulator fault model --- *)

let test_sim_faults_deterministic_and_valid () =
  let d = Test_support.pipeline_design 4 in
  let cfg =
    { Rt_sim.Simulator.default_config with
      periods = 6; seed = 11; jitter_spike_rate = 0.3; glitch_rate = 0.9 }
  in
  let t1 = Rt_sim.Simulator.run d cfg in
  let t2 = Rt_sim.Simulator.run d cfg in
  let s1 = Io.to_string t1 in
  Alcotest.(check string) "same seed, same trace" s1 (Io.to_string t2);
  Alcotest.(check bool) "glitches logged under high ids" true
    (contains ~needle:"0x7c" s1);
  (* Glitched traces are noisy but structurally valid. *)
  match Io.of_string s1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "glitched trace invalid: %s" e.message

let () =
  Alcotest.run "robustness"
    [
      ( "repair",
        [
          Alcotest.test_case "dangling rise closed" `Quick
            test_repair_dangling_rise;
          Alcotest.test_case "orphan fall dropped" `Quick
            test_repair_orphan_fall;
          Alcotest.test_case "inverted edges swapped within eps" `Quick
            test_repair_swap_within_eps;
          Alcotest.test_case "duplicate start dropped" `Quick
            test_repair_duplicate_start;
          Alcotest.test_case "inverted start/end swapped" `Quick
            test_repair_task_inversion;
        ] );
      ( "ingestion",
        [
          Alcotest.test_case "strict rejects with line number" `Quick
            test_io_strict_still_rejects;
          Alcotest.test_case "recover accounts for damage" `Quick
            test_io_recover_accounts;
          Alcotest.test_case "recover report in trace order" `Quick
            test_io_recover_report_in_trace_order;
          Alcotest.test_case "missing tasks fatal in both modes" `Quick
            test_io_missing_tasks_fatal_in_both_modes;
          Alcotest.test_case "quarantine confidence" `Quick
            test_quarantine_confidence;
        ] );
      ( "corrupt",
        [
          Alcotest.test_case "rate 0 is the identity" `Quick
            test_corrupt_zero_rate_is_identity;
          Alcotest.test_case "same seed same damage" `Quick
            test_corrupt_reproducible;
          prop_recover_survives_each_kind;
          prop_recover_survives_all_kinds;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round trip across policies" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "kill-resume equals uninterrupted" `Quick
            test_checkpoint_matches_uninterrupted_run;
          Alcotest.test_case "malformed input rejected" `Quick
            test_resume_rejects_garbage;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "round trip (worked example)" `Quick
            test_vcd_roundtrip;
          Alcotest.test_case "round trip (simulated)" `Quick
            test_vcd_roundtrip_simulated;
          Alcotest.test_case "structured errors" `Quick
            test_vcd_errors_are_positioned;
          Alcotest.test_case "exporter is total" `Quick
            test_vcd_exporter_total;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "atomic file write" `Quick test_atomic_write;
          Alcotest.test_case "simulator faults deterministic" `Quick
            test_sim_faults_deterministic_and_valid;
        ] );
    ]
