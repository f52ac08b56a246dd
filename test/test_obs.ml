(* Rt_obs: JSON round trips, histogram bucket math, registry/span
   behaviour under a fake clock, and the two sinks. *)

module Json = Rt_obs.Json
module Histogram = Rt_obs.Histogram
module Registry = Rt_obs.Registry
module Report = Rt_obs.Report

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("a", Json.Int 42); ("b", Json.Float 1.5);
        ("c", Json.String "hi \"there\"\n"); ("d", Json.Bool true);
        ("e", Json.Null); ("f", Json.List [ Json.Int 1; Json.Int (-2) ]);
        ("g", Json.Obj []) ]
  in
  List.iter (fun pretty ->
      match Json.of_string (Json.to_string ~pretty doc) with
      | Ok doc' -> Alcotest.(check bool) "round trip" true (doc = doc')
      | Error m -> Alcotest.failf "reparse failed: %s" m)
    [ false; true ]

let test_json_errors () =
  List.iter (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  let doc = Result.get_ok (Json.of_string {|{"n": 3, "f": 2.0, "s": "x"}|}) in
  Alcotest.(check (option int)) "int member" (Some 3)
    (Option.bind (Json.member "n" doc) Json.to_int);
  Alcotest.(check (option int)) "integral float as int" (Some 2)
    (Option.bind (Json.member "f" doc) Json.to_int);
  Alcotest.(check (option string)) "string member" (Some "x")
    (Option.bind (Json.member "s" doc) Json.to_string_opt);
  Alcotest.(check bool) "missing member" true (Json.member "zzz" doc = None)

(* --- Histogram --- *)

let test_histogram_buckets () =
  Alcotest.(check int) "v<=0 in bucket 0" 0 (Histogram.bucket_of 0);
  Alcotest.(check int) "1 in bucket 1" 1 (Histogram.bucket_of 1);
  Alcotest.(check int) "2 in bucket 2" 2 (Histogram.bucket_of 2);
  Alcotest.(check int) "3 in bucket 2" 2 (Histogram.bucket_of 3);
  Alcotest.(check int) "4 in bucket 3" 3 (Histogram.bucket_of 4);
  Alcotest.(check int) "1023 in bucket 10" 10 (Histogram.bucket_of 1023);
  Alcotest.(check int) "1024 in bucket 11" 11 (Histogram.bucket_of 1024)

let test_histogram_stats () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check int) "empty quantile" 0 (Histogram.quantile h 0.5);
  List.iter (Histogram.record h) [ 5; 10; 20; 40; 80 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "sum" 155 (Histogram.sum h);
  Alcotest.(check int) "min" 5 (Histogram.min_value h);
  Alcotest.(check int) "max" 80 (Histogram.max_value h);
  Alcotest.(check (float 0.001)) "mean" 31.0 (Histogram.mean h);
  Alcotest.(check bool) "median in a middle bucket" true
    (let q = Histogram.quantile h 0.5 in q >= 16 && q <= 31);
  let h2 = Histogram.create () in
  Histogram.record h2 1000;
  Histogram.merge ~into:h h2;
  Alcotest.(check int) "merged count" 6 (Histogram.count h);
  Alcotest.(check int) "merged max" 1000 (Histogram.max_value h)

let test_histogram_edges () =
  (* Empty: every quantile is 0, no buckets. *)
  let h = Histogram.create () in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "empty quantile %.2f" q)
        0 (Histogram.quantile h q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.(check (list (pair int int))) "empty buckets" []
    (Histogram.nonempty_buckets h);
  (* Single sample: min/max clamping pins every quantile to that value,
     not to its bucket's (wider) upper bound. *)
  Histogram.record h 37;
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "single-sample quantile %.2f" q)
        37 (Histogram.quantile h q))
    [ 0.0; 0.5; 1.0 ];
  Alcotest.(check (list (pair int int))) "single bucket" [ (63, 1) ]
    (Histogram.nonempty_buckets h);
  (* Saturating top bucket: max_int lands in the open-ended last
     non-empty bucket, whose reported bound is the max_int sentinel,
     and quantiles stay clamped to the observed extremes. *)
  let h2 = Histogram.create () in
  Histogram.record h2 1;
  Histogram.record h2 max_int;
  (match List.rev (Histogram.nonempty_buckets h2) with
   | (le, n) :: _ ->
     Alcotest.(check int) "top bucket bound is the sentinel" max_int le;
     Alcotest.(check int) "top bucket count" 1 n
   | [] -> Alcotest.fail "no buckets after recording");
  Alcotest.(check int) "q=1.0 clamps to observed max" max_int
    (Histogram.quantile h2 1.0);
  Alcotest.(check int) "q=0.0 stays at observed min" 1
    (Histogram.quantile h2 0.0);
  Alcotest.(check int) "sum survives the big sample" (max_int + 1)
    (Histogram.sum h2)

(* --- Registry --- *)

(* A controllable clock: each [tick] advances one microsecond. *)
let fake_clock () =
  let t = ref 0 in
  ((fun () -> !t), fun () -> t := !t + 1_000)

let test_counters_and_gauges () =
  let reg = Registry.create () in
  let c = Registry.counter reg "learn.merges" in
  Registry.incr c;
  Registry.add c 4;
  Alcotest.(check int) "incr+add" 5 (Registry.counter_value c);
  Alcotest.(check bool) "same handle for same name" true
    (Registry.counter reg "learn.merges" == c);
  Registry.set_counter reg "learn.merges" 17;
  Alcotest.(check int) "set_counter overwrites" 17 (Registry.counter_value c);
  let g = Registry.gauge reg "learn.occupancy" in
  Registry.set_gauge g 3;
  Registry.set_gauge g 9;
  Registry.set_gauge g 2;
  (match Json.member "gauges" (Registry.to_json reg) with
   | Some gauges ->
     let f field =
       Option.bind (Json.member "learn.occupancy" gauges) (fun o ->
           Option.bind (Json.member field o) Json.to_int)
     in
     Alcotest.(check (option int)) "gauge last" (Some 2) (f "last");
     Alcotest.(check (option int)) "gauge max" (Some 9) (f "max");
     Alcotest.(check (option int)) "gauge samples" (Some 3) (f "samples")
   | None -> Alcotest.fail "no gauges section")

let test_spans () =
  let clock, tick = fake_clock () in
  let reg = Registry.create ~clock () in
  Registry.span_begin reg "learn.period";
  tick ();
  Registry.span_begin reg "learn.inner";
  tick ();
  Registry.span_end reg;
  tick ();
  Registry.span_end reg;
  Alcotest.(check int) "balanced" 0 (Registry.open_spans reg);
  Alcotest.check_raises "unbalanced close rejected"
    (Invalid_argument "Registry.span_end: no open span")
    (fun () -> Registry.span_end reg);
  let spans = Option.get (Json.member "spans" (Registry.to_json reg)) in
  let total name =
    Option.bind (Json.member name spans) (fun o ->
        Option.bind (Json.member "total_ns" o) Json.to_int)
  in
  Alcotest.(check (option int)) "outer total" (Some 3_000)
    (total "learn.period");
  Alcotest.(check (option int)) "inner total" (Some 1_000)
    (total "learn.inner")

let test_with_span_exception_safe () =
  let reg = Registry.create () in
  (try Registry.with_span reg "x.y" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 0 (Registry.open_spans reg)

(* --- sinks --- *)

let populated () =
  let clock, tick = fake_clock () in
  let reg = Registry.create ~clock () in
  Registry.set_counter reg "learn.merges" 7;
  Registry.set_counter reg "ingest.periods_kept" 3;
  Registry.set_gauge_named reg "learn.occupancy" 4;
  Histogram.record (Registry.histogram reg "learn.candidate_pairs") 12;
  Registry.with_span reg "learn.period" tick;
  reg

let test_metrics_json_shape () =
  let doc = Registry.to_json (populated ()) in
  Alcotest.(check (option string)) "schema" (Some Registry.schema_name)
    (Option.bind (Json.member "schema" doc) Json.to_string_opt);
  Alcotest.(check (option int)) "version" (Some Registry.schema_version)
    (Option.bind (Json.member "version" doc) Json.to_int);
  (* Reparse of the serialized document must succeed and preserve it. *)
  let text = Json.to_string ~pretty:true doc in
  Alcotest.(check bool) "serialized form reparses" true
    (Json.of_string text = Ok doc);
  (* Deterministic sections precede the timing-dependent ones, so tests
     can compare the counters prefix textually across runs. *)
  (match doc with
   | Json.Obj fields ->
     let keys = List.map fst fields in
     Alcotest.(check (list string)) "section order"
       [ "schema"; "version"; "counters"; "gauges"; "histograms"; "spans";
         "elapsed_ns" ]
       keys
   | _ -> Alcotest.fail "not an object")

let test_report_render () =
  let reg = populated () in
  let text = Report.of_registry reg in
  List.iter (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true
        (let nh = String.length text and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
         in
         go 0))
    [ "== ingest =="; "== learn =="; "learn.merges"; "7";
      "learn.candidate_pairs" ];
  (match Report.render (Registry.to_json reg) with
   | Ok text' -> Alcotest.(check string) "render = of_registry" text text'
   | Error m -> Alcotest.failf "render failed: %s" m);
  (match Report.render (Json.Obj [ ("schema", Json.String "bogus") ]) with
   | Ok _ -> Alcotest.fail "accepted a non-metrics document"
   | Error _ -> ())

let test_phase_of () =
  Alcotest.(check string) "dotted" "learn" (Report.phase_of "learn.period");
  Alcotest.(check string) "undotted" "flat" (Report.phase_of "flat")

let test_trace_events () =
  let doc = Registry.trace_events_json (populated ()) in
  match doc with
  | Json.List (_ :: _ as events) ->
    List.iter (fun ev ->
        Alcotest.(check (option string)) "complete event" (Some "X")
          (Option.bind (Json.member "ph" ev) Json.to_string_opt);
        Alcotest.(check bool) "has ts and dur" true
          (Json.member "ts" ev <> None && Json.member "dur" ev <> None))
      events;
    Alcotest.(check (option string)) "cat is the phase" (Some "learn")
      (Option.bind (Json.member "cat" (List.hd events)) Json.to_string_opt)
  | Json.List [] -> Alcotest.fail "no events emitted"
  | _ -> Alcotest.fail "not a JSON array"

(* --- learner counters: determinism and checkpoint travel --- *)

let gm_trace = lazy (Rt_case.Gm_model.trace ~periods:6 ())

let learn_counters () =
  let module H = Rt_learn.Heuristic in
  let trace = Lazy.force gm_trace in
  let st = H.init ~bound:8 ~ntasks:(Rt_trace.Trace.task_count trace) () in
  List.iter (H.feed st) (Rt_trace.Trace.periods trace);
  H.counters st

(* Four learns at once on a 4-domain pool, as a sharded session runs its
   pairs, count exactly what a sequential one does. *)
let test_counters_parallel_deterministic () =
  let seq = learn_counters () in
  let pool = Rt_util.Domain_pool.create ~jobs:4 in
  let par =
    Fun.protect ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
      (fun () -> Rt_util.Domain_pool.map pool learn_counters (Array.make 4 ()))
  in
  Array.iter
    (fun c ->
       Alcotest.(check bool) "counters identical across -j" true (seq = c))
    par

let test_counters_travel_checkpoint () =
  let module H = Rt_learn.Heuristic in
  let trace = Lazy.force gm_trace in
  let periods = Rt_trace.Trace.periods trace in
  let ntasks = Rt_trace.Trace.task_count trace in
  let full = H.init ~bound:8 ~ntasks () in
  List.iter (H.feed full) periods;
  (* Kill after 3 periods, checkpoint, resume, finish. *)
  let st = H.init ~bound:8 ~ntasks () in
  List.iteri (fun i p -> if i < 3 then H.feed st p) periods;
  let st' = List.hd (fst (Result.get_ok (H.resume (H.checkpoint [ st ])))) in
  List.iteri (fun i p -> if i >= 3 then H.feed st' p) periods;
  Alcotest.(check bool) "stats equal" true (H.stats full = H.stats st');
  Alcotest.(check bool) "counters equal" true
    (H.counters full = H.counters st')

let test_checkpoint_v1_refused () =
  let module H = Rt_learn.Heuristic in
  let st = H.init ~bound:2 ~ntasks:3 () in
  let ck = Bytes.of_string (H.checkpoint [ st ]) in
  Bytes.set ck 8 '\001';  (* version byte follows the 8-byte magic *)
  match H.resume (Bytes.to_string ck) with
  | Ok _ -> Alcotest.fail "resumed a version-1 checkpoint"
  | Error m ->
    Alcotest.(check bool) "names the version" true
      (String.length m > 0
       && (let nh = String.length m in
           let needle = "version 1" in
           let nn = String.length needle in
           let rec go i =
             i + nn <= nh && (String.sub m i nn = needle || go (i + 1))
           in
           go 0))

(* --- flight recorder --- *)

module Flight = Rt_obs.Flight

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s mentions %s" what needle)
    true (contains haystack needle)

let test_flight_wraparound () =
  let clock, tick = fake_clock () in
  let t = Flight.create ~clock ~capacity:4 () in
  for i = 0 to 5 do
    Flight.record t Flight.Info ~stream:"s"
      ~kind:(Printf.sprintf "k%d" i)
      (Printf.sprintf "d%d" i);
    tick ()
  done;
  Alcotest.(check int) "capacity" 4 (Flight.capacity t);
  Alcotest.(check int) "recorded counts overwritten events" 6
    (Flight.recorded t);
  Alcotest.(check int) "length capped at capacity" 4 (Flight.length t);
  Alcotest.(check int) "dropped = recorded - length" 2 (Flight.dropped t);
  let evs = Flight.events t in
  Alcotest.(check (list int)) "oldest-first sequence order after wrap"
    [ 2; 3; 4; 5 ]
    (List.map (fun (e : Flight.event) -> e.seq) evs);
  Alcotest.(check (list string)) "payloads rotate with the sequence"
    [ "k2"; "k3"; "k4"; "k5" ]
    (List.map (fun (e : Flight.event) -> e.kind) evs);
  Alcotest.(check bool) "timestamps non-decreasing" true
    (let rec mono = function
       | (a : Flight.event) :: (b :: _ as tl) -> a.ts_ns <= b.ts_ns && mono tl
       | _ -> true
     in
     mono evs)

let test_flight_scope_and_json () =
  let clock, _tick = fake_clock () in
  let t = Flight.create ~clock ~capacity:8 () in
  let s = Flight.scope t "veh0" in
  Flight.record_s s Flight.Warn ~kind:"stream.shed" "q=4096";
  Flight.record t Flight.Error ~stream:"" ~kind:"daemon.exit" "drained";
  (match Flight.events t with
   | [ a; b ] ->
     Alcotest.(check string) "scoped stream id" "veh0" a.Flight.stream;
     Alcotest.(check string) "daemon-wide stream id" "" b.Flight.stream
   | _ -> Alcotest.fail "expected exactly two events");
  let doc = Flight.to_json t in
  Alcotest.(check (option string)) "schema" (Some Flight.schema_name)
    (Option.bind (Json.member "schema" doc) Json.to_string_opt);
  Alcotest.(check (option int)) "version" (Some Flight.schema_version)
    (Option.bind (Json.member "version" doc) Json.to_int);
  Alcotest.(check (option int)) "dropped in the dump" (Some 0)
    (Option.bind (Json.member "dropped" doc) Json.to_int);
  Alcotest.(check bool) "dump reparses to itself" true
    (Json.of_string (Json.to_string ~pretty:true doc) = Ok doc);
  (match Option.bind (Json.member "events" doc) Json.to_list with
   | Some [ a; b ] ->
     Alcotest.(check (option string)) "severity rendered" (Some "warn")
       (Option.bind (Json.member "severity" a) Json.to_string_opt);
     Alcotest.(check (option string)) "error rendered" (Some "error")
       (Option.bind (Json.member "severity" b) Json.to_string_opt)
   | _ -> Alcotest.fail "events list shape");
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Flight.create: capacity must be >= 1")
    (fun () -> ignore (Flight.create ~capacity:0 ()))

(* --- profiler --- *)

module Profile = Rt_obs.Profile

(* One period with two scans inside: period inclusive 3us (1us its own),
   scan 2 * 1us, all exclusive. *)
let profiled () =
  let clock, tick = fake_clock () in
  let reg = Registry.create ~clock () in
  Registry.with_span reg "learn.period" (fun () ->
      tick ();
      Registry.with_span reg "learn.scan" tick;
      Registry.with_span reg "learn.scan" tick);
  reg

let test_profile_rows () =
  match Profile.rows (profiled ()) with
  | [ scan; period ] ->
    Alcotest.(check string) "hotter span first" "learn.scan" scan.Profile.name;
    Alcotest.(check int) "scan count" 2 scan.Profile.count;
    Alcotest.(check int) "scan inclusive" 2_000 scan.Profile.inclusive_ns;
    Alcotest.(check int) "scan exclusive" 2_000 scan.Profile.exclusive_ns;
    Alcotest.(check string) "parent second" "learn.period" period.Profile.name;
    Alcotest.(check int) "period inclusive is the whole span" 3_000
      period.Profile.inclusive_ns;
    Alcotest.(check int) "period exclusive subtracts children" 1_000
      period.Profile.exclusive_ns
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_profile_folded_and_hotspots () =
  let reg = profiled () in
  Alcotest.(check string) "folded stacks: path -> exclusive ns"
    "learn.period 1000\nlearn.period;learn.scan 2000\n"
    (Profile.folded reg);
  let table = Profile.hotspots reg in
  List.iter (check_contains "hotspot table" table)
    [ "learn.scan"; "learn.period"; "excl%"; "total span time" ];
  Alcotest.(check string) "empty registry degrades gracefully"
    "(no spans recorded — nothing to profile)\n"
    (Profile.hotspots (Registry.create ()))

(* --- prometheus exposition --- *)

module Prom = Rt_obs.Prom

let test_prom_render () =
  let reg = populated () in
  Registry.set_gauge_named reg "daemon.stream.veh0.queue" 5;
  Registry.set_gauge_named reg "daemon.stream.veh1.queue" 7;
  let text = Prom.of_registry reg in
  (* Counters gain _total; names are sanitized under the rtgen_ prefix. *)
  check_contains "exposition" text
    "# TYPE rtgen_learn_merges_total counter\nrtgen_learn_merges_total 7\n";
  (* Per-stream gauges collapse to one labelled, contiguous family. *)
  check_contains "exposition" text
    "rtgen_daemon_stream_queue{stream=\"veh0\"} 5\n\
     rtgen_daemon_stream_queue{stream=\"veh1\"} 7\n";
  (* Histograms turn per-bucket counts cumulative, ending at +Inf. *)
  check_contains "exposition" text
    "rtgen_learn_candidate_pairs_bucket{le=\"15\"} 1\n";
  check_contains "exposition" text
    "rtgen_learn_candidate_pairs_bucket{le=\"+Inf\"} 1\n";
  check_contains "exposition" text "rtgen_learn_candidate_pairs_sum 12\n";
  check_contains "exposition" text "rtgen_learn_candidate_pairs_count 1\n";
  (* Span aggregates become a pair of counters. *)
  check_contains "exposition" text "rtgen_learn_period_spans_total 1\n";
  check_contains "exposition" text "rtgen_learn_period_span_ns_total 1000\n";
  check_contains "exposition" text "# TYPE rtgen_elapsed_ns gauge\n"

let test_prom_rejects_foreign_documents () =
  (match Prom.render (Json.Obj [ ("schema", Json.String "bogus") ]) with
   | Ok _ -> Alcotest.fail "rendered a non-metrics document"
   | Error m -> check_contains "error" m "bogus");
  match Prom.render (Json.Obj [ ("schema", Json.String Registry.schema_name) ])
  with
  | Ok _ -> Alcotest.fail "rendered a versionless document"
  | Error m -> check_contains "error" m "version"

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "stats and merge" `Quick test_histogram_stats;
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
        ] );
      ( "flight",
        [
          Alcotest.test_case "wraparound keeps order" `Quick
            test_flight_wraparound;
          Alcotest.test_case "scopes and dump shape" `Quick
            test_flight_scope_and_json;
        ] );
      ( "profile",
        [
          Alcotest.test_case "exclusive vs inclusive" `Quick test_profile_rows;
          Alcotest.test_case "folded stacks and hotspots" `Quick
            test_profile_folded_and_hotspots;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition mapping" `Quick test_prom_render;
          Alcotest.test_case "foreign documents rejected" `Quick
            test_prom_rejects_foreign_documents;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "spans under a fake clock" `Quick test_spans;
          Alcotest.test_case "with_span exception safety" `Quick
            test_with_span_exception_safe;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "metrics document shape" `Quick
            test_metrics_json_shape;
          Alcotest.test_case "report rendering" `Quick test_report_render;
          Alcotest.test_case "phase grouping" `Quick test_phase_of;
          Alcotest.test_case "chrome trace events" `Quick test_trace_events;
        ] );
      ( "learner-counters",
        [
          Alcotest.test_case "deterministic across -j" `Quick
            test_counters_parallel_deterministic;
          Alcotest.test_case "travel through checkpoints" `Quick
            test_counters_travel_checkpoint;
          Alcotest.test_case "version-1 checkpoint refused" `Quick
            test_checkpoint_v1_refused;
        ] );
    ]
