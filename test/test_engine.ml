(* The streaming engine's contract: feeding a trace period by period is
   bit-identical to batch learning — same hypotheses, same counters — at
   every bound, every -j level, with snapshots taken mid-stream, and
   from a live segmented event stream instead of a materialized trace. *)

module Eng = Rt_engine.Engine
module L = Rt_engine.Learner
module Df = Rt_lattice.Depfun
module Reg = Rt_obs.Registry
module T = Rt_trace.Trace
module P = Rt_trace.Period
module E = Rt_trace.Event
module Es = Rt_trace.Event_source
module Seg = Rt_trace.Segmenter

let gm = Rt_case.Gm_model.trace ()

let hyp_strings hs = List.map Df.to_string hs

(* The deterministic prefix of a metrics dump: everything before the
   timing-dependent gauge/histogram/span sections. *)
let counters r =
  let s = Rt_obs.Json.to_string (Reg.to_json r) in
  let find needle from =
    let nn = String.length needle and nh = String.length s in
    let rec go i =
      if i + nn > nh then Alcotest.failf "no %S section in metrics" needle
      else if String.sub s i nn = needle then i
      else go (i + 1)
    in
    go from
  in
  let a = find "\"counters\"" 0 in
  String.sub s a (find "\"gauges\"" a - a)

let engine_fed ?obs ~bound trace =
  let eng =
    Eng.create ?obs ~ntasks:(T.task_count trace)
      (Eng.Heuristic { bound })
  in
  List.iter (Eng.feed eng) (T.periods trace);
  Eng.finalize eng

(* --- batch = engine-fed, byte for byte --- *)

let check_snapshot rep r_learner r_engine snap =
  Alcotest.(check (list string)) "hypotheses byte-equal"
    (hyp_strings rep.L.hypotheses) (hyp_strings snap.Eng.hypotheses);
  Alcotest.(check (option string)) "lub equal"
    (Option.map Df.to_string rep.L.lub)
    (Option.map Df.to_string snap.Eng.lub);
  Alcotest.(check int) "periods" rep.L.periods snap.Eng.periods;
  Alcotest.(check int) "messages" rep.L.messages snap.Eng.messages;
  Alcotest.(check bool) "converged agrees" rep.L.converged snap.Eng.converged;
  Alcotest.(check string) "counters byte-equal"
    (counters r_learner) (counters r_engine)

(* With [jobs > 1], [jobs] engines are fed at once on a pool's domains,
   as a sharded session feeds its pairs; each must equal the batch
   learner. *)
let check_equiv ~bound ~jobs () =
  let r_learner = Reg.create () in
  let rep = L.learn ~obs:r_learner (L.Heuristic bound) gm in
  let regs = Array.init jobs (fun _ -> Reg.create ()) in
  let fed i = engine_fed ~obs:regs.(i) ~bound gm in
  let snaps =
    if jobs <= 1 then [| fed 0 |]
    else begin
      let pool = Rt_util.Domain_pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
        (fun () -> Rt_util.Domain_pool.map pool fed (Array.init jobs Fun.id))
    end
  in
  Array.iteri (fun i snap -> check_snapshot rep r_learner regs.(i) snap) snaps

let test_equiv_bound4_j1 () = check_equiv ~bound:4 ~jobs:1 ()
let test_equiv_bound4_j4 () = check_equiv ~bound:4 ~jobs:4 ()
let test_equiv_bound64_j1 () = check_equiv ~bound:64 ~jobs:1 ()
let test_equiv_bound64_j4 () = check_equiv ~bound:64 ~jobs:4 ()

(* --- mid-stream snapshots are free --- *)

let test_midstream_snapshot_is_free () =
  let eng =
    Eng.create ~ntasks:(T.task_count gm) (Eng.Heuristic { bound = 4 })
  in
  let periods = T.periods gm in
  let half = List.length periods / 2 in
  List.iteri (fun i p ->
      if i = half then begin
        let s = Eng.snapshot eng in
        Alcotest.(check int) "snapshot sees the fed prefix" half s.Eng.periods;
        Alcotest.(check bool) "mid-stream answer nonempty" true
          (s.Eng.hypotheses <> [])
      end;
      Eng.feed eng p)
    periods;
  let interrupted = Eng.finalize eng in
  let clean = engine_fed ~bound:4 gm in
  Alcotest.(check (list string)) "snapshot did not perturb the run"
    (hyp_strings clean.Eng.hypotheses)
    (hyp_strings interrupted.Eng.hypotheses);
  Alcotest.(check int) "periods" clean.Eng.periods interrupted.Eng.periods;
  Alcotest.(check int) "messages" clean.Eng.messages interrupted.Eng.messages

(* --- streamed periods from a flat event capture = batch --- *)

let flatten ~period_len trace =
  List.concat_map (fun (pd : P.t) ->
      List.map (fun (e : E.t) ->
          { e with E.time = e.time + (pd.index * period_len) })
        pd.events)
    (T.periods trace)

let test_feed_source_equals_batch () =
  let d = Rt_case.Gm_model.design () in
  let period_len = d.Rt_task.Design.period in
  let events = flatten ~period_len gm in
  let seg =
    Seg.create ~task_set:gm.task_set ~period_len (Es.of_list events)
  in
  let eng =
    Eng.create ~ntasks:(T.task_count gm) (Eng.Heuristic { bound = 4 })
  in
  (match Eng.feed_source eng seg with
   | Error e ->
     Alcotest.failf "segmentation failed at period %d" e.Seg.period_index
   | Ok n -> Alcotest.(check int) "all periods fed" (T.period_count gm) n);
  let streamed = Eng.finalize eng in
  let batch = L.learn (L.Heuristic 4) gm in
  (* The streamed periods carry absolute timestamps; the learner depends
     only on time differences, so the model is identical anyway. *)
  Alcotest.(check (list string)) "streamed = batch hypotheses"
    (hyp_strings batch.L.hypotheses) (hyp_strings streamed.Eng.hypotheses);
  Alcotest.(check int) "messages" batch.L.messages streamed.Eng.messages

(* --- live simulator feed = batch simulator run --- *)

let test_simulator_source_equals_run () =
  let d = Rt_case.Gm_model.design () in
  let cfg =
    { Rt_case.Gm_model.reference_config with Rt_sim.Simulator.periods = 6 }
  in
  let batch = Rt_sim.Simulator.run d cfg in
  let seg =
    Seg.create ~task_set:(Rt_task.Design.task_set d)
      ~period_len:d.Rt_task.Design.period
      (Rt_sim.Simulator.source d cfg)
  in
  let eng =
    Eng.create ~ntasks:(T.task_count batch) (Eng.Heuristic { bound = 4 })
  in
  (match Eng.feed_source eng seg with
   | Error _ -> Alcotest.fail "simulated stream must segment cleanly"
   | Ok n -> Alcotest.(check int) "6 periods" 6 n);
  let streamed = Eng.finalize eng in
  let from_trace = engine_fed ~bound:4 batch in
  Alcotest.(check (list string)) "same model from the live feed"
    (hyp_strings from_trace.Eng.hypotheses)
    (hyp_strings streamed.Eng.hypotheses);
  Alcotest.(check int) "same messages"
    from_trace.Eng.messages streamed.Eng.messages

(* --- the exact core, driven incrementally --- *)

let test_exact_engine_matches_run () =
  let t = Rt_case.Paper_example.trace () in
  let o = Rt_learn.Exact.run t in
  let eng =
    Eng.create ~ntasks:(T.task_count t) (Eng.Exact { limit = None })
  in
  List.iter (Eng.feed eng) (T.periods t);
  let snap = Eng.finalize eng in
  Alcotest.(check (list string)) "exact engine = Exact.run"
    (hyp_strings o.hypotheses) (hyp_strings snap.Eng.hypotheses);
  Alcotest.(check bool) "consistent" true snap.Eng.consistent;
  (match Eng.checkpoint eng with
   | Ok _ -> Alcotest.fail "exact core must refuse to checkpoint"
   | Error _ -> ())

(* --- checkpoint round trip through the engine API --- *)

let test_engine_checkpoint_roundtrip () =
  let eng =
    Eng.create ~ntasks:(T.task_count gm) (Eng.Heuristic { bound = 4 })
  in
  let periods = T.periods gm in
  let cut = 3 in
  List.iteri (fun i p -> if i < cut then Eng.feed eng p) periods;
  let data =
    match Eng.checkpoint ~tag:"roundtrip" eng with
    | Ok d -> d
    | Error m -> Alcotest.failf "checkpoint failed: %s" m
  in
  match Eng.resume data with
  | Error m -> Alcotest.failf "resume failed: %s" m
  | Ok (eng', tag) ->
    Alcotest.(check string) "tag preserved" "roundtrip" tag;
    Alcotest.(check int) "periods travel" cut (Eng.periods_fed eng');
    Alcotest.(check int) "messages travel"
      (Eng.messages_fed eng) (Eng.messages_fed eng');
    List.iteri (fun i p ->
        if i >= cut then begin Eng.feed eng p; Eng.feed eng' p end)
      periods;
    let a = Eng.finalize eng and b = Eng.finalize eng' in
    Alcotest.(check (list string)) "resumed run converges identically"
      (hyp_strings a.Eng.hypotheses) (hyp_strings b.Eng.hypotheses);
    Alcotest.(check int) "messages equal" a.Eng.messages b.Eng.messages

(* --- Learner facade: trajectory and monotonic timing --- *)

let test_auto_trajectory () =
  let rep, bound = L.auto gm in
  let steps = rep.L.trajectory in
  Alcotest.(check bool) "trajectory recorded" true (steps <> []);
  (* Bounds double from 1. *)
  List.iteri (fun i (s : L.bound_step) ->
      Alcotest.(check int) "doubling bounds" (1 lsl i) s.L.bound;
      Alcotest.(check bool) "elapsed is monotonic-clock nonnegative" true
        (s.L.elapsed_s >= 0.0);
      Alcotest.(check bool) "hypotheses within bound" true
        (s.L.hypotheses >= 1))
    steps;
  let last = List.nth steps (List.length steps - 1) in
  Alcotest.(check int) "returned bound is the last step's" last.L.bound bound;
  Alcotest.(check bool) "search stopped because the lub settled" false
    last.L.lub_changed;
  (* The report is the plain learn report at the chosen bound. *)
  let direct = L.learn (L.Heuristic bound) gm in
  Alcotest.(check (list string)) "auto report = learn at chosen bound"
    (hyp_strings direct.L.hypotheses) (hyp_strings rep.L.hypotheses)

let test_learn_elapsed_monotonic () =
  let rep = L.learn (L.Heuristic 2) gm in
  Alcotest.(check bool) "elapsed nonnegative" true (rep.L.elapsed_s >= 0.0);
  Alcotest.(check bool) "plain learn has no trajectory" true
    (rep.L.trajectory = [])

let test_learn_verify () =
  let rep = L.learn (L.Heuristic 4) gm in
  Alcotest.(check bool) "theorem 2 holds" true (L.verify rep gm)

let () =
  Alcotest.run "rt_engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "bound 4, -j 1" `Quick test_equiv_bound4_j1;
          Alcotest.test_case "bound 4, -j 4" `Quick test_equiv_bound4_j4;
          Alcotest.test_case "bound 64, -j 1" `Quick test_equiv_bound64_j1;
          Alcotest.test_case "bound 64, -j 4" `Quick test_equiv_bound64_j4;
          Alcotest.test_case "mid-stream snapshot" `Quick
            test_midstream_snapshot_is_free;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "feed_source = batch" `Quick
            test_feed_source_equals_batch;
          Alcotest.test_case "simulator live feed" `Quick
            test_simulator_source_equals_run;
        ] );
      ( "cores",
        [
          Alcotest.test_case "exact incremental" `Quick
            test_exact_engine_matches_run;
          Alcotest.test_case "checkpoint round trip" `Quick
            test_engine_checkpoint_roundtrip;
        ] );
      ( "facade",
        [
          Alcotest.test_case "auto trajectory" `Quick test_auto_trajectory;
          Alcotest.test_case "elapsed monotonic" `Quick
            test_learn_elapsed_monotonic;
          Alcotest.test_case "verify" `Quick test_learn_verify;
        ] );
    ]
