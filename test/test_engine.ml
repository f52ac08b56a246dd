(* The streaming engine's contract: feeding a trace period by period is
   bit-identical to the core algorithm run over the whole trace — same
   hypotheses, same counters — at every bound, with engines fed in
   parallel, and with snapshots taken mid-stream. *)

module Eng = Rt_engine.Engine
module H = Rt_learn.Heuristic
module Df = Rt_lattice.Depfun
module Reg = Rt_obs.Registry
module Json = Rt_obs.Json
module T = Rt_trace.Trace

let gm = Rt_case.Gm_model.trace ()

let hyp_strings hs = List.map Df.to_string hs

(* The core's counters, by name: what the engine must publish unchanged
   (its own [engine.*] totals come on top). *)
let learn_counters r =
  match Option.bind (Json.member "counters" (Reg.to_json r)) Json.to_obj with
  | None -> Alcotest.fail "no counters section in metrics"
  | Some kvs ->
    List.filter_map (fun (name, v) ->
        if String.starts_with ~prefix:"learn." name then
          Option.map (fun n -> (name, n)) (Json.to_int v)
        else None)
      kvs

let engine_fed ?obs ~bound trace =
  let eng =
    Eng.create ?obs ~ntasks:(T.task_count trace)
      (Eng.Heuristic { bound })
  in
  List.iter (Eng.feed eng) (T.periods trace);
  Eng.finalize eng

(* --- engine-fed = the core's batch run, byte for byte --- *)

let check_snapshot (core : H.outcome) r_core r_engine snap =
  Alcotest.(check (list string)) "hypotheses byte-equal"
    (hyp_strings core.H.hypotheses) (hyp_strings snap.Eng.hypotheses);
  Alcotest.(check int) "periods" core.H.stats.H.periods_processed
    snap.Eng.periods;
  Alcotest.(check int) "messages" (T.total_messages gm) snap.Eng.messages;
  Alcotest.(check bool) "converged agrees" (H.converged core <> None)
    snap.Eng.converged;
  Alcotest.(check (list (pair string int))) "learn.* counters equal"
    (learn_counters r_core) (learn_counters r_engine)

(* With [jobs > 1], [jobs] engines are fed at once on a pool's domains,
   as a sharded session feeds its pairs; each must equal the core. *)
let check_equiv ~bound ~jobs () =
  let r_core = Reg.create () in
  let core = H.run ~obs:r_core ~bound gm in
  Alcotest.(check bool) "core publishes learn.* counters" true
    (learn_counters r_core <> []);
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
  Array.iteri (fun i snap -> check_snapshot core r_core regs.(i) snap) snaps

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
  match H.resume data with
  | Error m -> Alcotest.failf "resume failed: %s" m
  | Ok (_ :: _ :: _, _) | Ok ([], _) -> Alcotest.fail "not one engine"
  | Ok ([ st ], tag) ->
    let eng' = Eng.of_heuristic st in
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

(* --- bound 1 joins in place: nothing handed out aliases the state --- *)

(* At bound 1 each message joins into the state's one matrix in place,
   so what the engine handed out before must own its bytes: a snapshot,
   [current] and a checkpoint image taken at a random period read the
   same after the rest of the trace is fed, and the image, resumed
   before that, still saves to itself and ends where the engine does.
   The rest of the trace must move the model, or the check shows
   nothing. *)
let in_place_leaks_nowhere =
  Test_support.qcheck_case "bound 1: snapshots own their bytes" ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 1 8))
    (fun (seed, cut) ->
       let trace =
         Test_support.simulate ~periods:16 ~seed
           (Test_support.small_design (seed mod 12))
       in
       let eng =
         Eng.create ~ntasks:(T.task_count trace) (Eng.Heuristic { bound = 1 })
       in
       let periods = T.periods trace in
       let feed_from lo e =
         List.iteri (fun i p -> if i >= lo then Eng.feed e p) periods
       in
       List.iteri (fun i p -> if i < cut then Eng.feed eng p) periods;
       let bytes ds = List.map (fun d -> Bytes.to_string (Df.cells d)) ds in
       let snap = Eng.snapshot eng and cur = Eng.current eng in
       let image = Result.get_ok (Eng.checkpoint eng) in
       let held_cur = bytes cur in
       let held =
         (bytes snap.Eng.hypotheses, bytes (Option.to_list snap.Eng.lub),
          held_cur)
       in
       let resumed =
         match H.resume image with
         | Ok ([ st ], _) -> Eng.of_heuristic st
         | Ok _ | Error _ -> Alcotest.fail "image does not resume"
       in
       feed_from cut eng;
       QCheck.assume (bytes (Eng.current eng) <> held_cur);
       let still_image = Result.get_ok (Eng.checkpoint resumed) in
       feed_from cut resumed;
       held
       = (bytes snap.Eng.hypotheses, bytes (Option.to_list snap.Eng.lub),
          bytes cur)
       && String.equal still_image image
       && Eng.checkpoint resumed = Eng.checkpoint eng)

(* --- Batch use: an engine fed a whole trace, then finalized --- *)

let test_learn_verify () =
  let snap = engine_fed ~bound:4 gm in
  Alcotest.(check bool) "theorem 2 holds" true
    (List.for_all (fun d -> Rt_learn.Matching.matches_trace d gm)
       snap.Eng.hypotheses)

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
      ( "cores",
        [
          Alcotest.test_case "exact incremental" `Quick
            test_exact_engine_matches_run;
          Alcotest.test_case "checkpoint round trip" `Quick
            test_engine_checkpoint_roundtrip;
          in_place_leaks_nowhere;
        ] );
      ( "facade",
        [ Alcotest.test_case "verify" `Quick test_learn_verify ] );
    ]
