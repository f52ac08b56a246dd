(* The sharding contract (DESIGN.md §14): for any trace, any bound and
   any shard count, the folded shard model is byte-equal to the
   monolithic bound-1 model — with the seed's Reference implementation
   as the oracle — and a trace is reported inconsistent by the fold iff
   the monolithic run finds it so. The bounded LUB itself is NOT
   partition-independent (minimality pruning under assumption branching
   can discard evidence carriers per shard — the deviation
   test_theorems.ml documents), which is why the fold goes through the
   bound-1 companions; a regression here pins the counterexample that
   proves it. Also pins the partition planner's arithmetic, domination
   of every shard's bounded LUB by the folded model, and the
   violation-exchange law the fold relies on (a naive join without the
   final weakening pass must NOT equal the monolithic model on a
   crafted fixture, or the fold is not being tested at all). *)

module Df = Rt_lattice.Depfun
module H = Rt_learn.Heuristic
module R = Rt_learn.Reference
module S = Rt_shard.Shard
module Engine = Rt_engine.Engine
module Trace = Rt_trace.Trace

let depfun = Test_support.depfun

(* --- plan ------------------------------------------------------------ *)

let test_plan () =
  Alcotest.(check (list (pair int int)))
    "4 shards over 10 periods"
    [ (0, 3); (3, 6); (6, 8); (8, 10) ]
    (Array.to_list (S.plan ~shards:4 ~periods:10));
  Alcotest.(check (list (pair int int)))
    "more shards than periods collapse"
    [ (0, 1); (1, 2) ]
    (Array.to_list (S.plan ~shards:8 ~periods:2));
  Alcotest.(check (list (pair int int)))
    "empty trace keeps one empty range"
    [ (0, 0) ]
    (Array.to_list (S.plan ~shards:4 ~periods:0));
  Alcotest.check_raises "zero shards refused"
    (Invalid_argument "Shard.plan: shards must be >= 1") (fun () ->
        ignore (S.plan ~shards:0 ~periods:5))

let qc_plan_partitions =
  Test_support.qcheck_case "plan = contiguous near-equal partition"
    ~count:200
    QCheck.(pair (int_range 1 16) (int_range 0 64))
    (fun (shards, periods) ->
       let ranges = S.plan ~shards ~periods in
       let sizes = Array.map (fun (lo, hi) -> hi - lo) ranges in
       let covers =
         fst ranges.(0) = 0
         && snd ranges.(Array.length ranges - 1) = periods
         && Array.for_all (fun s -> s >= 0) sizes
         && (let ok = ref true in
             for i = 1 to Array.length ranges - 1 do
               if fst ranges.(i) <> snd ranges.(i - 1) then ok := false
             done;
             !ok)
       in
       let near_equal =
         periods = 0
         || Array.for_all (fun s ->
                s >= periods / Array.length ranges) sizes
       in
       covers && near_equal)

(* --- the headline property: fold = monolithic bound-1 model ---------- *)

let lub_of (o : H.outcome) =
  match o.hypotheses with [] -> None | l -> Some (Df.lub l)

let oracle_of trace = lub_of (R.run ~bound:1 trace)

let check_equal_opt what expect got =
  match (expect, got) with
  | None, None -> ()
  | Some e, Some g -> Alcotest.check depfun what e g
  | Some _, None -> Alcotest.failf "%s: fold inconsistent, oracle is not" what
  | None, Some _ -> Alcotest.failf "%s: fold has a model, oracle does not" what

(* Besides the oracle equality: the folded model must dominate every
   shard's bounded LUB (the Lemma of test_theorems.ml, per shard). *)
let check_domination what (out : S.outcome) =
  match out.model with
  | None -> ()
  | Some model ->
    Array.iteri
      (fun i (r : S.result) ->
         match r.hypotheses with
         | [] -> ()
         | hs ->
           Alcotest.(check bool)
             (Printf.sprintf "%s: shard %d bounded lub dominated" what i)
             true
             (Df.leq (Df.lub hs) model))
      out.shards

let check_trace ?(bounds = [ 1; 2; 8 ]) trace =
  let oracle = oracle_of trace in
  List.iter
    (fun bound ->
       List.iter
         (fun shards ->
            let what = Printf.sprintf "bound %d, %d shards" bound shards in
            let out = S.learn ~bound ~shards trace in
            check_equal_opt what oracle out.model;
            check_domination what out;
            Alcotest.(check int)
              (Printf.sprintf "periods total (K=%d)" shards)
              (Trace.period_count trace) out.periods)
         [ 1; 2; 4; 8 ])
    bounds

let test_oracle_pipeline () =
  check_trace
    (Test_support.simulate ~periods:12 ~seed:3 (Test_support.pipeline_design 4))

let test_oracle_paper_example () = check_trace (Test_support.fig2_trace ())

let qc_oracle_random =
  Test_support.qcheck_case
    "fold(shards) = monolithic bound-1 model on random designs" ~count:40
    QCheck.(triple (int_range 0 11) (int_range 1 12) (int_range 1 8))
    (fun (seed, bound, shards) ->
       let trace =
         Test_support.simulate ~periods:9 ~seed (Test_support.small_design seed)
       in
       let oracle = oracle_of trace in
       let got = (S.learn ~bound ~shards trace).model in
       match (oracle, got) with
       | None, None -> true
       | Some e, Some g -> Df.equal e g
       | _ -> false)

(* The counterexample that forced the companion design: at (seed 3,
   bound 6, K = 5) the shards' bounded LUBs lose the weakened Fwd
   evidence for one task pair (each shard's minimality pruning discards
   its carrier), so a fold of the bounded hypotheses diverges from the
   monolithic model while the companion fold does not. *)
let test_bounded_fold_is_partition_dependent () =
  let trace =
    Test_support.simulate ~periods:9 ~seed:3 (Test_support.small_design 3)
  in
  let out = S.learn ~bound:6 ~shards:5 trace in
  check_equal_opt "companion fold matches oracle" (oracle_of trace) out.model;
  let bounded =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (r : S.result) -> Array.of_list r.hypotheses)
            out.shards))
  in
  let naive_bounded = Df.lub_many bounded in
  match out.model with
  | None -> Alcotest.fail "regression trace unexpectedly inconsistent"
  | Some model ->
    Alcotest.(check bool)
      "bounded-hypothesis fold loses evidence on this partition" false
      (Df.equal naive_bounded model)

(* --- the violation-exchange law -------------------------------------- *)

(* A trace where tasks 3 and 4 skip the first period: the violation (a
   ran, b did not) is only observed by the shard holding period 0,
   while the definite Fwd evidence arrives in period 1. A naive fold
   that joins the companion summaries WITHOUT the union-weakening pass
   keeps the definite value and diverges from the monolithic run —
   proving the exchange pass is load-bearing. *)
let exchange_trace () =
  Rt_trace.Trace_io.of_string_exn
    "tasks t1 t2 t3 t4\n\
     period 0\n\
     100 start t1\n\
     200 end t1\n\
     210 rise 0x10\n\
     250 fall 0x10\n\
     260 start t2\n\
     300 end t2\n\
     period 1\n\
     100 start t1\n\
     200 end t1\n\
     210 rise 0x10\n\
     250 fall 0x10\n\
     260 start t4\n\
     300 end t4\n\
     310 start t2\n\
     340 end t2\n\
     350 start t3\n\
     380 end t3\n"

let test_exchange_law () =
  let trace = exchange_trace () in
  let oracle = oracle_of trace in
  let out = S.learn ~bound:4 ~shards:2 trace in
  check_equal_opt "exchange fixture, K=2" oracle out.model;
  (* The naive fold — plain join of companion summaries, no exchange
     pass — must differ here, or this fixture exercises nothing. *)
  let naive =
    Df.lub_many
      (Array.map (fun (r : S.result) -> Option.get r.summary) out.shards)
  in
  (match oracle with
   | Some e ->
     Alcotest.(check bool) "naive fold diverges (fixture is load-bearing)"
       false (Df.equal e naive)
   | None -> Alcotest.fail "exchange fixture unexpectedly inconsistent")

(* --- inconsistency localises ----------------------------------------- *)

let test_inconsistent () =
  (* A message no task can explain (no task executes around it) empties
     the hypothesis set in period 1 only. *)
  let trace =
    Rt_trace.Trace_io.of_string_exn
      "tasks t1 t2\n\
       period 0\n\
       100 start t1\n\
       200 end t1\n\
       210 rise 0x10\n\
       250 fall 0x10\n\
       260 start t2\n\
       300 end t2\n\
       period 1\n\
       500 rise 0x11\n\
       550 fall 0x11\n"
  in
  let oracle = R.run ~bound:4 trace in
  Alcotest.(check (list depfun)) "oracle inconsistent" [] oracle.hypotheses;
  List.iter
    (fun shards ->
       let out = S.learn ~bound:4 ~shards trace in
       Alcotest.(check bool)
         (Printf.sprintf "fold inconsistent (K=%d)" shards)
         true (out.model = None))
    [ 1; 2; 4 ]

(* --- pool execution is invisible ------------------------------------- *)

let test_pool_identical () =
  let trace =
    Test_support.simulate ~periods:10 ~seed:9 (Test_support.small_design 9)
  in
  let serial = S.learn ~bound:6 ~shards:4 trace in
  let pool = Rt_util.Domain_pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
    (fun () ->
       let parallel = S.learn ~pool ~bound:6 ~shards:4 trace in
       check_equal_opt "pool run identical" serial.model parallel.model;
       Alcotest.(check int) "same shard count"
         (Array.length serial.shards)
         (Array.length parallel.shards))

(* --- streaming fold: a sharded session's round-robin pairs ----------- *)

let test_stream_round_robin () =
  let trace =
    Test_support.simulate ~periods:12 ~seed:4 (Test_support.small_design 4)
  in
  let text = Rt_trace.Trace_io.to_string trace in
  (* Bounds above 1 exercise the companion plumbing; the fold must be
     oracle-equal either way, despite the non-contiguous partition. *)
  List.iter
    (fun bound ->
       let st, _ =
         Rt_shard.Session.create ~shards:3 (Engine.Heuristic { bound })
           (Rt_trace.Stream_io.lines_of_string text)
       in
       let rec drain () =
         match Rt_shard.Session.next st with
         | Ok (Some _) -> drain ()
         | Ok None -> ()
         | Error e -> Alcotest.failf "line %d: %s" e.line e.message
       in
       drain ();
       Alcotest.(check int) "all periods fed"
         (Trace.period_count trace)
         (Rt_shard.Session.periods_fed st);
       Alcotest.(check int) "one part per shard" 3
         (Array.length (Rt_shard.Session.parts st));
       check_equal_opt
         (Printf.sprintf "round-robin stream fold (bound %d)" bound)
         (oracle_of trace) (S.fold_summaries (Rt_shard.Session.parts st)))
    [ 1; 4 ]

let test_fold_engines_round_robin () =
  let trace =
    Test_support.simulate ~periods:12 ~seed:4 (Test_support.small_design 4)
  in
  let ntasks = Trace.task_count trace in
  let k = 3 in
  let engines =
    Array.init k (fun _ -> Engine.create ~ntasks (Engine.Heuristic { bound = 1 }))
  in
  (* Round-robin distribution — an arbitrary non-contiguous partition,
     which the fold must not care about. *)
  List.iteri
    (fun i p -> Engine.feed engines.(i mod k) p)
    (Trace.periods trace);
  check_equal_opt "round-robin engine fold" (oracle_of trace)
    (S.fold_engines engines)

let test_fold_engines_refuses_exact () =
  let e = Engine.create ~ntasks:3 (Engine.Exact { limit = None }) in
  Alcotest.check_raises "exact core refused"
    (Invalid_argument "Shard.fold_engines: exact-core engine has no fold")
    (fun () -> ignore (S.fold_engines [| e |]))

(* --- observability ---------------------------------------------------- *)

let test_obs () =
  let trace =
    Test_support.simulate ~periods:8 ~seed:2 (Test_support.small_design 2)
  in
  let r = Rt_obs.Registry.create () in
  let out = S.learn ~obs:r ~bound:4 ~shards:3 trace in
  let json =
    Rt_obs.Json.to_string ~pretty:true (Rt_obs.Registry.to_json r)
  in
  let has needle = Astring.String.is_infix ~affix:needle json in
  Alcotest.(check bool) "shard.shards counter" true (has "\"shard.shards\": 3");
  Alcotest.(check bool) "shard.fanout span" true (has "shard.fanout");
  Alcotest.(check bool) "shard.fold span" true (has "shard.fold");
  Alcotest.(check bool) "shard.worker_us histogram" true
    (has "shard.worker_us");
  Alcotest.(check int) "messages total" (Trace.total_messages trace)
    out.messages

let () =
  Alcotest.run "shard"
    [
      ( "plan",
        [ Alcotest.test_case "fixed partitions" `Quick test_plan;
          qc_plan_partitions ] );
      ( "fold = monolithic bound-1 model",
        [
          Alcotest.test_case "pipeline design" `Quick test_oracle_pipeline;
          Alcotest.test_case "paper example" `Quick test_oracle_paper_example;
          qc_oracle_random;
          Alcotest.test_case "bounded fold is partition-dependent" `Quick
            test_bounded_fold_is_partition_dependent;
          Alcotest.test_case "violation-exchange law" `Quick
            test_exchange_law;
          Alcotest.test_case "inconsistency localises" `Quick
            test_inconsistent;
        ] );
      ( "execution",
        [
          Alcotest.test_case "pool run identical" `Quick test_pool_identical;
          Alcotest.test_case "round-robin stream units" `Quick
            test_stream_round_robin;
          Alcotest.test_case "round-robin engine fold" `Quick
            test_fold_engines_round_robin;
          Alcotest.test_case "exact core refused" `Quick
            test_fold_engines_refuses_exact;
          Alcotest.test_case "spans and counters" `Quick test_obs;
        ] );
    ]
