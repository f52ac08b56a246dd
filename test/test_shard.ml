(* The sharding contract (DESIGN.md §14): for any trace, any bound and
   any shard count, the folded shard model is byte-equal to the
   monolithic bound-1 model — with the seed's Reference implementation
   as the oracle — and a trace is reported inconsistent by the fold iff
   the monolithic run finds it so. Every sharded learn here goes the
   program's one way: a sharded Session over the trace's text, dealing
   periods round-robin to its pairs, a round at a time (on a domain
   pool where given). The bounded LUB itself is NOT
   partition-independent (minimality pruning under assumption branching
   can discard evidence carriers per shard — the deviation
   test_theorems.ml documents), which is why the fold goes through the
   bound-1 companions; a regression here pins the counterexample that
   proves it. Also pins domination of every shard's bounded LUB by the
   folded model, and the violation-exchange law the fold relies on (a
   naive join without the final weakening pass must NOT equal the
   monolithic model on a crafted fixture, or the fold is not being
   tested at all). *)

module Df = Rt_lattice.Depfun
module H = Rt_learn.Heuristic
module R = Rt_learn.Reference
module S = Rt_shard.Shard
module Engine = Rt_engine.Engine
module Trace = Rt_trace.Trace

module Session = Rt_shard.Session

let depfun = Test_support.depfun

(* A sharded session over [trace]'s text, drained to end of input. *)
let learn ?pool ?obs ~bound ~shards trace =
  let st, _ =
    Session.create ?pool ?obs ~shards (Engine.Heuristic { bound })
      (Rt_trace.Stream_io.lines_of_string (Rt_trace.Trace_io.to_string trace))
  in
  let rec drain () =
    match Session.next st with
    | Ok (Some _) -> drain ()
    | Ok None -> st
    | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  in
  drain ()

let pool2 = lazy (Rt_util.Domain_pool.create ~jobs:2)

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
let check_domination what st =
  match Session.fold st with
  | None -> ()
  | Some model ->
    Array.iteri
      (fun i (r : Session.shard) ->
         match r.hypotheses with
         | [] -> ()
         | hs ->
           Alcotest.(check bool)
             (Printf.sprintf "%s: shard %d bounded lub dominated" what i)
             true
             (Df.leq (Df.lub hs) model))
      (Session.shards st)

let check_trace ?(bounds = [ 1; 2; 8 ]) trace =
  let oracle = oracle_of trace in
  List.iter
    (fun bound ->
       List.iter
         (fun shards ->
            let what = Printf.sprintf "bound %d, %d shards" bound shards in
            let st = learn ~bound ~shards trace in
            check_equal_opt what oracle (Session.fold st);
            check_domination what st;
            Alcotest.(check int)
              (Printf.sprintf "periods total (K=%d)" shards)
              (Trace.period_count trace) (Session.periods_fed st))
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
       Option.equal Df.equal (oracle_of trace)
         (Session.fold (learn ~bound ~shards trace)))

let qc_oracle_pooled =
  Test_support.qcheck_case
    "pooled fold(shards) = monolithic bound-1 model on random designs"
    ~count:40
    QCheck.(triple (int_range 0 11) (int_range 1 12) (int_range 1 8))
    (fun (seed, bound, shards) ->
       let trace =
         Test_support.simulate ~periods:9 ~seed (Test_support.small_design seed)
       in
       Option.equal Df.equal (oracle_of trace)
         (Session.fold
            (learn ~pool:(Lazy.force pool2) ~bound ~shards trace)))

(* The counterexample that forced the companion design: at (seed 3,
   bound 6, K = 5 contiguous ranges) the shards' bounded LUBs lose the
   weakened Fwd evidence for one task pair (each shard's minimality
   pruning discards its carrier), so a fold of the bounded hypotheses
   diverges from the monolithic model while the companion fold does
   not. *)
let test_bounded_fold_is_partition_dependent () =
  let trace =
    Test_support.simulate ~periods:9 ~seed:3 (Test_support.small_design 3)
  in
  let pairs =
    Array.init 5 (fun _ ->
        Session.Pair.create ~ntasks:(Trace.task_count trace) ~companion:true
          (Engine.Heuristic { bound = 6 }))
  in
  (* Nine periods in contiguous ranges of 2, 2, 2, 2 and 1. *)
  List.iteri (fun i p -> Session.Pair.feed pairs.(i / 2) p) (Trace.periods trace);
  let model =
    S.fold_summaries
      (Array.map (fun p -> Option.get (Session.Pair.part p)) pairs)
  in
  check_equal_opt "companion fold matches oracle" (oracle_of trace) model;
  let bounded =
    Array.concat
      (Array.to_list
         (Array.map
            (fun p -> Array.of_list (Engine.current (Session.Pair.main p)))
            pairs))
  in
  let naive_bounded = Df.lub_many bounded in
  match model with
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
  let st = learn ~bound:4 ~shards:2 trace in
  check_equal_opt "exchange fixture, K=2" oracle (Session.fold st);
  (* The naive fold — plain join of companion summaries, no exchange
     pass — must differ here, or this fixture exercises nothing. *)
  let naive =
    Df.lub_many
      (Array.map (fun (summary, _) -> Option.get summary) (Session.parts st))
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
       Alcotest.(check bool)
         (Printf.sprintf "fold inconsistent (K=%d)" shards)
         true (Session.fold (learn ~bound:4 ~shards trace) = None))
    [ 1; 2; 4 ]

(* --- pool execution is invisible ------------------------------------- *)

let test_pool_identical () =
  let trace =
    Test_support.simulate ~periods:10 ~seed:9 (Test_support.small_design 9)
  in
  let serial = learn ~bound:6 ~shards:4 trace in
  let parallel = learn ~pool:(Lazy.force pool2) ~bound:6 ~shards:4 trace in
  check_equal_opt "pool run identical" (Session.fold serial)
    (Session.fold parallel);
  let hypotheses st =
    Array.map (fun (r : Session.shard) -> r.hypotheses) (Session.shards st)
  in
  Alcotest.(check (array (list depfun))) "same per-shard answer sets"
    (hypotheses serial) (hypotheses parallel)

(* --- streaming fold: a sharded session's round-robin pairs ----------- *)

let test_stream_round_robin () =
  let trace =
    Test_support.simulate ~periods:12 ~seed:4 (Test_support.small_design 4)
  in
  (* Bounds above 1 exercise the companion plumbing; the fold must be
     oracle-equal either way, despite the non-contiguous partition. *)
  List.iter
    (fun bound ->
       let st = learn ~bound ~shards:3 trace in
       Alcotest.(check int) "all periods fed"
         (Trace.period_count trace)
         (Session.periods_fed st);
       Alcotest.(check int) "one part per shard" 3
         (Array.length (Session.parts st));
       check_equal_opt
         (Printf.sprintf "round-robin stream fold (bound %d)" bound)
         (oracle_of trace) (S.fold_summaries (Session.parts st)))
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
  let st = learn ~pool:(Lazy.force pool2) ~obs:r ~bound:4 ~shards:3 trace in
  ignore (Session.finalize st);
  ignore (Session.fold st);
  let json =
    Rt_obs.Json.to_string ~pretty:true (Rt_obs.Registry.to_json r)
  in
  let has needle = Astring.String.is_infix ~affix:needle json in
  Alcotest.(check bool) "shard.shards counter" true (has "\"shard.shards\": 3");
  Alcotest.(check bool) "shard.fold span" true (has "shard.fold");
  Alcotest.(check int) "shard.worker_us: one sample per shard" 3
    (Rt_obs.Histogram.count (Rt_obs.Registry.histogram r "shard.worker_us"));
  Alcotest.(check int) "messages total" (Trace.total_messages trace)
    (Array.fold_left (fun a (s : Session.shard) -> a + s.messages) 0
       (Session.shards st))

(* A trace holding only its tasks line feeds no period: its fold is the
   LUB of no periods, the bottom model over the two tasks, sharded or
   not. *)
let test_empty_fold () =
  List.iter
    (fun (bound, shards) ->
       let st, _ =
         Session.create ?shards (Engine.Heuristic { bound })
           (Rt_trace.Stream_io.lines_of_string "tasks a b\n")
       in
       (match Session.next st with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.fail "a period from a tasks line"
        | Error e -> Alcotest.failf "line %d: %s" e.line e.message);
       check_equal_opt
         (Printf.sprintf "bound %d, shards %s" bound
            (Option.fold ~none:"none" ~some:string_of_int shards))
         (Some (Df.create 2)) (Session.fold st))
    [ (1, None); (1, Some 1); (1, Some 4); (8, Some 2) ]

(* --- the bound search: one streamed session per bound ---------------- *)

let gm = Rt_case.Gm_model.trace ()

(* [Auto.search] over the lines of [text], counting the passes it
   opens. *)
let auto ?max_bound ?obs text =
  let opened = ref 0 in
  let open_ () =
    incr opened;
    Rt_trace.Stream_io.lines_of_string text
  in
  let o = Rt_shard.Auto.search ?max_bound ?obs open_ in
  (o, !opened)

let test_auto_trajectory () =
  let registries = ref [] in
  let obs () =
    let r = Rt_obs.Registry.create () in
    registries := r :: !registries;
    r
  in
  let o, opened = auto ~obs (Rt_trace.Trace_io.to_string gm) in
  let o = Result.get_ok o in
  let steps = o.trajectory in
  Alcotest.(check int) "one pass, one source, one registry per bound"
    (List.length steps) opened;
  Alcotest.(check int) "registries" opened (List.length !registries);
  List.iteri
    (fun i (s : Rt_shard.Auto.step) ->
       Alcotest.(check int) "doubling bounds" (1 lsl i) s.bound;
       Alcotest.(check bool) "elapsed is nonnegative" true (s.elapsed_s >= 0.);
       Alcotest.(check bool) "hypotheses within bound" true
         (s.hypotheses >= 1 && s.hypotheses <= s.bound))
    steps;
  let last = List.nth steps (List.length steps - 1) in
  Alcotest.(check int) "selected bound is the last pass's" last.bound o.bound;
  Alcotest.(check bool) "search stopped because the lub settled" false
    last.lub_changed;
  (* The selected pass is the plain learn at its bound. *)
  let snap = Option.get o.snapshot in
  Alcotest.(check (list depfun)) "answers = Heuristic.run at the bound"
    (H.run ~bound:o.bound gm).hypotheses snap.Engine.hypotheses;
  (* Its registry is the newest and describes that pass alone. *)
  let r = Option.get o.obs in
  Alcotest.(check bool) "newest registry" true (r == List.hd !registries);
  let periods = Rt_trace.Trace.period_count gm in
  Alcotest.(check int) "engine.feed_ns samples" periods
    (Rt_obs.Histogram.count (Rt_obs.Registry.histogram r "engine.feed_ns"));
  Alcotest.(check int) "engine.periods" periods
    (Rt_obs.Registry.counter_value (Rt_obs.Registry.counter r "engine.periods"))

let test_auto_cap_and_errors () =
  let o, opened = auto ~max_bound:1 (Rt_trace.Trace_io.to_string gm) in
  let o = Result.get_ok o in
  Alcotest.(check int) "the cap ends the search" 1 opened;
  Alcotest.(check int) "at the cap" 1 o.bound;
  Alcotest.(check bool) "a first consistent pass has moved the lub" true
    (List.hd o.trajectory).lub_changed;
  (match auto "# rtgen-trace v1\ntasks a b\nperiod 0\nbogus\n" with
   | Error e, 1 -> Alcotest.(check int) "the bad line" 4 e.line
   | _ -> Alcotest.fail "a parse error ends the search at its pass")

let () =
  Alcotest.run "shard"
    [
      ( "fold = monolithic bound-1 model",
        [
          Alcotest.test_case "pipeline design" `Quick test_oracle_pipeline;
          Alcotest.test_case "paper example" `Quick test_oracle_paper_example;
          qc_oracle_random;
          qc_oracle_pooled;
          Alcotest.test_case "bounded fold is partition-dependent" `Quick
            test_bounded_fold_is_partition_dependent;
          Alcotest.test_case "violation-exchange law" `Quick
            test_exchange_law;
          Alcotest.test_case "inconsistency localises" `Quick
            test_inconsistent;
          Alcotest.test_case "empty session folds to bottom" `Quick
            test_empty_fold;
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
      ( "auto bound search",
        [
          Alcotest.test_case "trajectory" `Quick test_auto_trajectory;
          Alcotest.test_case "cap and errors" `Quick test_auto_cap_and_errors;
        ] );
    ]
