(* End-to-end reproduction of the paper's §3.4 case-study findings on the
   synthetic GM-like controller (see DESIGN.md for the substitution
   rationale). These tests run the bound-1 learner on the 27-period
   reference trace, like the paper's dependency-graph extraction. *)

module Gm = Rt_case.Gm_model
module Dv = Rt_lattice.Depval
module Df = Rt_lattice.Depfun
module D = Rt_task.Design

let lub =
  lazy
    (let trace = Gm.trace () in
     match (Rt_learn.Heuristic.run ~bound:1 trace).hypotheses with
     | [ d ] -> d
     | _ -> Alcotest.fail "reference trace inconsistent")

let t = Gm.task

let test_scale_matches_paper () =
  let trace = Gm.trace () in
  Alcotest.(check int) "18 tasks" 18 (Rt_trace.Trace.task_count trace);
  Alcotest.(check int) "27 periods" 27 (Rt_trace.Trace.period_count trace);
  let msgs = Rt_trace.Trace.total_messages trace in
  (* The paper logs 330 messages; the synthetic controller emits 12 per
     period = 324. Same scale. *)
  Alcotest.(check bool) "around 330 messages" true (msgs >= 300 && msgs <= 360)

let test_design_valid_and_schedulable () =
  let d = Gm.design () in
  Alcotest.(check int) "18 tasks" 18 (D.size d);
  (* Simulation across many seeds never overruns the period. *)
  for seed = 1 to 10 do
    ignore (Rt_sim.Simulator.run d { Gm.reference_config with periods = 5; seed })
  done

let test_disjunction_nodes () =
  let lub = Lazy.force lub in
  let disj = Rt_analysis.Classify.disjunction_nodes lub in
  Alcotest.(check bool) "A is disjunction" true (List.mem (t "A") disj);
  Alcotest.(check bool) "B is disjunction" true (List.mem (t "B") disj)

let test_conjunction_nodes () =
  let lub = Lazy.force lub in
  let conj = Rt_analysis.Classify.conjunction_nodes lub in
  List.iter (fun name ->
      Alcotest.(check bool) (name ^ " is conjunction") true
        (List.mem (t name) conj))
    [ "H"; "P"; "Q" ]

let test_a_determines_l () =
  (* "no matter which mode task A chooses, task L must execute" *)
  let lub = Lazy.force lub in
  Alcotest.(check bool) "d(A,L) = fwd" true
    (Dv.equal (Df.get lub (t "A") (t "L")) Dv.Fwd)

let test_b_determines_m () =
  let lub = Lazy.force lub in
  Alcotest.(check bool) "d(B,M) = fwd" true
    (Dv.equal (Df.get lub (t "B") (t "M")) Dv.Fwd)

let test_a_choice_is_conditional () =
  let lub = Lazy.force lub in
  Alcotest.(check bool) "d(A,C) = fwd?" true
    (Dv.equal (Df.get lub (t "A") (t "C")) Dv.Fwd_maybe);
  Alcotest.(check bool) "d(A,D) = fwd?" true
    (Dv.equal (Df.get lub (t "A") (t "D")) Dv.Fwd_maybe)

let test_implicit_q_o_dependency () =
  (* The paper's headline: a data dependency between Q and O that "comes
     from the interactions between the functional tasks and the
     infrastructure tasks" — not a design edge. *)
  let lub = Lazy.force lub in
  Alcotest.(check bool) "d(Q,O) = bwd" true
    (Dv.equal (Df.get lub (t "Q") (t "O")) Dv.Bwd);
  let d = Gm.design () in
  Alcotest.(check bool) "no design edge O->Q" true
    (not (List.exists (fun (e : D.edge) -> e.dst = t "Q")
            (D.outgoing d (t "O"))))

let test_state_space_reduction () =
  let lub = Lazy.force lub in
  let reduction = Rt_analysis.Reachability.reduction lub in
  Alcotest.(check bool) "reduction over 100x" true (reduction > 100.0)

let test_latency_improvement_on_critical_path () =
  (* "one path that was examined in this case study was the critical path
     including task Q ... excluding the possible preemption from higher
     priority task O during the execution of task Q". *)
  let lub = Lazy.force lub in
  let d = Gm.design () in
  let path = Rt_analysis.Latency.critical_path d in
  Alcotest.(check bool) "critical path reaches Q" true
    (List.mem (t "Q") path);
  let pess, inf, gain = Rt_analysis.Latency.improvement d ~dep:lub ~path in
  Alcotest.(check bool) "informed strictly better" true (inf < pess);
  Alcotest.(check bool) "gain sensible" true (gain > 1.0 && gain < 100.0);
  (* The informed response time of Q specifically must have dropped by at
     least O's WCET. *)
  let rq_pess = Rt_analysis.Latency.response_time d (t "Q") in
  let rq_inf = Rt_analysis.Latency.response_time ~dep:lub d (t "Q") in
  Alcotest.(check bool) "O excluded from Q's interference" true
    (rq_pess - rq_inf >= d.tasks.(t "O").wcet)

let test_learner_sound_on_case_study () =
  (* Theorem 2 at case-study scale, for a couple of bounds. *)
  let trace = Gm.trace () in
  List.iter (fun bound ->
      let o = Rt_learn.Heuristic.run ~bound trace in
      Alcotest.(check bool) "non-empty" true (o.hypotheses <> []);
      List.iter (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "bound %d matches" bound)
            true
            (Rt_learn.Matching.matches_trace d trace))
        o.hypotheses)
    [ 1; 4 ]

let test_miner_vs_learner_on_case_study () =
  let trace = Gm.trace () in
  let truth = Option.get (D.ground_truth (Gm.design ())) in
  let lub = Lazy.force lub in
  let mined = Rt_mining.Order_miner.infer trace in
  let m_learner = Rt_mining.Order_miner.score ~predicted:lub ~truth in
  let m_mined = Rt_mining.Order_miner.score ~predicted:mined ~truth in
  (* The learner recovers every definite design dependency. *)
  Alcotest.(check (float 0.01)) "learner definite recall" 1.0
    m_learner.definite_recall;
  (* Both are reported; the bench prints the comparison table. *)
  Alcotest.(check bool) "miner metrics defined" true
    (m_mined.definite_recall >= 0.0 && m_mined.definite_precision >= 0.0)

let test_reference_trace_deterministic () =
  let t1 = Rt_trace.Trace_io.to_string (Gm.trace ()) in
  let t2 = Rt_trace.Trace_io.to_string (Gm.trace ()) in
  Alcotest.(check bool) "reproducible reference trace" true (t1 = t2)

let test_section_3_4_as_queries () =
  (* All §3.4 findings expressed in the property language in one shot —
     the form a verification engineer would actually write them in. *)
  let model = Lazy.force lub in
  let trace = Gm.trace () in
  let q =
    Rt_analysis.Query.parse_exn
      "d(A,L) = -> & d(B,M) = -> & d(Q,O) = <- & disjunction(A) & \
       disjunction(B) & conjunction(H) & conjunction(P) & conjunction(Q) & \
       exclusive(C,D) & exclusive(E,F) & together(A,L)"
  in
  match Rt_analysis.Query.holds ~model ~names:Gm.names ~trace q with
  | Ok b -> Alcotest.(check bool) "all paper properties hold" true b
  | Error m -> Alcotest.fail m

let test_modes_are_exclusive () =
  (* C vs D and E vs F are Choose_one alternatives: never co-executed. *)
  let trace = Gm.trace () in
  let excl = Rt_analysis.Modes.exclusive_pairs trace in
  let mem a b = List.mem (min a b, max a b) excl in
  Alcotest.(check bool) "C/D exclusive" true (mem (t "C") (t "D"));
  Alcotest.(check bool) "E/F exclusive" true (mem (t "E") (t "F"));
  Alcotest.(check bool) "L/M not exclusive" false (mem (t "L") (t "M"))

(* --- The ACC (adaptive cruise control) case study --- *)

module Acc = Rt_case.Acc_model

let acc_model =
  lazy
    (let trace = Acc.trace () in
     match (Rt_learn.Heuristic.run ~bound:2 trace).hypotheses with
     | [] -> Alcotest.fail "ACC trace inconsistent"
     | hs -> Df.lub hs)

let test_acc_shape () =
  let d = Acc.design () in
  Alcotest.(check int) "12 tasks" 12 (D.size d);
  Alcotest.(check int) "5 local edges" 5
    (Array.length d.edges - List.length (D.bus_edges d));
  Alcotest.(check bool) "schedulable" true (Rt_analysis.Latency.schedulable d);
  let trace = Acc.trace () in
  (* 6 bus frames per period: 2 sensor streams, 1 mode command, 3
     actuation commands. *)
  Alcotest.(check int) "messages" (6 * 40) (Rt_trace.Trace.total_messages trace)

let test_acc_properties () =
  let model = Lazy.force acc_model in
  let trace = Acc.trace () in
  let q =
    Rt_analysis.Query.parse_exn
      "disjunction(AccCtl) & exclusive(Follow, Cruise) & \
       d(AccCtl, Arbiter) = -> & d(Arbiter, Brake) = -> & \
       depends(Fusion, RadarProc) & depends(Fusion, CamProc) & \
       depends(Brake, Fusion)"
  in
  match Rt_analysis.Query.holds ~model ~names:Acc.names ~trace q with
  | Ok b -> Alcotest.(check bool) "ACC checklist" true b
  | Error m -> Alcotest.fail m

let test_acc_local_hop_invisible () =
  let model = Lazy.force acc_model in
  Alcotest.(check bool) "learner blind to local hop" false
    (Rt_lattice.Depval.is_definite
       (Df.get model (Acc.task "RadarAcq") (Acc.task "RadarProc")));
  let mined = Rt_mining.Order_miner.infer (Acc.trace ()) in
  Alcotest.(check bool) "baseline sees it" true
    (Rt_lattice.Depval.is_definite
       (Df.get mined (Acc.task "RadarAcq") (Acc.task "RadarProc")))

let test_acc_brake_deadline () =
  let d = Acc.design () in
  let model = Lazy.force acc_model in
  let path = Acc.brake_path () in
  let pess, inf, _ = Rt_analysis.Latency.improvement d ~dep:model ~path in
  Alcotest.(check bool) "informed tighter" true (inf < pess);
  Alcotest.(check bool) "deadline met" true (inf <= Acc.brake_deadline_us)

(* --- Anonymization --- *)

let test_anonymize_preserves_learning () =
  let trace = Acc.trace ~periods:12 () in
  let anon, mapping = Rt_trace.Anonymize.anonymize trace in
  Alcotest.(check int) "same periods" (Rt_trace.Trace.period_count trace)
    (Rt_trace.Trace.period_count anon);
  Alcotest.(check int) "same messages" (Rt_trace.Trace.total_messages trace)
    (Rt_trace.Trace.total_messages anon);
  Alcotest.(check (option string)) "mapping works" (Some "A")
    (Rt_trace.Anonymize.apply_names mapping "RadarAcq");
  let learn t =
    match (Rt_learn.Heuristic.run ~bound:1 t).hypotheses with
    | [ d ] -> d
    | _ -> Alcotest.fail "learning failed"
  in
  Alcotest.check Test_support.depfun "identical model" (learn trace) (learn anon)

let test_anonymize_hides_names () =
  let trace = Acc.trace ~periods:3 () in
  let anon, _ = Rt_trace.Anonymize.anonymize trace in
  let text = Rt_trace.Trace_io.to_string anon in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Array.iter (fun name ->
      Alcotest.(check bool) ("hides " ^ name) false (contains name text))
    Acc.names

(* --- Automatic bound selection --- *)

let auto_search ?initial trace =
  let text = Rt_trace.Trace_io.to_string trace in
  Rt_shard.Auto.search ?initial (fun () ->
      Rt_trace.Stream_io.(Input (string_input text)))

let test_auto_bound_gm () =
  let trace = Gm.trace ~periods:10 () in
  let o = Result.get_ok (auto_search trace) in
  Alcotest.(check bool) "bound is a power of two" true
    (List.mem o.bound [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]);
  let snap = Option.get o.snapshot in
  Alcotest.(check bool) "consistent" true snap.consistent;
  Alcotest.(check bool) "verified" true
    (List.for_all
       (fun d -> Rt_learn.Matching.matches_trace d trace)
       snap.hypotheses)

let test_auto_bound_validates () =
  Alcotest.check_raises "initial 0"
    (Invalid_argument "Auto.search: initial bound must be >= 1")
    (fun () -> ignore (auto_search ~initial:0 (Gm.trace ~periods:2 ())))

let () =
  Alcotest.run "case_study"
    [
      ( "gm_model",
        [
          Alcotest.test_case "scale matches paper" `Quick
            test_scale_matches_paper;
          Alcotest.test_case "valid and schedulable" `Quick
            test_design_valid_and_schedulable;
          Alcotest.test_case "reference trace deterministic" `Quick
            test_reference_trace_deterministic;
        ] );
      ( "section_3_4",
        [
          Alcotest.test_case "A,B disjunction" `Quick test_disjunction_nodes;
          Alcotest.test_case "H,P,Q conjunction" `Quick test_conjunction_nodes;
          Alcotest.test_case "d(A,L) = fwd" `Quick test_a_determines_l;
          Alcotest.test_case "d(B,M) = fwd" `Quick test_b_determines_m;
          Alcotest.test_case "A's choice conditional" `Quick
            test_a_choice_is_conditional;
          Alcotest.test_case "implicit Q-O dependency" `Quick
            test_implicit_q_o_dependency;
          Alcotest.test_case "state space reduction" `Quick
            test_state_space_reduction;
          Alcotest.test_case "latency improvement" `Quick
            test_latency_improvement_on_critical_path;
          Alcotest.test_case "learner sound at scale" `Quick
            test_learner_sound_on_case_study;
          Alcotest.test_case "baseline comparison" `Quick
            test_miner_vs_learner_on_case_study;
          Alcotest.test_case "mode exclusivity" `Quick test_modes_are_exclusive;
          Alcotest.test_case "properties as queries" `Quick
            test_section_3_4_as_queries;
        ] );
      ( "acc",
        [
          Alcotest.test_case "shape and schedulability" `Quick test_acc_shape;
          Alcotest.test_case "safety checklist" `Quick test_acc_properties;
          Alcotest.test_case "local hop visibility" `Quick
            test_acc_local_hop_invisible;
          Alcotest.test_case "brake deadline" `Quick test_acc_brake_deadline;
        ] );
      ( "tooling",
        [
          Alcotest.test_case "anonymize preserves learning" `Quick
            test_anonymize_preserves_learning;
          Alcotest.test_case "anonymize hides names" `Quick
            test_anonymize_hides_names;
          Alcotest.test_case "auto bound" `Quick test_auto_bound_gm;
          Alcotest.test_case "auto bound validation" `Quick
            test_auto_bound_validates;
        ] );
    ]
