(* Locks in the paper's §3.3 worked example end to end: the intermediate
   hypothesis set after the first period (d21, d22, d23), the final set
   after all three periods (d81..d85), the least upper bound dLUB, and
   the bound-1 heuristic agreement (the Lemma). All matrices are copied
   verbatim from the paper. *)

open Test_support

let d21 = df [ [ p; f; p; f ]; [ b; p; p; p ]; [ p; p; p; p ]; [ b; p; p; p ] ]
let d22 = df [ [ p; f; p; p ]; [ b; p; p; f ]; [ p; p; p; p ]; [ p; b; p; p ] ]
let d23 = df [ [ p; p; p; f ]; [ p; p; p; f ]; [ p; p; p; p ]; [ b; b; p; p ] ]

let d81 = df [ [ p; fq; fq; f ]; [ b; p; p; p ]; [ b; p; p; f ]; [ b; p; bq; p ] ]
let d82 = df [ [ p; p; fq; f ]; [ p; p; p; f ]; [ b; p; p; f ]; [ b; bq; bq; p ] ]
let d83 = df [ [ p; fq; p; f ]; [ b; p; p; f ]; [ p; p; p; f ]; [ b; bq; bq; p ] ]
let d84 = df [ [ p; fq; fq; f ]; [ b; p; p; f ]; [ b; p; p; p ]; [ b; bq; p; p ] ]
let d85 = df [ [ p; fq; fq; p ]; [ b; p; p; f ]; [ b; p; p; f ]; [ p; bq; bq; p ] ]

let dlub = df [ [ p; fq; fq; f ]; [ b; p; p; f ]; [ b; p; p; f ]; [ b; bq; bq; p ] ]

let same_set expected actual =
  let norm = List.sort Df.compare in
  let pp_all l = String.concat "\n---\n" (List.map Df.to_string l) in
  if norm expected <> [] && List.length expected = List.length actual
     && List.for_all2 Df.equal (norm expected) (norm actual)
  then ()
  else
    Alcotest.failf "hypothesis sets differ.\nexpected:\n%s\n\nactual:\n%s"
      (pp_all (norm expected)) (pp_all (norm actual))

let run_exact_with_snapshots () =
  let trace = fig2_trace () in
  let snapshots = Hashtbl.create 4 in
  let outcome =
    Rt_learn.Exact.run trace ~on_period:(fun idx hs ->
        Hashtbl.replace snapshots idx
          (List.map (fun h -> Df.copy (Rt_learn.Hypothesis.depfun h)) hs))
  in
  (outcome, snapshots)

let test_after_period_1 () =
  let _, snapshots = run_exact_with_snapshots () in
  same_set [ d21; d22; d23 ] (Hashtbl.find snapshots 0)

let test_final_set_is_d81_to_d85 () =
  let outcome, _ = run_exact_with_snapshots () in
  same_set [ d81; d82; d83; d84; d85 ] outcome.hypotheses

let test_dlub () =
  let outcome, _ = run_exact_with_snapshots () in
  Alcotest.(check depfun) "dLUB" dlub (Df.lub outcome.hypotheses)

let test_dlub_has_paper_highlight () =
  (* "One interesting result is: t1 always determines t4 (→)" — an
     unconditional dependency not visible in the design graph. *)
  Alcotest.(check depval) "d(t1,t4) = fwd" f (Df.get dlub 0 3);
  Alcotest.(check depval) "d(t4,t1) = bwd" b (Df.get dlub 3 0)

let test_exact_stats () =
  let outcome, _ = run_exact_with_snapshots () in
  Alcotest.(check int) "3 periods" 3 outcome.stats.periods_processed;
  Alcotest.(check bool) "sets grew" true (outcome.stats.max_set_size >= 5);
  Alcotest.(check bool) "not converged" true
    (Rt_learn.Exact.converged outcome = None)

let test_every_final_hypothesis_matches_trace () =
  (* Theorem 2 instantiated on the worked example. *)
  let trace = fig2_trace () in
  let outcome, _ = run_exact_with_snapshots () in
  List.iter (fun d ->
      Alcotest.(check bool) "matches" true (Rt_learn.Matching.matches_trace d trace))
    outcome.hypotheses

let test_final_set_is_pairwise_incomparable () =
  let outcome, _ = run_exact_with_snapshots () in
  List.iteri (fun i di ->
      List.iteri (fun j dj ->
          if i <> j then
            Alcotest.(check bool) "incomparable" false (Df.leq di dj))
        outcome.hypotheses)
    outcome.hypotheses

let test_heuristic_bound1_equals_dlub () =
  let trace = fig2_trace () in
  let o = Rt_learn.Heuristic.run ~bound:1 trace in
  match o.hypotheses with
  | [ d ] -> Alcotest.(check depfun) "lemma: bound-1 = dLUB" dlub d
  | l -> Alcotest.failf "expected 1 hypothesis, got %d" (List.length l)

let test_heuristic_any_bound_lub_is_dlub () =
  (* §3.4: the exact result "equaled the least upper bound of the
     dependency functions we obtained with heuristics (using any
     arbitrary bound)". On this example the equality holds for small
     bounds (heavy merging folds everything into the LUB) and for bounds
     large enough that no merge occurs (the exact set survives). *)
  let trace = fig2_trace () in
  List.iter (fun bound ->
      let o = Rt_learn.Heuristic.run ~bound trace in
      match o.hypotheses with
      | [] -> Alcotest.failf "bound %d: empty result" bound
      | l ->
        Alcotest.(check depfun)
          (Printf.sprintf "lub at bound %d" bound)
          dlub (Df.lub l))
    [ 1; 2; 3; 4; 5; 8; 10; 12; 20; 24; 32; 64 ]

let test_heuristic_twilight_bounds_stay_sound () =
  (* At intermediate bounds (14-18 on this example) partially merged
     hypotheses are pruned by the minimality rule in favour of surviving
     specific ones, so the reported set can lose information: the §3.4
     equality is an empirical observation, not a theorem. What must
     always hold is soundness and the conservative direction. *)
  let trace = fig2_trace () in
  List.iter (fun bound ->
      match (Rt_learn.Heuristic.run ~bound trace).hypotheses with
      | [] -> Alcotest.failf "bound %d: empty result" bound
      | l ->
        let lub = Df.lub l in
        Alcotest.(check bool) "below dLUB" true (Df.leq lub dlub);
        List.iter (fun d ->
            Alcotest.(check bool) "matches" true
              (Rt_learn.Matching.matches_trace d trace))
          l)
    [ 14; 16; 18 ]

let test_heuristic_large_bound_equals_exact () =
  (* With a bound that never binds, the heuristic degenerates to the
     exact algorithm. *)
  let trace = fig2_trace () in
  let o = Rt_learn.Heuristic.run ~bound:64 trace in
  Alcotest.(check int) "no merges" 0 o.stats.merges;
  same_set [ d81; d82; d83; d84; d85 ] o.hypotheses

let test_heuristic_sound_all_bounds () =
  let trace = fig2_trace () in
  List.iter (fun bound ->
      let o = Rt_learn.Heuristic.run ~bound trace in
      List.iter (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "bound %d sound" bound)
            true
            (Rt_learn.Matching.matches_trace d trace))
        o.hypotheses)
    [ 1; 2; 3; 5 ]

let test_library_fixtures_agree () =
  (* The reusable fixtures in Rt_case.Paper_example must carry exactly
     the matrices this suite transcribes from the paper. *)
  same_set [ d21; d22; d23 ] Rt_case.Paper_example.expected_after_period_1;
  same_set [ d81; d82; d83; d84; d85 ] Rt_case.Paper_example.expected_final;
  Alcotest.(check depfun) "lub fixture" dlub Rt_case.Paper_example.expected_lub;
  Alcotest.(check string) "trace fixture" fig2_trace_text
    Rt_case.Paper_example.trace_text

(* The exact core driven through the streaming engine, period by
   period, as a batch learn does. *)
let test_learner_facade () =
  let trace = fig2_trace () in
  let eng =
    Rt_engine.Engine.create ~ntasks:(Rt_trace.Trace.task_count trace)
      (Rt_engine.Engine.Exact { limit = None })
  in
  List.iter (Rt_engine.Engine.feed eng) (Rt_trace.Trace.periods trace);
  let r = Rt_engine.Engine.finalize eng in
  Alcotest.(check bool) "consistent" true r.consistent;
  Alcotest.(check bool) "not converged" false r.converged;
  Alcotest.(check int) "5 hypotheses" 5 (List.length r.hypotheses);
  (match r.lub with
   | Some l -> Alcotest.(check depfun) "engine lub" dlub l
   | None -> Alcotest.fail "lub expected");
  Alcotest.(check bool) "verify (thm 2)" true
    (List.for_all (fun d -> Rt_learn.Matching.matches_trace d trace)
       r.hypotheses)

let () =
  Alcotest.run "paper_example"
    [
      ( "section_3_3",
        [
          Alcotest.test_case "after period 1: {d21,d22,d23}" `Quick
            test_after_period_1;
          Alcotest.test_case "final set: {d81..d85}" `Quick
            test_final_set_is_d81_to_d85;
          Alcotest.test_case "dLUB matrix" `Quick test_dlub;
          Alcotest.test_case "t1 -> t4 discovered" `Quick
            test_dlub_has_paper_highlight;
          Alcotest.test_case "stats" `Quick test_exact_stats;
          Alcotest.test_case "theorem 2 on example" `Quick
            test_every_final_hypothesis_matches_trace;
          Alcotest.test_case "answers incomparable" `Quick
            test_final_set_is_pairwise_incomparable;
        ] );
      ( "heuristic_agreement",
        [
          Alcotest.test_case "bound 1 = dLUB (lemma)" `Quick
            test_heuristic_bound1_equals_dlub;
          Alcotest.test_case "any bound: lub = dLUB" `Quick
            test_heuristic_any_bound_lub_is_dlub;
          Alcotest.test_case "twilight bounds stay sound" `Quick
            test_heuristic_twilight_bounds_stay_sound;
          Alcotest.test_case "slack bound = exact" `Quick
            test_heuristic_large_bound_equals_exact;
          Alcotest.test_case "soundness across bounds" `Quick
            test_heuristic_sound_all_bounds;
          Alcotest.test_case "library fixtures agree" `Quick
            test_library_fixtures_agree;
          Alcotest.test_case "facade" `Quick test_learner_facade;
        ] );
    ]
