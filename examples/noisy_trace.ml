(* Failure injection and the negative-example extension.

   The paper (§3.1): "If Dcur becomes empty at some point, it means
   1) either the instances contain errors (and thereby violate our
   assumption), or 2) the generalization language is not expressive
   enough to describe the desired property."

   This example corrupts a clean trace in ways a real logging device
   might (truncated frames, a frame attributed to a period where its
   sender never ran) and shows how each failure surfaces; then it
   demonstrates the negative-example version-space filter from the
   paper's conclusion.

   Run with: dune exec examples/noisy_trace.exe *)

module E = Rt_trace.Event
module P = Rt_trace.Period

let ts = Rt_task.Task_set.numbered 3

let ev time kind = { E.time; kind }

let clean_period idx =
  P.make_exn ~index:idx ~task_set:ts
    [ ev 10 (E.Task_start 0); ev 20 (E.Task_end 0); ev 21 (E.Msg_rise 1);
      ev 24 (E.Msg_fall 1); ev 25 (E.Task_start 1); ev 35 (E.Task_end 1);
      ev 36 (E.Msg_rise 2); ev 39 (E.Msg_fall 2); ev 40 (E.Task_start 2);
      ev 50 (E.Task_end 2) ]

let () =
  print_endline "=== 1. A malformed period is rejected at validation ===";
  (match
     P.make ~index:0 ~task_set:ts
       [ ev 10 (E.Task_start 0); ev 21 (E.Msg_rise 1) ]
   with
   | Ok _ -> assert false
   | Error e -> Format.printf "rejected: %s@.@." (P.string_of_error e));

  print_endline "=== 2. A physically impossible message empties the version space ===";
  (* A frame that rises before any task has finished has no admissible
     sender: the MoC assumption is violated. *)
  let impossible =
    P.make_exn ~index:0 ~task_set:ts
      [ ev 5 (E.Msg_rise 7); ev 8 (E.Msg_fall 7); ev 10 (E.Task_start 0);
        ev 20 (E.Task_end 0) ]
  in
  let trace =
    Rt_trace.Trace.of_periods ~task_set:ts [ clean_period 0; impossible ]
  in
  let o = Rt_learn.Exact.run trace in
  Format.printf "hypotheses left: %d (empty => trace errors or MoC mismatch)@.@."
    (List.length o.hypotheses);

  print_endline "=== 3. Clean trace learns normally ===";
  let trace = Rt_trace.Trace.of_periods ~task_set:ts [ clean_period 0; clean_period 1 ] in
  let o = Rt_learn.Exact.run trace in
  Format.printf "hypotheses: %d@." (List.length o.hypotheses);
  List.iter (fun d -> Format.printf "%s@.@." (Rt_lattice.Depfun.to_string d))
    o.hypotheses;

  print_endline "=== 4. Negative examples prune the version space ===";
  (* Suppose a safety spec says: t3 must never run without t2 having run
     (we witnessed a faulty unit doing exactly that). Periods exhibiting
     the forbidden behaviour become negative instances. *)
  let forbidden =
    P.make_exn ~index:99 ~task_set:ts
      [ ev 10 (E.Task_start 0); ev 20 (E.Task_end 0); ev 21 (E.Msg_rise 1);
        ev 24 (E.Msg_fall 1); ev 30 (E.Task_start 2); ev 40 (E.Task_end 2) ]
  in
  let r = Rt_learn.Version_space.learn ~negatives:[ forbidden ] trace in
  Format.printf "accepted %d, rejected %d hypotheses@."
    (List.length r.accepted) (List.length r.rejected);
  List.iter (fun d ->
      Format.printf "rejected (would allow the forbidden behaviour):@.%s@.@."
        (Rt_lattice.Depfun.to_string d))
    r.rejected;
  List.iter (fun d ->
      Format.printf "accepted:@.%s@.@." (Rt_lattice.Depfun.to_string d))
    r.accepted
;

  print_endline "\n=== 5. Accuracy under increasing corruption (GM case study) ===";
  (* The full resilient pipeline on the paper's 27-period controller
     trace: inject every corruption kind at a given rate, re-ingest in
     recover mode (syntactic repair + semantic excision), learn at bound
     16, and score the LUB model against design ground truth. *)
  let module Gm = Rt_case.Gm_model in
  let module C = Rt_trace.Corrupt in
  let module Io = Rt_trace.Trace_io in
  let module Q = Rt_trace.Quarantine in
  let clean = Gm.trace () in
  let truth = Option.get (Rt_task.Design.ground_truth (Gm.design ())) in
  Format.printf
    "rate   kept  rep  drop  confidence  hyps  cell-acc  dep-prec  dep-rec@.";
  List.iter
    (fun rate ->
       let text = C.to_string (C.apply { C.default with rate; seed = 7 } clean) in
       match Io.of_string ~mode:`Recover ~eps:60 text with
       | Error e ->
         Format.printf "%.2f   unreadable: line %d: %s@." rate e.line e.message
       | Ok (t, q) ->
         let o = Rt_learn.Heuristic.run ~bound:16 t in
         (match o.hypotheses with
          | [] -> Format.printf "%.2f   inconsistent after recovery@." rate
          | hs ->
            let m =
              Rt_mining.Order_miner.score
                ~predicted:(Rt_lattice.Depfun.lub hs) ~truth
            in
            Format.printf
              "%.2f   %3d  %3d  %3d       %5.2f    %2d      %.2f      %.2f     %.2f@."
              rate q.Q.kept (List.length q.repaired) (List.length q.dropped)
              (Q.confidence q) (List.length hs) m.cell_accuracy
              m.dependency_precision m.dependency_recall))
    [ 0.0; 0.02; 0.05; 0.10; 0.20 ]
