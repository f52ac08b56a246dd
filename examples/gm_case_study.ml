(* The §3.4 case study on the synthetic GM-like controller: 18 tasks
   (S, A..Q), one CAN bus, 27 logged periods. Learns the dependency
   model, prints the Fig. 5-style graph, and re-derives every property
   the paper reports.

   Run with: dune exec examples/gm_case_study.exe *)

module Gm = Rt_case.Gm_model
module Df = Rt_lattice.Depfun
module Dv = Rt_lattice.Depval

let () =
  let design = Gm.design () in
  let names = Gm.names in
  let trace = Gm.trace () in
  Format.printf "reference log: %a@.@." Rt_trace.Trace.pp_summary trace;

  (* Learn with the bounded heuristic (the paper used the heuristics for
     this trace too; bound 1 yields the conservative single model). *)
  let outcome = Rt_learn.Heuristic.run ~bound:1 trace in
  Format.printf "learning: %d hypotheses@.@." (List.length outcome.hypotheses);
  let model = Df.lub outcome.hypotheses in

  print_endline "=== Fig. 5: learned dependency graph (graphviz) ===";
  print_string (Rt_analysis.Dep_graph.to_dot ~names model);

  print_endline "\n=== Properties the paper reports ===";
  let t = Gm.task in
  let show_value a b =
    Format.printf "d(%s,%s) = %s@." a b
      (Dv.to_string (Df.get model (t a) (t b)))
  in
  let disj = Rt_analysis.Classify.disjunction_nodes model in
  let conj = Rt_analysis.Classify.conjunction_nodes model in
  Format.printf "disjunction nodes: %s (paper: A and B are disjunction nodes)@."
    (String.concat " " (List.map (fun i -> names.(i)) disj));
  Format.printf "conjunction nodes: %s (paper: H, P and Q are conjunction nodes)@."
    (String.concat " " (List.map (fun i -> names.(i)) conj));
  show_value "A" "L";
  print_endline "  -> no matter which mode task A chooses, task L must execute";
  show_value "B" "M";
  print_endline "  -> no matter which mode task B chooses, task M must execute";
  show_value "Q" "O";
  print_endline
    "  -> the implicit Q-O data dependency induced by the OSEK/CAN\n\
    \     schedulers: not an edge of the design, discovered from the trace";

  print_endline "\n=== State-space reduction for model checking ===";
  let consistent = Rt_analysis.Reachability.count_consistent model in
  Format.printf
    "consistent period outcomes: %d of %d possible (%.0fx reduction)@."
    consistent
    (Rt_analysis.Reachability.total_states (Df.size model))
    (Rt_analysis.Reachability.reduction model);

  print_endline "\n=== Operation modes ===";
  List.iter (fun pair_list ->
      match pair_list with
      | [ _ ] -> ()
      | cls ->
        Format.printf "always execute together: {%s}@."
          (String.concat " " (List.map (fun i -> names.(i)) cls)))
    (Rt_analysis.Modes.co_execution_classes model);
  List.iter (fun (a, b) ->
      Format.printf "mutually exclusive (modes): %s vs %s@." names.(a) names.(b))
    (Rt_analysis.Modes.exclusive_pairs trace);

  print_endline "\n=== End-to-end latency on the critical path (incl. Q) ===";
  let path = Rt_analysis.Latency.critical_path design in
  let pess, inf, gain = Rt_analysis.Latency.improvement design ~dep:model ~path in
  Format.printf "path: %s@."
    (String.concat " -> " (List.map (fun i -> names.(i)) path));
  Format.printf "pessimistic (all tasks independent): %dus@." pess;
  Format.printf "dependency-informed:                 %dus (%.2fx tighter)@."
    inf gain;
  Format.printf "response time of Q alone: %dus -> %dus (O can no longer preempt)@."
    (Rt_analysis.Latency.response_time design (Gm.task "Q"))
    (Rt_analysis.Latency.response_time ~dep:model design (Gm.task "Q"));

  print_endline "\n=== Baseline: process-mining ordering inference ===";
  let truth = Option.get (Rt_task.Design.ground_truth design) in
  let mined = Rt_mining.Order_miner.infer trace in
  Format.printf "order miner vs design truth: %a@."
    Rt_mining.Order_miner.pp_metrics
    (Rt_mining.Order_miner.score ~predicted:mined ~truth);
  Format.printf "learner (bound 1) vs design truth: %a@."
    Rt_mining.Order_miner.pp_metrics
    (Rt_mining.Order_miner.score ~predicted:model ~truth)
