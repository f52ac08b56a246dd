(* Quickstart: generate a black-box system, log its bus traffic, learn a
   dependency model, and ask it questions.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A system design we will treat as a black box: a random layered
        task graph deployed on 2 ECUs and one CAN bus. *)
  let design = Rt_task.Generator.generate Rt_task.Generator.default ~seed:42 in
  Format.printf "system under observation: %a@.@." Rt_task.Design.pp design;

  (* 2. Execute it for 20 periods and capture the bus log — the only
        thing the learner is allowed to see. *)
  let trace =
    Rt_sim.Simulator.run design
      { Rt_sim.Simulator.default_config with periods = 20; seed = 7 }
  in
  Format.printf "captured %a@.@." Rt_trace.Trace.pp_summary trace;

  (* 3. Learn a dependency model with the bounded heuristic. *)
  let outcome = Rt_learn.Heuristic.run ~bound:8 trace in
  let names = Rt_task.Task_set.names (Rt_task.Design.task_set design) in
  Format.printf "heuristic(bound=8): %d hypothesis(es)@.@."
    (List.length outcome.hypotheses);

  (* 4. Query the learned model: the least upper bound of the answers. *)
  match outcome.hypotheses with
  | [] -> print_endline "trace was inconsistent with the assumed MoC"
  | hs ->
    let model = Rt_lattice.Depfun.lub hs in
    Format.printf "least upper bound:@.%a@.@." (Rt_lattice.Depfun.pp ~names)
      model;
    let dot = Rt_analysis.Dep_graph.to_dot ~names model in
    print_endline "dependency graph (graphviz):";
    print_endline dot;
    List.iter (fun info ->
        Format.printf "%a@." (Rt_analysis.Classify.pp_info ~names) info)
      (Rt_analysis.Classify.classify model);
    Format.printf "@.state space: %d of %d period outcomes remain possible (%.1fx reduction)@."
      (Rt_analysis.Reachability.count_consistent model)
      (Rt_analysis.Reachability.total_states (Rt_lattice.Depfun.size model))
      (Rt_analysis.Reachability.reduction model)
