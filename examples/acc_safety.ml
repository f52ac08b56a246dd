(* Safety argument for an adaptive-cruise-control function, built from a
   black-box bus log: learn the dependency model, check the structural
   properties a safety engineer cares about, and bound the
   sensor-to-brake reaction time — the paper's "if the brake is pressed,
   then brake actuator must react within 300 msec" style of requirement.

   Also demonstrates trace anonymization (the operation the paper's
   authors applied to the GM data) and automatic bound selection.

   Run with: dune exec examples/acc_safety.exe *)

module Acc = Rt_case.Acc_model
module Q = Rt_analysis.Query
module L = Rt_analysis.Latency

let () =
  let design = Acc.design () in
  let names = Acc.names in
  let trace = Acc.trace () in
  Format.printf "ACC function under observation: %a@." Rt_trace.Trace.pp_summary trace;

  (* 1. Learn with an automatically selected bound: one streamed pass
        over the trace's text per bound tried. *)
  let auto trace =
    let text = Rt_trace.Trace_io.to_string trace in
    match
      Rt_shard.Auto.search (fun () -> Rt_trace.Stream_io.lines_of_string text)
    with
    | Ok { snapshot = Some { lub = Some model; converged; _ }; bound; _ } ->
      (model, bound, converged)
    | Ok _ | Error _ -> failwith "the ACC trace is consistent"
  in
  let model, bound, converged = auto trace in
  Format.printf "auto-selected bound: %d (converged: %b)@.@." bound converged;

  (* 2. The safety engineer's checklist, in the property language. *)
  let checklist =
    [ (* Fusion's two inputs always arrive (both sensor chains run every
         period), so it is a *definite* join, not the paper's conditional
         conjunction: the right property is that it depends on both. *)
      "fusion requires both sensor streams",
      "depends(Fusion, RadarProc) & depends(Fusion, CamProc)";
      "controller is the mode switch", "disjunction(AccCtl)";
      "modes are mutually exclusive", "exclusive(Follow, Cruise)";
      "arbiter always reacts to the controller", "d(AccCtl, Arbiter) = ->";
      "brake command follows arbitration", "d(Arbiter, Brake) = ->";
      "brake never fires without fusion", "depends(Brake, Fusion)" ]
  in
  List.iter (fun (label, q) ->
      match Q.holds ~model ~names ~trace (Q.parse_exn q) with
      | Ok holds ->
        Format.printf "%-42s %s  %s@." label
          (if holds then "[ok]  " else "[FAIL]") q
      | Error m -> Format.printf "%-42s [error] %s@." label m)
    checklist;

  (* 3. What the learner cannot see: the ECU-internal acquisition hops. *)
  Format.printf "@.learner's view of the hidden RadarAcq -> RadarProc hop: %s@."
    (Rt_lattice.Depval.to_string
       (Rt_lattice.Depfun.get model (Acc.task "RadarAcq") (Acc.task "RadarProc")));
  let mined = Rt_mining.Order_miner.infer trace in
  Format.printf "ordering baseline's view of the same hop:          %s@."
    (Rt_lattice.Depval.to_string
       (Rt_lattice.Depfun.get mined (Acc.task "RadarAcq") (Acc.task "RadarProc")));

  (* 4. Sensor-to-brake reaction time, with and without the learned
        dependencies. *)
  let path = Acc.brake_path () in
  let pess, inf, gain = L.improvement design ~dep:model ~path in
  Format.printf "@.sensor-to-brake chain: %s@."
    (String.concat " -> " (List.map (fun i -> names.(i)) path));
  Format.printf "pessimistic bound: %dus; dependency-informed: %dus (%.2fx)@."
    pess inf gain;
  Format.printf "deadline %dus: pessimistic %s, informed %s@."
    Acc.brake_deadline_us
    (if pess <= Acc.brake_deadline_us then "MET" else "MISSED")
    (if inf <= Acc.brake_deadline_us then "MET" else "MISSED");

  (* 5. Share the evidence without leaking the design: anonymize. *)
  let anon, mapping = Rt_trace.Anonymize.anonymize trace in
  Format.printf "@.anonymized for sharing: %a@." Rt_trace.Trace.pp_summary anon;
  List.iteri (fun i (original, hidden) ->
      if i < 4 then Format.printf "  %s -> %s@." original hidden)
    mapping.task_names;
  Format.printf "  ...@.";
  (* Anonymization preserves the learning problem. *)
  let model_anon, _, _ = auto anon in
  Format.printf "model learned from the anonymized trace is identical: %b@."
    (Rt_lattice.Depfun.equal model_anon model)
