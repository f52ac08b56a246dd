(* Online monitoring: learn the dependency model of a live system period
   by period, and watch properties become provable as evidence arrives.

   The simulator stands in for the live bus: its periods are handed to
   the Engine one at a time, and the current model is queried after
   each. `rtgen watch` runs the same per-period fold over a capture file
   (with --follow, a growing one), parsed period by period through
   Stream_io and Rt_shard.Session.

   Run with: dune exec examples/online_monitoring.exe *)

module Gm = Rt_case.Gm_model
module Df = Rt_lattice.Depfun
module Q = Rt_analysis.Query
module Engine = Rt_engine.Engine

let properties =
  [ "mode coverage", "d(A,L) = -> & d(B,M) = ->";
    "scheduler-induced Q-O", "d(Q,O) = <-";
    "joins identified", "conjunction(H) & conjunction(P) & conjunction(Q)";
    "mode selectors", "disjunction(A) & disjunction(B)" ]

let () =
  let design = Gm.design () in
  let names = Gm.names in
  (* The "live bus": periods arrive one at a time. *)
  let periods =
    Rt_trace.Trace.periods (Rt_sim.Simulator.run design Gm.reference_config)
  in
  let eng =
    Engine.create ~ntasks:(Array.length names) (Engine.Heuristic { bound = 1 })
  in
  let proven = Hashtbl.create 4 in
  Format.printf "%-8s %-8s %-10s %s@." "period" "weight" "consistent"
    "newly provable properties";
  List.iter (fun (p : Rt_trace.Period.t) ->
      Engine.feed eng p;
      match Engine.current eng with
      | [] -> Format.printf "%-8d %-8s %-10s@." (p.index + 1) "-" "NO"
      | model :: _ ->
        let newly =
          List.filter_map (fun (label, q) ->
              if Hashtbl.mem proven label then None
              else
                match Q.holds ~model ~names (Q.parse_exn q) with
                | Ok true ->
                  Hashtbl.replace proven label ();
                  Some label
                | Ok false | Error _ -> None)
            properties
        in
        Format.printf "%-8d %-8d %-10s %s@." (p.index + 1) (Df.weight model)
          "yes" (String.concat ", " newly))
    periods;
  let final = Engine.finalize eng in
  Format.printf "@.%d of %d properties provable after %d periods@."
    (Hashtbl.length proven) (List.length properties) final.Engine.periods;
  (* The anytime guarantee: the online model always matches everything
     seen so far — including the same trace learned in batch. *)
  match final.Engine.hypotheses with
  | model :: _ ->
    Format.printf "final model matches the whole trace: %b@."
      (Rt_learn.Matching.matches_trace model (Gm.trace ~seed:2007 ()))
  | [] -> ()
