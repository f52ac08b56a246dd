module Df = Rt_lattice.Depfun

type algorithm = Exact | Heuristic of int

type bound_step = {
  bound : int;
  lub_changed : bool;
  elapsed_s : float;
  hypotheses : int;
}

type report = {
  algorithm : algorithm;
  hypotheses : Df.t list;
  lub : Df.t option;
  converged : bool;
  consistent : bool;
  elapsed_s : float;
  periods : int;
  messages : int;
  trajectory : bound_step list;
}

let now_s () = float_of_int (Rt_obs.Registry.now_ns ()) /. 1e9

(* Feed every period of [trace] through a fresh engine and finalize:
   the batch entry point is literally the streaming one driven from an
   in-memory list. *)
let engine_snapshot ?exact_limit ?window ?obs algorithm trace =
  let alg =
    match algorithm with
    | Exact -> Engine.Exact { limit = exact_limit }
    | Heuristic bound -> Engine.Heuristic { bound }
  in
  let eng =
    Engine.create ?window ?obs
      ~ntasks:(Rt_trace.Trace.task_count trace) alg
  in
  List.iter (Engine.feed eng) (Rt_trace.Trace.periods trace);
  Engine.finalize eng

let report_of ~algorithm ~elapsed_s ~trajectory (s : Engine.snapshot) trace =
  {
    algorithm;
    hypotheses = s.hypotheses;
    lub = s.lub;
    converged = s.converged;
    consistent = s.consistent;
    elapsed_s;
    periods = Rt_trace.Trace.period_count trace;
    messages = Rt_trace.Trace.total_messages trace;
    trajectory;
  }

let learn ?exact_limit ?window ?obs algorithm trace =
  let t0 = now_s () in
  let s = engine_snapshot ?exact_limit ?window ?obs algorithm trace in
  report_of ~algorithm ~elapsed_s:(now_s () -. t0) ~trajectory:[] s trace

let auto ?(initial = 1) ?(max_bound = 256) ?window ?obs trace =
  if initial < 1 then invalid_arg "Learner.auto: initial bound must be >= 1";
  let t0 = now_s () in
  let rec go bound prev steps =
    let s0 = now_s () in
    let s = engine_snapshot ?window ?obs (Heuristic bound) trace in
    let pass_elapsed = now_s () -. s0 in
    let stable =
      match prev, s.lub with
      | Some p, Some l -> Df.equal p l
      | None, None -> true  (* consistently inconsistent *)
      | _ -> false
    in
    let steps =
      { bound;
        lub_changed = not stable;
        elapsed_s = pass_elapsed;
        hypotheses = List.length s.hypotheses }
      :: steps
    in
    if stable || bound >= max_bound then
      ( report_of ~algorithm:(Heuristic bound) ~elapsed_s:(now_s () -. t0)
          ~trajectory:(List.rev steps) s trace,
        bound )
    else go (bound * 2) s.lub steps
  in
  go initial None []

let verify report trace =
  List.for_all (fun d -> Rt_learn.Matching.matches_trace d trace)
    report.hypotheses

let pp_report ?names ppf r =
  let alg = match r.algorithm with
    | Exact -> "exact"
    | Heuristic b -> Printf.sprintf "heuristic(bound=%d)" b
  in
  Format.fprintf ppf "@[<v>algorithm: %s@,periods: %d, messages: %d@,"
    alg r.periods r.messages;
  Format.fprintf ppf "hypotheses: %d%s, %.3fs@,"
    (List.length r.hypotheses)
    (if r.converged then " (converged)"
     else if not r.consistent then " (INCONSISTENT TRACE)"
     else "")
    r.elapsed_s;
  if r.trajectory <> [] then begin
    Format.fprintf ppf "bound trajectory:@,";
    List.iter (fun s ->
        Format.fprintf ppf "  bound %d: %d hypothesis(es), lub %s, %.3fs@,"
          s.bound s.hypotheses
          (if s.lub_changed then "changed" else "stable")
          s.elapsed_s)
      r.trajectory
  end;
  (match r.lub with
   | Some d -> Format.fprintf ppf "least upper bound:@,%a@]" (Df.pp ?names) d
   | None -> Format.fprintf ppf "@]")
