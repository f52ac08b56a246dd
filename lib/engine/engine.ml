module Df = Rt_lattice.Depfun
module H = Rt_learn.Heuristic
module E = Rt_learn.Exact

type algorithm =
  | Exact of { limit : int option }
  | Heuristic of { bound : int }

type core = Hstate of H.state | Estate of E.state

type t = {
  core : core;
  obs : Rt_obs.Registry.t option;
  flight : Rt_obs.Flight.scope option;
  feed_hist : Rt_obs.Histogram.t option;
  periods_gauge : Rt_obs.Registry.gauge option;
  msgs_gauge : Rt_obs.Registry.gauge option;
}

type snapshot = {
  hypotheses : Df.t list;
  lub : Df.t option;
  converged : bool;
  consistent : bool;
  periods : int;
  messages : int;
}

let wrap ?obs ?flight core =
  {
    core;
    obs;
    flight;
    feed_hist =
      Option.map (fun r -> Rt_obs.Registry.histogram r "engine.feed_ns") obs;
    periods_gauge =
      Option.map
        (fun r -> Rt_obs.Registry.gauge r "engine.periods_in_flight")
        obs;
    msgs_gauge =
      Option.map
        (fun r -> Rt_obs.Registry.gauge r "engine.messages_in_flight")
        obs;
  }

let create ?window ?obs ?flight ~ntasks algorithm =
  let core =
    match algorithm with
    | Exact { limit } -> Estate (E.init ?limit ?window ?obs ~ntasks ())
    | Heuristic { bound } -> Hstate (H.init ?window ?obs ~bound ~ntasks ())
  in
  wrap ?obs ?flight core

let of_heuristic ?obs ?flight st = wrap ?obs ?flight (Hstate st)

let periods_fed t =
  match t.core with
  | Hstate st -> (H.stats st).periods_processed
  | Estate st -> (E.stats st).periods_processed

let messages_fed t =
  match t.core with
  | Hstate st -> H.messages_processed st
  | Estate st -> E.messages_processed st

let feed t p =
  let t0 = if t.feed_hist = None then 0 else Rt_obs.Registry.now_ns () in
  (match t.core with Hstate st -> H.feed st p | Estate st -> E.feed st p);
  (match t.flight with
   | None -> ()
   | Some s ->
     Rt_obs.Flight.record_s s Rt_obs.Flight.Debug ~kind:"engine.period"
       (Printf.sprintf "periods=%d messages=%d" (periods_fed t)
          (messages_fed t)));
  match t.feed_hist with
  | None -> ()
  | Some h ->
    Rt_obs.Histogram.record h (Rt_obs.Registry.now_ns () - t0);
    (match t.periods_gauge with
     | Some g -> Rt_obs.Registry.set_gauge g (periods_fed t)
     | None -> ());
    (match t.msgs_gauge with
     | Some g -> Rt_obs.Registry.set_gauge g (messages_fed t)
     | None -> ())

let current t =
  match t.core with Hstate st -> H.current st | Estate st -> E.current st

let violations t =
  match t.core with
  | Hstate st -> Some (H.violations st)
  | Estate _ -> None

(* The engine's own counter totals come from the core state — which is
   what checkpoints carry — so a resumed engine republishes the same
   numbers an uninterrupted one would. *)
let publish t =
  (match t.core with Hstate st -> H.publish st | Estate st -> E.publish st);
  match t.obs with
  | None -> ()
  | Some r ->
    let set = Rt_obs.Registry.set_counter r in
    set "engine.periods" (periods_fed t);
    set "engine.messages" (messages_fed t)

let snapshot t =
  publish t;
  let hypotheses = current t in
  {
    hypotheses;
    lub = (match hypotheses with [] -> None | l -> Some (Df.lub l));
    converged = List.length hypotheses = 1;
    consistent = hypotheses <> [];
    periods = periods_fed t;
    messages = messages_fed t;
  }

let finalize = snapshot

let set_provenance t ~dropped ~repaired =
  match t.core with
  | Hstate st -> H.set_provenance st ~dropped ~repaired
  | Estate _ -> ()

let image ?tag ts =
  let state t = match t.core with Hstate st -> Some st | Estate _ -> None in
  match List.filter_map state ts with
  | sts when List.compare_lengths sts ts = 0 -> Ok (H.checkpoint ?tag sts)
  | _ -> Error "the exact algorithm has no checkpoint format"

let checkpoint ?tag t = image ?tag [ t ]
