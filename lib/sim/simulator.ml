module Pcg = Rt_util.Pcg32
module Design = Rt_task.Design
module Event = Rt_trace.Event

type config = {
  periods : int;
  seed : int;
  wcet_jitter : bool;
  release_jitter : int;
  drop_rate : float;
  jitter_spike_rate : float;
  jitter_spike_factor : int;
  glitch_rate : float;
}

let default_config =
  { periods = 27; seed = 42; wcet_jitter = true; release_jitter = 20;
    drop_rate = 0.0; jitter_spike_rate = 0.0; jitter_spike_factor = 4;
    glitch_rate = 0.0 }

exception Overrun of { period : int; time : int }

(* Per-run fault-injection tally, published as [sim.*] counters when a
   registry is attached. Counted unconditionally — integer stores on
   paths that already drew from the PRNG. *)
type tally = {
  mutable t_events : int;
  mutable t_dropped : int;
  mutable t_glitches : int;
  mutable t_spikes : int;
}

type period_truth = {
  outcome : Design.outcome;
  senders_receivers : (int * int) array;
}

(* One period: returns events with timestamps relative to the period start,
   plus the ground-truth message assignment in rising-edge order. *)
let simulate_period (d : Design.t) rng config ~tally ~period_index =
  let n = Design.size d in
  let outcome = Design.sample_outcome d rng in
  let work =
    Array.init n (fun i ->
        let w = d.tasks.(i).wcet in
        if config.wcet_jitter then Pcg.int_in rng (max 1 (w * 6 / 10)) w else w)
  in
  (* How many chosen input frames each task still waits for. *)
  let missing = Array.make n 0 in
  List.iter (fun (e : Design.edge) -> missing.(e.dst) <- missing.(e.dst) + 1)
    outcome.sent;
  let sched =
    Scheduler.create
      ~ecus:(1 + Array.fold_left (fun m t -> max m t.Design.ecu) 0 d.tasks)
      ~priority:(Array.map (fun t -> t.Design.priority) d.tasks)
      ~ecu_of:(Array.map (fun t -> t.Design.ecu) d.tasks)
  in
  let bus = Can_bus.create () in
  let bus_fall = ref None in
  let timed_heap () =
    Rt_util.Binary_heap.create
      ~cmp:(fun (t1, i1) (t2, i2) ->
          let c = Int.compare t1 t2 in
          if c <> 0 then c else Int.compare i1 i2)
      ~capacity:8
  in
  let releases = timed_heap () in
  (* Local (off-bus) deliveries in flight: (arrival time, edge tag). *)
  let local_inflight = timed_heap () in
  List.iter (fun v ->
      if outcome.executed.(v) then
        let jitter =
          if config.release_jitter > 0 then begin
            (* Occasional spike: a source held up [factor] times longer
               than its nominal jitter bound (an overloaded gateway, a
               late interrupt). All draws are gated on the rates so a
               zero-rate config consumes the same PRNG stream as before
               the fault model existed. *)
            let bound =
              if config.jitter_spike_rate > 0.0
                 && Pcg.chance rng config.jitter_spike_rate
              then begin
                tally.t_spikes <- tally.t_spikes + 1;
                config.release_jitter * max 1 config.jitter_spike_factor
              end
              else config.release_jitter
            in
            Pcg.int rng (bound + 1)
          end
          else 0
        in
        Rt_util.Binary_heap.push releases (d.tasks.(v).Design.offset + jitter, v))
    (Design.sources d);
  let events = ref [] in
  let truth = ref [] in
  let log time kind = events := { Event.time; kind } :: !events in
  let chosen_out = Array.make n [] in
  List.iter (fun (e : Design.edge) ->
      chosen_out.(e.src) <- e :: chosen_out.(e.src))
    outcome.sent;
  let edge_of_tag tag = d.edges.(tag) in
  let tag_of_pair : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri (fun k (e : Design.edge) -> Hashtbl.replace tag_of_pair (e.src, e.dst) k)
    d.edges;
  let frame_of_edge (e : Design.edge) =
    let tag = Hashtbl.find tag_of_pair (e.src, e.dst) in
    { Can_bus.can_id = e.can_id; tx_time = e.tx_time; tag }
  in
  (* Fault injection: a dropped frame is transmitted and delivered but
     missing from the log. *)
  let dropped : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let bus_start now =
    match Can_bus.try_start bus ~now with
    | None -> ()
    | Some (f, fall) ->
      let e = edge_of_tag f.tag in
      if config.drop_rate > 0.0 && Pcg.chance rng config.drop_rate then begin
        tally.t_dropped <- tally.t_dropped + 1;
        Hashtbl.replace dropped f.tag ()
      end
      else begin
        log now (Event.Msg_rise f.can_id);
        truth := (e.src, e.dst) :: !truth
      end;
      bus_fall := Some fall
  in
  let deliver now (e : Design.edge) =
    missing.(e.dst) <- missing.(e.dst) - 1;
    if missing.(e.dst) = 0 && outcome.executed.(e.dst) then
      Scheduler.release sched ~now ~task:e.dst ~work:work.(e.dst)
  in
  let next_time () =
    let cand = ref None in
    let consider t = match !cand with
      | Some m when m <= t -> ()
      | _ -> cand := Some t
    in
    (match Rt_util.Binary_heap.peek releases with
     | Some (t, _) -> consider t
     | None -> ());
    (match Rt_util.Binary_heap.peek local_inflight with
     | Some (t, _) -> consider t
     | None -> ());
    (match Scheduler.next_completion sched with Some t -> consider t | None -> ());
    (match !bus_fall with Some t -> consider t | None -> ());
    !cand
  in
  let rec loop () =
    match next_time () with
    | None -> ()
    | Some now ->
      Scheduler.advance sched ~now;
      (* 1. Task completions: log ends and queue their frames. *)
      let completed = Scheduler.take_completions sched ~now in
      List.iter (fun c ->
          log now (Event.Task_end c);
          List.iter (fun (e : Design.edge) ->
              match e.medium with
              | Design.Bus -> Can_bus.submit bus (frame_of_edge e)
              | Design.Local ->
                (* ECU-internal delivery: fixed IPC latency, never on the
                   bus, invisible to the logger. *)
                Rt_util.Binary_heap.push local_inflight
                  (now + e.tx_time, Hashtbl.find tag_of_pair (e.src, e.dst)))
            (List.sort
               (fun (a : Design.edge) b -> Int.compare a.can_id b.can_id)
               chosen_out.(c)))
        completed;
      (* 2. Frame completion: log the falling edge and deliver. *)
      (match !bus_fall with
       | Some t when t = now ->
         let f = Can_bus.complete bus in
         bus_fall := None;
         if Hashtbl.mem dropped f.tag then Hashtbl.remove dropped f.tag
         else log now (Event.Msg_fall f.can_id);
         deliver now (edge_of_tag f.tag)
       | Some _ | None -> ());
      (* 2b. Local deliveries due now. *)
      let rec pop_local () =
        match Rt_util.Binary_heap.peek local_inflight with
        | Some (t, tag) when t = now ->
          ignore (Rt_util.Binary_heap.pop local_inflight);
          deliver now (edge_of_tag tag);
          pop_local ()
        | Some _ | None -> ()
      in
      pop_local ();
      (* 3. Source releases due now. *)
      let rec pop_releases () =
        match Rt_util.Binary_heap.peek releases with
        | Some (t, v) when t = now ->
          ignore (Rt_util.Binary_heap.pop releases);
          Scheduler.release sched ~now ~task:v ~work:work.(v);
          pop_releases ()
        | Some _ | None -> ()
      in
      pop_releases ();
      (* 4. Start the next frame if the bus went idle, then dispatch CPUs. *)
      bus_start now;
      Scheduler.dispatch sched ~now;
      List.iter (fun (t, v) -> log t (Event.Task_start v)) (Scheduler.take_starts sched);
      loop ()
  in
  loop ();
  (* Bus glitches: short spurious frames from electrical noise, recorded
     by the logger but carrying no message. Each glitch gets a fresh high
     id (0x7c0+) so glitches never interleave with a real frame or each
     other under the same id; the cap keeps the id space distinct within
     a period. Geometric count: keep glitching while the coin comes up. *)
  if config.glitch_rate > 0.0 && d.period > 4 then begin
    let count = ref 0 in
    while !count < 32 && Pcg.chance rng config.glitch_rate do
      let dur = 1 + Pcg.int rng 3 in
      let t = Pcg.int rng (d.period - dur - 1) in
      let id = 0x7c0 + (!count land 63) in
      log t (Event.Msg_rise id);
      log (t + dur) (Event.Msg_fall id);
      incr count
    done;
    tally.t_glitches <- tally.t_glitches + !count
  end;
  let events = List.rev !events in
  tally.t_events <- tally.t_events + List.length events;
  (match events with
   | [] -> ()
   | _ ->
     let tmax = List.fold_left (fun m (e : Event.t) -> max m e.time) 0 events in
     if tmax >= d.period then raise (Overrun { period = period_index; time = tmax }));
  (events, { outcome; senders_receivers = Array.of_list (List.rev !truth) })

let run_with_truth ?obs d config =
  if config.periods <= 0 then invalid_arg "Simulator.run: periods must be positive";
  (match obs with
   | Some r -> Rt_obs.Registry.span_begin r "sim.run"
   | None -> ());
  let rng = Pcg.of_int config.seed in
  let task_set = Design.task_set d in
  let tally = { t_events = 0; t_dropped = 0; t_glitches = 0; t_spikes = 0 } in
  let periods = ref [] and truths = ref [] in
  for idx = 0 to config.periods - 1 do
    let events, truth = simulate_period d rng config ~tally ~period_index:idx in
    periods := Rt_trace.Period.make_exn ~index:idx ~task_set events :: !periods;
    truths := truth :: !truths
  done;
  (match obs with
   | None -> ()
   | Some r ->
     let set = Rt_obs.Registry.set_counter r in
     set "sim.periods" config.periods;
     set "sim.events" tally.t_events;
     set "sim.frames_dropped" tally.t_dropped;
     set "sim.glitches" tally.t_glitches;
     set "sim.jitter_spikes" tally.t_spikes;
     Rt_obs.Registry.span_end r);
  ( Rt_trace.Trace.of_periods ~task_set (List.rev !periods),
    Array.of_list (List.rev !truths) )

let run ?obs d config = fst (run_with_truth ?obs d config)
