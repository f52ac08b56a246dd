(* The one path from trace lines to a learned model; the contract lives
   in session.mli. *)

module Engine = Rt_engine.Engine
module Slot = Rt_store.Slot
module Sio = Rt_trace.Stream_io

type resume =
  | Fresh
  | Resumed of int
  | Corrupt of string
  | Foreign of string

module Pair = struct
  type t = {
    main : Engine.t;
    companion : Engine.t option;  (* a separate bound-1 engine *)
    bound : int option;           (* the main engine's; [None] = exact *)
  }

  let bound_of = function
    | Engine.Heuristic { bound } -> Some bound
    | Engine.Exact _ -> None

  let wants_companion ~companion alg =
    companion && Option.fold ~none:false ~some:(fun b -> b > 1) (bound_of alg)

  let create ?window ?obs ?flight ~ntasks ~companion alg =
    {
      main = Engine.create ?window ?obs ?flight ~ntasks alg;
      companion =
        (if wants_companion ~companion alg then
           Some (Engine.create ?window ~ntasks (Engine.Heuristic { bound = 1 }))
         else None);
      bound = bound_of alg;
    }

  let main t = t.main

  let feed t p =
    Engine.feed t.main p;
    Option.iter (fun c -> Engine.feed c p) t.companion

  let summary_of e =
    match Engine.current e with
    | [] -> None
    | hs -> Some (Rt_lattice.Depfun.lub hs)

  let part t =
    match (t.companion, t.bound, Engine.violations t.main) with
    | Some c, _, Some v -> Some (summary_of c, v)
    | None, Some 1, Some v -> Some (summary_of t.main, v)
    | _ -> None

  let companion_slot = function
    | Slot.File p -> Slot.File (p ^ ".b1")
    | Slot.Ref (s, r) -> Slot.Ref (s, r ^ "/b1")

  let resume_engine ?obs ?flight ~tag slot =
    match Slot.load slot with
    | Error m -> Error (Corrupt (Slot.describe slot ^ ": " ^ m))
    | Ok data ->
      (match Engine.resume ?obs ?flight data with
       | Error m -> Error (Corrupt (Slot.describe slot ^ ": " ^ m))
       | Ok (e, found) when String.equal found tag -> Ok e
       | Ok (_, found) -> Error (Foreign found))

  (* [Ok None]: nothing saved. A companion that is missing, damaged or
     at another period than its main engine makes the pair [Corrupt]. *)
  let load ?obs ?flight ~companion ~tag alg slot =
    if not (Slot.exists slot) then Ok None
    else
      let ( let* ) = Result.bind in
      let* main = resume_engine ?obs ?flight ~tag slot in
      let pair companion = Ok (Some { main; companion; bound = bound_of alg }) in
      if not (wants_companion ~companion alg) then pair None
      else
        let cslot = companion_slot slot in
        match resume_engine ~tag:(tag ^ "+b1") cslot with
        | Ok c when Engine.periods_fed c = Engine.periods_fed main ->
          pair (Some c)
        | Ok _ | Error _ ->
          Error
            (Corrupt
               (Slot.describe cslot ^ ": no companion at the checkpointed period"))

  let save ~source ~tag slot t =
    let dump slot ~bound ~tag e =
      match Engine.checkpoint ~tag e with
      | Error _ -> ()
      | Ok data ->
        Slot.save ?bound ~source ~created_at:(Engine.periods_fed e) slot data
    in
    dump slot ~bound:t.bound ~tag t.main;
    Option.iter
      (dump (companion_slot slot) ~bound:(Some 1) ~tag:(tag ^ "+b1"))
      t.companion

  let discard slot =
    Slot.discard slot;
    Slot.discard (companion_slot slot)
end

type checkpoint = {
  slot : Slot.t;
  tag : string;
  source : string;
  every : int;
}

type step = Fed | Skipped

type t = {
  parser : Sio.t;
  obs : Rt_obs.Registry.t option;  (* ingest spans, counters, shard fold *)
  shards : int option;
  checkpoint : checkpoint option;
  (* How pairs are made; sharded pairs get no registry or recorder. *)
  window : int option;
  algorithm : Engine.algorithm;
  engine_obs : Rt_obs.Registry.t option;
  flight : Rt_obs.Flight.scope option;
  companion : bool;
  mutable pairs : Pair.t array;  (* empty until the first feed or a resume *)
  mutable turn : int;            (* the pair the next period goes to *)
  (* Sharded only: the round being collected, one slot per pair, run on
     [pool] when it closes; each pair's summed feed time. *)
  pool : Rt_util.Domain_pool.t option;
  round : Rt_trace.Period.t option array;
  mutable buffered : int;
  busy_ns : int array;
  mutable skip : int;            (* replay-skip budget of a resume *)
  mutable checkpoints : int;
}

let width t = Option.value t.shards ~default:1

(* Where pair [i] of [width t] is checkpointed, and under which tag. *)
let slot_of t c i =
  match (t.shards, c.slot) with
  | None, slot -> slot
  | Some _, Slot.File p -> Slot.File (Printf.sprintf "%s.shard%d" p i)
  | Some _, Slot.Ref (s, r) -> Slot.Ref (s, Printf.sprintf "%s/shard%d" r i)

let tag_of t c i =
  match t.shards with
  | None -> c.tag
  | Some k -> Printf.sprintf "%s+shard%d/%d" c.tag i k

let sum f t = Array.fold_left (fun acc p -> acc + f (Pair.main p)) 0 t.pairs

(* Feed the collected round's pairs, in parallel on [pool]. Each
   chunk touches only its own pair, slot and timer, and the pool never
   reaches an engine: it is not reentrant. *)
let flush t =
  if t.buffered > 0 then begin
    let feed_pair i =
      match t.round.(i) with
      | None -> ()
      | Some p ->
        let t0 = Rt_obs.Registry.now_ns () in
        Pair.feed t.pairs.(i) p;
        t.busy_ns.(i) <- t.busy_ns.(i) + Rt_obs.Registry.now_ns () - t0;
        t.round.(i) <- None
    in
    (match t.pool with
     | Some pool ->
       Rt_util.Domain_pool.run pool ~chunks:(Array.length t.round) feed_pair
     | None -> Array.iteri (fun i _ -> feed_pair i) t.round);
    t.buffered <- 0
  end

let periods_fed t = sum Engine.periods_fed t + t.buffered

let messages_fed = sum Engine.messages_fed

let hypotheses t =
  flush t;
  sum (fun e -> List.length (Engine.current e)) t

(* Every pair saved, each holding its round-robin share of the total —
   anything else is a kill between two pairs' saves. *)
let resume t c =
  let k = width t in
  let loaded =
    List.init k (fun i ->
        Pair.load ?obs:t.engine_obs ?flight:t.flight
          ~companion:t.companion ~tag:(tag_of t c i) t.algorithm (slot_of t c i))
  in
  match List.find_map (function Error r -> Some r | Ok _ -> None) loaded with
  | Some r -> r
  | None ->
    (match List.filter_map Result.get_ok loaded with
     | [] -> Fresh
     | pairs when List.length pairs < k -> Corrupt "shard checkpoints missing"
     | pairs ->
       t.pairs <- Array.of_list pairs;
       let total = periods_fed t in
       let share i p = Engine.periods_fed (Pair.main p) = (total - i + k - 1) / k in
       if List.for_all Fun.id (List.mapi share pairs) then begin
         t.skip <- total;
         t.turn <- total mod k;
         Resumed total
       end
       else begin
         t.pairs <- [||];
         Corrupt "shard checkpoints disagree on progress"
       end)

let create ?(mode = `Strict) ?eps ?window ?pool ?obs ?flight
    ?(companion = false) ?shards ?checkpoint algorithm source =
  (match shards with
   | Some k when k < 1 -> invalid_arg "Session.create: shards must be >= 1"
   | Some _ | None -> ());
  let single x = if Option.is_none shards then x else None in
  let k = Option.value shards ~default:0 in
  let t =
    {
      parser = Sio.create ~mode ?eps ?window source;
      obs; shards; checkpoint; window; algorithm;
      engine_obs = single obs;
      flight = single flight;
      companion = companion || Option.is_some shards;
      pairs = [||];
      turn = 0;
      pool;
      round = Array.make k None;
      buffered = 0;
      busy_ns = Array.make k 0;
      skip = 0;
      checkpoints = 0;
    }
  in
  (t, match checkpoint with None -> Fresh | Some c -> resume t c)

let checkpoints_written t = t.checkpoints

let names t = Option.map Rt_task.Task_set.names (Sio.task_set t.parser)

let save t =
  flush t;
  match t.checkpoint with
  | Some c when Array.length t.pairs > 0 ->
    Array.iteri
      (fun i p -> Pair.save ~source:c.source ~tag:(tag_of t c i) (slot_of t c i) p)
      t.pairs;
    t.checkpoints <- t.checkpoints + 1;
    Option.iter
      (fun s ->
         Rt_obs.Flight.record_s s Rt_obs.Flight.Info ~kind:"checkpoint.write"
           (Printf.sprintf "periods=%d checkpoints=%d" (periods_fed t)
              t.checkpoints))
      t.flight
  | Some _ | None -> ()

let discard t =
  Option.iter
    (fun c -> for i = 0 to width t - 1 do Pair.discard (slot_of t c i) done)
    t.checkpoint

let feed t p =
  if t.skip > 0 then begin
    t.skip <- t.skip - 1;
    Skipped
  end
  else begin
    if Array.length t.pairs = 0 then begin
      let ntasks = Rt_task.Task_set.size (Option.get (Sio.task_set t.parser)) in
      t.pairs <-
        Array.init (width t) (fun _ ->
            Pair.create ?window:t.window ?obs:t.engine_obs
              ?flight:t.flight ~ntasks ~companion:t.companion t.algorithm)
    end;
    if Option.is_none t.shards then Pair.feed t.pairs.(0) p
    else begin
      t.round.(t.turn) <- Some p;
      t.buffered <- t.buffered + 1;
      t.turn <- (t.turn + 1) mod Array.length t.pairs;
      if t.turn = 0 then flush t
    end;
    (match t.checkpoint with
     | Some c when periods_fed t mod c.every = 0 -> save t
     | Some _ | None -> ());
    Fed
  end

let next t =
  let parsed =
    match t.obs with
    | None -> Sio.next t.parser
    | Some r ->
      Rt_obs.Registry.with_span r "ingest.parse" (fun () -> Sio.next t.parser)
  in
  match parsed with
  | Error e -> Error e
  | Ok None -> Ok None
  | Ok (Some p) -> Ok (Some (feed t p))

let quarantine t = Sio.quarantine t.parser

let dropped_since t n = Sio.dropped_since t.parser n

let publish t =
  flush t;
  let q = quarantine t in
  Array.iter
    (fun p ->
       Engine.set_provenance (Pair.main p)
         ~dropped:(List.length q.Rt_trace.Quarantine.dropped)
         ~repaired:(List.length q.Rt_trace.Quarantine.repaired);
       Engine.publish (Pair.main p))
    t.pairs;
  match t.obs with
  | None -> ()
  | Some r ->
    Sio.publish r t.parser;
    Option.iter
      (fun k ->
         let set = Rt_obs.Registry.set_counter r in
         set "shard.shards" k;
         set "shard.periods" (periods_fed t);
         set "shard.messages" (messages_fed t);
         (* One sample per shard, however often the session publishes. *)
         let h = Rt_obs.Registry.histogram r "shard.worker_us" in
         if Rt_obs.Histogram.count h = 0 then
           Array.iter (fun ns -> Rt_obs.Histogram.record h (ns / 1000)) t.busy_ns)
      t.shards

let first t f =
  flush t;
  if Array.length t.pairs = 0 then None else Some (f (Pair.main t.pairs.(0)))

let snapshot t = first t Engine.snapshot

let finalize t =
  publish t;
  first t Engine.finalize

let parts t =
  flush t;
  Array.of_list (List.filter_map Pair.part (Array.to_list t.pairs))

let fold t =
  let parts = parts t in
  if Array.length t.pairs = 0 then
    (* No period fed: the LUB of no periods is the bottom model. *)
    match Sio.task_set t.parser with
    | Some ts -> Some (Rt_lattice.Depfun.create (Rt_task.Task_set.size ts))
    | None -> invalid_arg "Session.fold: no tasks line read"
  else if Array.length parts = 0 then
    invalid_arg "Session.fold: no bound-1 engine"
  else
    match t.obs with
    | None -> Shard.fold_summaries parts
    | Some r ->
      Rt_obs.Registry.with_span r "shard.fold" (fun () ->
          Shard.fold_summaries parts)

type shard = {
  periods : int;
  messages : int;
  hypotheses : Rt_lattice.Depfun.t list;
  feed_ns : int;
}

let shards t =
  flush t;
  Array.mapi
    (fun i p ->
       let e = Pair.main p in
       { periods = Engine.periods_fed e; messages = Engine.messages_fed e;
         hypotheses = Engine.current e; feed_ns = t.busy_ns.(i) })
    (if Option.is_none t.shards then [||] else t.pairs)
