(* The one path from trace lines to a learned model; the contract lives
   in session.mli. *)

module Engine = Rt_engine.Engine
module H = Rt_learn.Heuristic
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
  mutable resumed : int;         (* periods the checkpoint held *)
  mutable checkpoints : int;
}

let width t = Option.value t.shards ~default:1

(* The image's tag binds the shard count: another [--shards] deals the
   periods differently. *)
let tag_of t c =
  match t.shards with
  | None -> c.tag
  | Some k -> Printf.sprintf "%s+shards%d" c.tag k

(* The engines in image order: each pair's main, then its companion. *)
let engines t =
  List.concat_map
    (fun (p : Pair.t) -> p.main :: Option.to_list p.companion)
    (Array.to_list t.pairs)

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

(* The image read from disk must fit the session: a main engine per
   pair at the session's bound, each followed by its bound-1
   companion, and every engine holding its pair's round-robin share of
   the periods. *)
let pairs_of t states =
  let k = width t and sts = Array.of_list states in
  let per =
    if Pair.wants_companion ~companion:t.companion t.algorithm then 2 else 1
  in
  let n = Array.length sts and fed j = (H.stats sts.(j)).periods_processed in
  let bound j = if j mod per = 1 then Some 1 else Pair.bound_of t.algorithm in
  let all p = List.for_all p (List.init n Fun.id) in
  if n <> k * per then
    Error
      (Printf.sprintf "the image holds %d engine(s) where the session needs %d"
         n (k * per))
  else if not (all (fun j -> Some (H.bound sts.(j)) = bound j)) then
    Error "an engine's bound is not the session's"
  else
    let total =
      List.fold_left (fun a i -> a + fed (i * per)) 0 (List.init k Fun.id)
    in
    if not (all (fun j -> fed j = (total - (j / per) + k - 1) / k)) then
      Error "the image's engines disagree on progress"
    else
      Ok
        (Array.init k (fun i ->
             { Pair.main =
                 Engine.of_heuristic ?obs:t.engine_obs ?flight:t.flight
                   sts.(i * per);
               companion =
                 (if per = 2 then Some (Engine.of_heuristic sts.((i * per) + 1))
                  else None);
               bound = Pair.bound_of t.algorithm }))

let resume t c =
  if not (Slot.exists c.slot) then Fresh
  else
    let corrupt m = Corrupt (Slot.describe c.slot ^ ": " ^ m) in
    match Result.bind (Slot.load c.slot) (H.resume ?obs:t.engine_obs) with
    | Error m -> corrupt m
    | Ok (_, found) when not (String.equal found (tag_of t c)) -> Foreign found
    | Ok (states, _) ->
      (match pairs_of t states with
       | Error m -> corrupt m
       | Ok pairs ->
         t.pairs <- pairs;
         let total = periods_fed t in
         t.skip <- total;
         t.resumed <- total;
         t.turn <- total mod width t;
         Resumed total)

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
      resumed = 0;
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
    let write () =
      match Engine.image ~tag:(tag_of t c) (engines t) with
      | Error _ -> ()
      | Ok data ->
        Slot.save ?bound:(Pair.bound_of t.algorithm) ~source:c.source
          ~created_at:(periods_fed t) c.slot data
    in
    (match t.obs with
     | None -> write ()
     | Some r -> Rt_obs.Registry.with_span r "checkpoint.write" write);
    t.checkpoints <- t.checkpoints + 1;
    Option.iter
      (fun s ->
         Rt_obs.Flight.record_s s Rt_obs.Flight.Info ~kind:"checkpoint.write"
           (Printf.sprintf "periods=%d checkpoints=%d" (periods_fed t)
              t.checkpoints))
      t.flight
  | Some _ | None -> ()

let discard t = Option.iter (fun c -> Slot.discard c.slot) t.checkpoint

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
    (* A gauge, not a counter: counters are the run's totals, the same
       resumed or not; this says how this process came by them. *)
    if Option.is_some t.checkpoint then
      Rt_obs.Registry.set_gauge_named r "checkpoint.resumed_periods" t.resumed;
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
