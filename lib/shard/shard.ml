(* Sharded learning. The correctness story lives in shard.mli and
   DESIGN.md §14; the code is deliberately small: plan ranges, run one
   private Session.Pair per range (on pool workers when given — the
   workers never see the pool itself, it is not reentrant), fold the
   bound-1 companion models with the fused byte-matrix lub and one
   end-of-fold weakening pass under the union violation matrix. *)

module Df = Rt_lattice.Depfun
module Engine = Rt_engine.Engine

type result = {
  hypotheses : Df.t list;
  summary : Df.t option;
  violations : bool array array;
  periods : int;
  messages : int;
  elapsed_ns : int;
}

type outcome = {
  model : Df.t option;
  shards : result array;
  periods : int;
  messages : int;
}

let plan ~shards ~periods =
  if shards < 1 then invalid_arg "Shard.plan: shards must be >= 1";
  if periods < 0 then invalid_arg "Shard.plan: negative period count";
  let base = periods / shards and extra = periods mod shards in
  let range i =
    let lo = (i * base) + min i extra in
    (lo, lo + base + (if i < extra then 1 else 0))
  in
  let ranges =
    Array.init shards range
    |> Array.to_list
    |> List.filter (fun (lo, hi) -> hi > lo)
  in
  (* Keep one (empty) range for an empty trace: a shard over nothing
     still learns {d⊥}, exactly like the monolithic run. *)
  match ranges with [] -> [| (0, 0) |] | l -> Array.of_list l

let union_violations parts =
  let ntasks = Array.length parts.(0) in
  let v = Array.make_matrix ntasks ntasks false in
  Array.iter
    (fun m ->
       for a = 0 to ntasks - 1 do
         for b = 0 to ntasks - 1 do
           if m.(a).(b) then v.(a).(b) <- true
         done
       done)
    parts;
  v

(* The exchange-law fold over bound-1 summaries: any inconsistent shard
   means the whole trace is inconsistent; otherwise join the summaries
   in one fused pass and weaken once under the union matrix. *)
let fold_summaries parts =
  if Array.exists (fun (s, _) -> s = None) parts then None
  else begin
    let mats = Array.map (fun (s, _) -> Option.get s) parts in
    let model = Df.lub_many mats in
    let violated = union_violations (Array.map snd parts) in
    ignore (Df.weaken_violations model ~violated : int);
    Some model
  end

let fold_results results =
  fold_summaries (Array.map (fun r -> (r.summary, r.violations)) results)

let fold_engines engines =
  if Array.length engines = 0 then
    invalid_arg "Shard.fold_engines: no engines";
  let parts =
    Array.map
      (fun e ->
         match Engine.violations e with
         | Some v -> (Session.Pair.summary_of e, v)
         | None ->
           invalid_arg "Shard.fold_engines: exact-core engine has no fold")
      engines
  in
  fold_summaries parts

let learn ?window ?pool ?obs ~bound ~shards (trace : Rt_trace.Trace.t) =
  if shards < 1 then invalid_arg "Shard.learn: shards must be >= 1";
  if bound < 1 then invalid_arg "Shard.learn: bound must be >= 1";
  let periods = trace.periods in
  let ntasks = Rt_trace.Trace.task_count trace in
  let ranges = plan ~shards ~periods:(Array.length periods) in
  let span name f =
    match obs with
    | None -> f ()
    | Some r -> Rt_obs.Registry.with_span r name f
  in
  (* One private engine pair per range; everything the orchestrator
     needs comes back by value, so pool workers mutate nothing shared. *)
  let worker (lo, hi) =
    let t0 = Rt_obs.Registry.now_ns () in
    let pair =
      Session.Pair.create ?window ~ntasks ~companion:true
        (Engine.Heuristic { bound })
    in
    for i = lo to hi - 1 do
      Session.Pair.feed pair periods.(i)
    done;
    let main = Session.Pair.main pair in
    let summary, violations = Option.get (Session.Pair.part pair) in
    {
      hypotheses = Engine.current main;
      summary;
      violations;
      periods = Engine.periods_fed main;
      messages = Engine.messages_fed main;
      elapsed_ns = Rt_obs.Registry.now_ns () - t0;
    }
  in
  let shards_out =
    span "shard.fanout" (fun () ->
        match pool with
        | Some pool when Array.length ranges > 1 ->
          Rt_util.Domain_pool.map pool worker ranges
        | Some _ | None -> Array.map worker ranges)
  in
  let model = span "shard.fold" (fun () -> fold_results shards_out) in
  let periods_total =
    Array.fold_left (fun a (r : result) -> a + r.periods) 0 shards_out
  in
  let messages_total =
    Array.fold_left (fun a (r : result) -> a + r.messages) 0 shards_out
  in
  (match obs with
   | None -> ()
   | Some r ->
     let set = Rt_obs.Registry.set_counter r in
     set "shard.shards" (Array.length shards_out);
     set "shard.periods" periods_total;
     set "shard.messages" messages_total;
     let h = Rt_obs.Registry.histogram r "shard.worker_us" in
     Array.iter
       (fun (res : result) -> Rt_obs.Histogram.record h (res.elapsed_ns / 1000))
       shards_out);
  { model; shards = shards_out; periods = periods_total;
    messages = messages_total }
