(* Per-layer probe for the perfbench harness.

   The harness (perfbench/run.py) times the rtgen CLI from outside for
   the end-to-end figures. This executable measures the layers under
   it by timing calls into their public functions, and computes the
   reference answers the harness checks the CLI against:

     probe simulate --tasks N --design-seed D --seed S --periods P FILE
       Write a simulated trace. The design is fixed by D (N = 0 is the
       18-task GM case study), the run by S, so a workload's shape does
       not move with the benchmark seed.
     probe answers BOUND TRACE
       Content address of the Rt_learn.Reference answer set (the blob
       `learn --store` commits under model/answers).
     probe models TRACE
       Content address of the bound-1 model learned from each of the
       mmap, boxed and stream readers' parses, and by Rt_learn.Reference.
     probe layers --bound B --every C --seconds S --store DIR TRACE...
       One JSON object of per-layer figures; see [layers] below.

   Every address is the MD5 content address Rt_store would give the
   blob, so the harness compares it with a store ref's latest
   generation without reading blobs. *)

module Df = Rt_lattice.Depfun
module Trace = Rt_trace.Trace
module Period = Rt_trace.Period
module Eng = Rt_engine.Engine
module H = Rt_learn.Heuristic
module Store = Rt_store.Store
module Codec = Rt_store.Codec

let now = Unix.gettimeofday
let alloc_bytes = Gc.allocated_bytes

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("probe: " ^ m); exit 2) fmt

let ok_or what = function
  | Ok x -> x
  | Error m -> fail "%s: %s" what m

let names_of (t : Trace.t) = Rt_task.Task_set.names t.task_set

let mmap_load path =
  match Rt_trace.Mmap_io.load path with
  | Ok (mm, _) -> mm.Rt_trace.Mmap_io.trace
  | Error e -> fail "%s: line %d: %s" path e.line e.message

let boxed_load path =
  match Rt_trace.Trace_io.load path with
  | Ok (t, _) -> t
  | Error e -> fail "%s: line %d: %s" path e.line e.message

(* Strict streaming parse, one period at a time; [f] sees each period. *)
let stream_parse path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let p = Rt_trace.Stream_io.create (Rt_trace.Stream_io.lines_of_channel ic) in
      let rec loop () =
        match Rt_trace.Stream_io.next p with
        | Ok (Some period) -> f period; loop ()
        | Ok None -> ()
        | Error e -> fail "%s: line %d: %s" path e.line e.message
      in
      loop ();
      match Rt_trace.Stream_io.task_set p with
      | Some ts -> ts
      | None -> fail "%s: no tasks header" path)

let model_address ~names hyps =
  match hyps with
  | [] -> fail "inconsistent trace: empty answer set"
  | hs -> Store.address_of (Codec.model_to_blob ~names (Df.lub hs))

let learn_periods ~bound ~ntasks periods =
  let e = Eng.create ~ntasks (Eng.Heuristic { bound }) in
  Array.iter (Eng.feed e) periods;
  (Eng.finalize e).Eng.hypotheses

(* The CLI's `simulate --tasks N` design shape, with the design seed
   split from the simulation seed. *)
let design ~tasks ~design_seed =
  if tasks = 0 then Rt_case.Gm_model.design ()
  else
    let layers = max 2 (tasks / 3) in
    let width = max 1 (tasks / layers) in
    Rt_task.Generator.generate
      { Rt_task.Generator.default with
        layers; width_min = width; width_max = width + 1 }
      ~seed:design_seed

let cmd_simulate ~tasks ~design_seed ~seed ~periods path =
  let config =
    if tasks = 0 then { Rt_case.Gm_model.reference_config with periods; seed }
    else { Rt_sim.Simulator.default_config with periods; seed }
  in
  Rt_trace.Trace_io.save path
    (Rt_sim.Simulator.run (design ~tasks ~design_seed) config)

let cmd_answers bound path =
  let t = mmap_load path in
  let out = Rt_learn.Reference.run ~bound t in
  Printf.printf "%s %d\n"
    (Store.address_of (Codec.answerset_to_blob ~names:(names_of t) out.hypotheses))
    (List.length out.hypotheses)

(* One reader at a time, so only one parsed trace is live; the stream
   reader feeds the engine period by period as `learn --stream` does. *)
let cmd_models path =
  let learn (t : Trace.t) =
    model_address ~names:(names_of t)
      (learn_periods ~bound:1 ~ntasks:(Trace.task_count t) t.periods)
  in
  let m = mmap_load path in
  Printf.printf "mmap %s\n" (learn m);
  Printf.printf "reference %s\n"
    (model_address ~names:(names_of m) (Rt_learn.Reference.run ~bound:1 m).hypotheses);
  Printf.printf "boxed %s\n" (learn (boxed_load path));
  let e = ref None in
  let ts =
    stream_parse path (fun p ->
        let eng =
          match !e with
          | Some eng -> eng
          | None ->
            let eng =
              Eng.create ~ntasks:(Rt_task.Task_set.size p.Period.task_set)
                (Eng.Heuristic { bound = 1 })
            in
            e := Some eng;
            eng
        in
        Eng.feed eng p)
  in
  match !e with
  | None -> fail "%s: no periods" path
  | Some eng ->
    Printf.printf "stream %s\n"
      (model_address ~names:(Rt_task.Task_set.names ts) (Eng.finalize eng).hypotheses)

(* --- layers ---------------------------------------------------------- *)

(* One sweep over every layer on the workload's inputs. Times are
   seconds summed over the inputs; counts are exact. [every] is the
   checkpoint cadence in periods; 0 means the workload does not
   checkpoint, and the codec/store layer then does what `learn --store`
   does: one checkpoint-sized snapshot plus the model and answer-set
   commits at the end. *)
type pass = {
  mutable mmap_s : float; mutable boxed_s : float; mutable stream_s : float;
  mutable mmap_b : float; mutable boxed_b : float; mutable stream_b : float;
  mutable events : int;
  mutable cand_s : float; mutable pairs : int;
  mutable feed : float list;          (* per-period Engine.feed seconds *)
  mutable feed_b : float; mutable periods : int;
  mutable branches : int; mutable created : int; mutable dedup : int;
  mutable merges : int; mutable evictions : int; mutable weakenings : int;
  mutable end_dedup : int; mutable nonminimal : int;
  mutable encode_s : float; mutable ckpt_bytes : int;
  mutable commit : float list;        (* per Store.commit seconds *)
  mutable ref_bytes_max : int; mutable blobs : int;
  mutable pump_s : float; mutable stream_ckpt_s : float;
  mutable stream_ckpts : int; mutable stream_periods : int;
}

let new_pass () = {
  mmap_s = 0.; boxed_s = 0.; stream_s = 0.; mmap_b = 0.; boxed_b = 0.;
  stream_b = 0.; events = 0; cand_s = 0.; pairs = 0; feed = []; feed_b = 0.;
  periods = 0; branches = 0; created = 0; dedup = 0; merges = 0;
  evictions = 0; weakenings = 0; end_dedup = 0; nonminimal = 0;
  encode_s = 0.; ckpt_bytes = 0; commit = []; ref_bytes_max = 0; blobs = 0;
  pump_s = 0.; stream_ckpt_s = 0.; stream_ckpts = 0; stream_periods = 0 }

(* Time [f ()]; return its value, seconds and heap bytes allocated. *)
let measure f =
  let b0 = alloc_bytes () and t0 = now () in
  let x = f () in
  let t1 = now () in
  (x, t1 -. t0, alloc_bytes () -. b0)

let rec dir_files dir =
  Array.fold_left
    (fun acc n ->
      let p = Filename.concat dir n in
      if Sys.is_directory p then dir_files p @ acc else p :: acc)
    [] (Sys.readdir dir)

let file_size p = (Unix.stat p).Unix.st_size

let readers ps path =
  let t, s, b = measure (fun () -> mmap_load path) in
  ps.mmap_s <- ps.mmap_s +. s; ps.mmap_b <- ps.mmap_b +. b;
  let _, s, b = measure (fun () -> boxed_load path) in
  ps.boxed_s <- ps.boxed_s +. s; ps.boxed_b <- ps.boxed_b +. b;
  let _, s, b = measure (fun () -> stream_parse path ignore) in
  ps.stream_s <- ps.stream_s +. s; ps.stream_b <- ps.stream_b +. b;
  ps.events <- ps.events + Trace.total_events t;
  t

let candidates ps (t : Trace.t) =
  let t0 = now () in
  Array.iter
    (fun (p : Period.t) ->
      Array.iter
        (fun m -> ps.pairs <- ps.pairs + List.length (Rt_trace.Candidates.pairs p m))
        p.msgs)
    t.periods;
  ps.cand_s <- ps.cand_s +. (now () -. t0)

let commit ps store ~ref_ ~kind ~bound ~created_at blob =
  let meta =
    { Store.kind; bound = Some bound; source = Some ref_; parents = [];
      created_at }
  in
  let t0 = now () in
  ignore (ok_or "store commit" (Store.commit store ~ref_ ~meta blob));
  ps.commit <- (now () -. t0) :: ps.commit

let snapshot_state ps store ~id ~bound e =
  let t0 = now () in
  let blob = Codec.checkpoint_to_blob (ok_or "checkpoint" (Eng.checkpoint ~tag:id e)) in
  ps.encode_s <- ps.encode_s +. (now () -. t0);
  ps.ckpt_bytes <- ps.ckpt_bytes + String.length blob;
  commit ps store ~ref_:("ckpt/" ^ id) ~kind:Store.Checkpoint ~bound
    ~created_at:(Eng.periods_fed e) blob

(* Engine.feed per period, with the checkpoint/codec/store layer timed
   apart at the workload's cadence. *)
let engine ps store ~id ~bound ~every (t : Trace.t) =
  let st = H.init ~bound ~ntasks:(Trace.task_count t) () in
  let e = Eng.of_heuristic st in
  Array.iter
    (fun p ->
      let (), s, b = measure (fun () -> Eng.feed e p) in
      ps.feed <- s :: ps.feed;
      ps.feed_b <- ps.feed_b +. b;
      ps.periods <- ps.periods + 1;
      if every > 0 && Eng.periods_fed e mod every = 0 then
        snapshot_state ps store ~id ~bound e)
    t.periods;
  let snap = Eng.finalize e in
  if every = 0 then snapshot_state ps store ~id ~bound e;
  let names = names_of t in
  let t0 = now () in
  let answers = Codec.answerset_to_blob ~names snap.hypotheses in
  let model =
    match snap.lub with
    | Some m -> Codec.model_to_blob ~names m
    | None -> fail "%s: inconsistent trace" id
  in
  ps.encode_s <- ps.encode_s +. (now () -. t0);
  let created_at = Eng.periods_fed e in
  commit ps store ~ref_:(id ^ "/answers") ~kind:Store.Answerset ~bound ~created_at answers;
  commit ps store ~ref_:id ~kind:Store.Model ~bound ~created_at model;
  let c = H.counters st and s = H.stats st in
  ps.branches <- ps.branches + c.branches;
  ps.created <- ps.created + s.created;
  ps.dedup <- ps.dedup + c.dedup_hits;
  ps.merges <- ps.merges + s.merges;
  ps.evictions <- ps.evictions + c.evictions;
  ps.weakenings <- ps.weakenings + c.weakenings;
  ps.end_dedup <- ps.end_dedup + c.end_dedup;
  ps.nonminimal <- ps.nonminimal + c.nonminimal

(* The daemon's per-stream layer: queue offers + recover parse + engine
   in Rt_daemon.Stream.pump, and checkpoints through write_checkpoint
   at the cadence the daemon would use. *)
let daemon_stream ps store ~id ~bound ~every path =
  let cfg =
    { Rt_daemon.Stream.bound; window = None; eps = None;
      queue_capacity = 4096;
      checkpoint = Some (Rt_store.Slot.Ref (store, "daemon/" ^ id));
      checkpoint_every = max_int }
  in
  let s, _ = Rt_daemon.Stream.create ~id cfg in
  let ic = open_in_bin path in
  let next_line = Rt_trace.Stream_io.lines_of_channel ic in
  let eof = ref false in
  (* A line the full queue refused is offered again on the next fill. *)
  let held = ref None in
  let fill () =
    let full = ref false in
    while not (!eof || !full) do
      match (match !held with Some _ as l -> l | None -> next_line ()) with
      | None -> eof := true; Rt_daemon.Stream.close_input s
      | Some l ->
        (match Rt_daemon.Stream.offer_line s l with
         | `Ok -> held := None
         | `Overflow -> held := Some l; full := true)
    done
  in
  let checkpoint () =
    let t0 = now () in
    Rt_daemon.Stream.write_checkpoint s;
    ps.stream_ckpt_s <- ps.stream_ckpt_s +. (now () -. t0)
  in
  let rec loop () =
    let t0 = now () in
    fill ();
    let budget =
      if every > 0 then every - (Rt_daemon.Stream.periods_fed s mod every)
      else 1024
    in
    let n, status = Rt_daemon.Stream.pump s ~budget in
    ps.pump_s <- ps.pump_s +. (now () -. t0);
    if every > 0 && n > 0 && Rt_daemon.Stream.periods_fed s mod every = 0 then
      checkpoint ();
    match status with
    | Rt_daemon.Stream.Done -> ()
    | Crashed m -> fail "%s: stream crashed: %s" id m
    | Blocked | More -> loop ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop;
  (* The daemon's finalize writes one last checkpoint. *)
  checkpoint ();
  ps.stream_ckpts <- ps.stream_ckpts + Rt_daemon.Stream.checkpoints_written s;
  ps.stream_periods <- ps.stream_periods + Rt_daemon.Stream.periods_fed s

let one_pass ~bound ~every ~store_dir paths =
  let ps = new_pass () in
  let store = ok_or "store init" (Store.init store_dir) in
  List.iter
    (fun path ->
      let id = Filename.remove_extension (Filename.basename path) in
      let t = readers ps path in
      candidates ps t;
      engine ps store ~id:("model/" ^ id) ~bound ~every t;
      daemon_stream ps store ~id ~bound ~every path)
    paths;
  let files = dir_files store_dir in
  ps.blobs <-
    List.length (List.filter (fun p -> Filename.basename (Filename.dirname (Filename.dirname p)) = "objects") files);
  ps.ref_bytes_max <-
    List.fold_left
      (fun m p -> if Filename.check_suffix p ".ref" then max m (file_size p) else m)
      0 files;
  ps

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let pct q l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let cmd_layers ~bound ~every ~seconds ~store_dir paths =
  let t_end = now () +. seconds in
  let rec passes acc i =
    let ps = one_pass ~bound ~every ~store_dir:(Filename.concat store_dir (string_of_int i)) paths in
    let acc = ps :: acc in
    if now () < t_end then passes acc (i + 1) else List.rev acc
  in
  let all = passes [] 0 in
  let first = List.hd all in
  let med f = median (List.map f all) in
  let mb b = b /. 1e6 in
  let feed = List.concat_map (fun p -> p.feed) all in
  let commits = List.concat_map (fun p -> p.commit) all in
  let survivors = first.created - first.dedup - first.merges in
  let fields =
    [ ("passes", `I (List.length all));
      ("trace.mmap_load_s", `F (med (fun p -> p.mmap_s)));
      ("trace.boxed_load_s", `F (med (fun p -> p.boxed_s)));
      ("trace.stream_parse_s", `F (med (fun p -> p.stream_s)));
      ("trace.mmap_alloc_mb", `F (mb first.mmap_b));
      ("trace.boxed_alloc_mb", `F (mb first.boxed_b));
      ("trace.stream_alloc_mb", `F (mb first.stream_b));
      ("trace.events", `I first.events);
      ("trace.candidates_s", `F (med (fun p -> p.cand_s)));
      ("trace.candidate_pairs", `I first.pairs);
      ("engine.feed_s", `F (med (fun p -> List.fold_left ( +. ) 0. p.feed)));
      ("engine.feed_p50_ms", `F (1e3 *. pct 0.5 feed));
      ("engine.feed_p99_ms", `F (1e3 *. pct 0.99 feed));
      ("engine.alloc_mb_per_period", `F (mb first.feed_b /. float first.periods));
      ("engine.periods", `I first.periods);
      ("heuristic.branches", `I first.branches);
      ("heuristic.created", `I first.created);
      ("heuristic.dedup_hits", `I first.dedup);
      ("heuristic.merges", `I first.merges);
      ("heuristic.evictions", `I first.evictions);
      ("heuristic.weakenings", `I first.weakenings);
      ("heuristic.end_dedup", `I first.end_dedup);
      ("heuristic.nonminimal", `I first.nonminimal);
      ("heuristic.survivors", `I survivors);
      ("codec.encode_s", `F (med (fun p -> p.encode_s)));
      ("codec.checkpoint_bytes", `I first.ckpt_bytes);
      ("store.commit_s", `F (med (fun p -> List.fold_left ( +. ) 0. p.commit)));
      ("store.commit_p50_ms", `F (1e3 *. pct 0.5 commits));
      ("store.commit_p99_ms", `F (1e3 *. pct 0.99 commits));
      ("store.ref_bytes_max", `I first.ref_bytes_max);
      ("store.blobs", `I first.blobs);
      ("daemon.stream.pump_s", `F (med (fun p -> p.pump_s)));
      ("daemon.stream.checkpoint_s", `F (med (fun p -> p.stream_ckpt_s)));
      ("daemon.stream.checkpoints", `I first.stream_ckpts);
      ("daemon.stream.periods", `I first.stream_periods) ]
  in
  print_string "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then print_string ", ";
      match v with
      | `I n -> Printf.printf "%S: %d" k n
      | `F x -> Printf.printf "%S: %.9g" k x)
    fields;
  print_endline "}"

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "simulate"; "--tasks"; n; "--design-seed"; d; "--seed"; s; "--periods"; p; path ] ->
    cmd_simulate ~tasks:(int_of_string n) ~design_seed:(int_of_string d)
      ~seed:(int_of_string s) ~periods:(int_of_string p) path
  | [ "answers"; bound; path ] -> cmd_answers (int_of_string bound) path
  | [ "models"; path ] -> cmd_models path
  | "layers" :: "--bound" :: b :: "--every" :: c :: "--seconds" :: s
    :: "--store" :: dir :: (_ :: _ as paths) ->
    cmd_layers ~bound:(int_of_string b) ~every:(int_of_string c)
      ~seconds:(float_of_string s) ~store_dir:dir paths
  | _ ->
    prerr_endline
      "usage: probe simulate --tasks N --design-seed D --seed S --periods P \
       FILE | probe answers BOUND TRACE | probe models TRACE | probe layers \
       --bound B --every C --seconds S --store DIR TRACE...";
    exit 2
