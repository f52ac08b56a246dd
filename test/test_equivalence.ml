(* The learner's one equivalence property: every way of running it
   learns the same thing from the same trace text. Each case simulates
   a small random design, maybe corrupts it and parses it in recover
   mode, and runs every path DESIGN.md §12.2 lists. Every answer set
   must equal [Reference.run ~bound], with the same [learn.*] counters,
   periods and messages wherever published; every bound-1 model and
   fold must be byte-equal to the LUB of [Reference.run ~bound:1]; every
   path must keep the same quarantine account. Theorem 4's deviation is
   pinned in test_theorems, not asserted here. A failure prints the case
   and the path; [QCHECK_SEED=N] replays a run. *)

module Df = Rt_lattice.Depfun
module H = Rt_learn.Heuristic
module R = Rt_learn.Reference
module Eng = Rt_engine.Engine
module Session = Rt_shard.Session
module Stream = Rt_daemon.Stream
module Store = Rt_store.Store
module Slot = Rt_store.Slot
module T = Rt_trace.Trace
module Reg = Rt_obs.Registry
module Fault = Rt_util.Atomic_file.Fault

type case = {
  seed : int;                      (* design and simulation *)
  periods : int;
  corrupt : (float * int) option;  (* fault rate and seed *)
  bound : int;
  dice : int;  (* cut points, kill points, chunk sizes, pump budgets *)
}

let arb_case =
  let gen =
    QCheck.Gen.(
      map5
        (fun seed periods corrupt bound dice ->
           { seed; periods; corrupt; bound; dice })
        (int_range 0 199) (int_range 6 14)
        (opt ~ratio:0.33 (pair (oneofl [ 0.02; 0.05; 0.1 ]) nat))
        (oneofl [ 1; 2; 3; 8 ]) nat)
  in
  let print c =
    Printf.sprintf "seed %d, %d periods, corrupt %s, bound %d, dice %d"
      c.seed c.periods
      (match c.corrupt with
       | None -> "no"
       | Some (rate, seed) -> Printf.sprintf "(%g, %d)" rate seed)
      c.bound c.dice
  in
  QCheck.make ~print gen

let fail fmt = QCheck.Test.fail_reportf fmt

let agree what want got = if want <> got then fail "%s differs" what

let ok what = function Ok x -> x | Error m -> fail "%s: %s" what m

let strings = List.map Df.to_string

let lub = function [] -> None | hs -> Some (Df.lub hs)

let show = Option.map Df.to_string

(* What a path learned, as every path reports it. *)
let answer (s : Eng.snapshot) =
  (strings s.hypotheses, s.periods, s.messages, s.converged)

(* The [learn.*] counters a registry holds, but for the provenance
   ones, which the quarantine comparisons cover. *)
let learn_counters r =
  let json = Reg.to_json r in
  List.filter_map
    (fun (name, v) ->
       if String.starts_with ~prefix:"learn." name
       && not (String.starts_with ~prefix:"learn.periods_" name)
       then Option.map (fun n -> (name, n)) (Rt_obs.Json.to_int v)
       else None)
    (Option.value ~default:[]
       (Option.bind (Rt_obs.Json.member "counters" json) Rt_obs.Json.to_obj))

let rec rm_rf p =
  if Sys.is_directory p then (
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p)
  else Sys.remove p

let with_tmpdir f =
  let d = Filename.temp_file "rtgen_equiv" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let pool2 = lazy (Rt_util.Domain_pool.create ~jobs:2)

let law (c : case) =
  let sim =
    Test_support.simulate ~periods:c.periods ~seed:c.seed
      (Test_support.small_design c.seed)
  in
  let text, mode, eps =
    match c.corrupt with
    | None -> (Rt_trace.Trace_io.to_string sim, `Strict, None)
    | Some (rate, seed) ->
      let spec = { Rt_trace.Corrupt.default with rate; seed } in
      (Rt_trace.Corrupt.(to_string (apply spec sim)), `Recover, Some 60)
  in
  let trace, q =
    match Rt_trace.Trace_io.of_string ~mode ?eps text with
    | Ok tq -> tq
    | Error e -> fail "parse: line %d: %s" e.line e.message
  in
  let rng = Random.State.make [| c.dice |] in
  let pick n = Random.State.int rng n in
  let alg = Eng.Heuristic { bound = c.bound } in
  let periods = T.periods trace and ntasks = T.task_count trace in
  let names = Rt_task.Task_set.names trace.T.task_set in
  let oracle ps =
    R.run ~bound:c.bound (T.of_periods ~task_set:trace.T.task_set ps)
  in
  let r = oracle periods and r1 = R.run ~bound:1 trace in
  let nperiods = List.length periods and messages = T.total_messages trace in
  QCheck.assume (nperiods > 0);
  let want =
    (strings r.hypotheses, nperiods, messages, List.length r.hypotheses = 1)
  in
  let model1 = show (lub r1.hypotheses) in

  (* The batch core, and an engine with a snapshot at a random period:
     the snapshot is the prefix's answer set and leaves the run alone. *)
  let core_reg = Reg.create () in
  let core = H.run ~obs:core_reg ~bound:c.bound trace in
  agree "Heuristic.run" (strings r.hypotheses, r.stats)
    (strings core.hypotheses, core.stats);
  if learn_counters core_reg = [] then fail "no learn.* counters published";
  let at = pick nperiods in
  let reg = Reg.create () in
  let eng = Eng.create ~obs:reg ~ntasks alg in
  List.iteri
    (fun i p ->
       if i = at then
         agree "engine snapshot"
           (strings (oracle (List.filteri (fun j _ -> j < at) periods))
              .hypotheses)
           (strings (Eng.snapshot eng).hypotheses);
       Eng.feed eng p)
    periods;
  agree "engine" want (answer (Eng.finalize eng));
  let counters = learn_counters core_reg in
  agree "engine counters" counters (learn_counters reg);

  (* Sessions: unsharded, and round-robin shards, whose fold is the
     bound-1 model and dominates every shard's bounded LUB, and each of
     whose answer sets is the oracle's on the periods dealt to it. *)
  let session ?obs ?pool ?shards ?checkpoint () =
    Session.create ~mode ?eps ?obs ?pool ?shards ?checkpoint ~companion:true
      alg (Rt_trace.Stream_io.lines_of_string text)
  in
  let rec drain what st skipped =
    match Session.next st with
    | Ok (Some Session.Skipped) -> drain what st (skipped + 1)
    | Ok (Some Session.Fed) -> drain what st skipped
    | Ok None -> skipped
    | Error e -> fail "%s: line %d: %s" what e.line e.message
  in
  let finished what ~reg st =
    agree what (Some want) (Option.map answer (Session.finalize st));
    agree (what ^ " counters") counters (learn_counters reg);
    agree (what ^ " fold") model1 (show (Session.fold st));
    agree (what ^ " quarantine") q (Session.quarantine st)
  in
  let reg = Reg.create () in
  let st, _ = session ~obs:reg () in
  ignore (drain "session" st 0);
  finished "session" ~reg st;
  let finished_sharded what k st =
    let dealt =
      List.init k (fun i ->
          let mine = List.filteri (fun j _ -> j mod k = i) periods in
          strings (oracle mine).hypotheses)
    in
    let fold = Session.fold st in
    let shards = Array.to_list (Session.shards st) in
    agree what
      (model1, nperiods, messages, dealt)
      ( show fold,
        Session.periods_fed st,
        List.fold_left (fun n (s : Session.shard) -> n + s.messages) 0 shards,
        List.map (fun (s : Session.shard) -> strings s.hypotheses) shards );
    List.iter
      (fun (s : Session.shard) ->
         match (fold, lub s.hypotheses) with
         | Some m, Some l when not (Df.leq l m) ->
           fail "%s: a shard is not below the fold" what
         | _ -> ())
      shards;
    agree (what ^ " quarantine") q (Session.quarantine st)
  in
  List.iter
    (fun k ->
       List.iter
         (fun pool ->
            let what =
              Printf.sprintf "K=%d%s" k (if pool = None then "" else " pooled")
            in
            let st, _ = session ?pool ~shards:k () in
            ignore (drain what st 0);
            finished_sharded what k st)
         [ None; Some (Lazy.force pool2) ])
    [ 1; 2; 4; 8 ];

  (* Bound-1 engines over contiguous ranges: up to 3 random cut points. *)
  let cuts = List.init (pick 4) (fun _ -> pick (nperiods + 1)) in
  let engines =
    Array.init (List.length cuts + 1) (fun _ ->
        Eng.create ~ntasks (Eng.Heuristic { bound = 1 }))
  in
  List.iteri
    (fun j p ->
       let range = List.length (List.filter (fun cut -> cut <= j) cuts) in
       Eng.feed engines.(range) p)
    periods;
  agree "contiguous fold" model1 (show (Rt_shard.Shard.fold_engines engines));

  (* The daemon's stream: random line chunks, each maybe followed by a
     pump with a random budget, so input may close with lines still
     queued. *)
  (* both renderers end every line, the last included, with a newline *)
  let lines =
    String.split_on_char '\n' (String.sub text 0 (String.length text - 1))
  in
  let stream ?checkpoint every =
    Stream.create ~id:"equiv"
      { Stream.bound = c.bound; window = None; eps;
        queue_capacity = List.length lines + 1; checkpoint;
        checkpoint_every = every }
  in
  let pump what s budget =
    match Stream.pump s ~budget with
    | n, status when n > budget || (status = Stream.More && n <> budget) ->
      fail "%s: pump handled %d of %d" what n budget
    | _, Stream.Crashed m -> fail "%s: %s" what m
    | _, status -> status
  in
  let rendered =
    Option.map (fun m -> Df.to_string ~names m ^ "\n") (lub r.hypotheses)
  in
  let streamed what s =
    let rec offer = function
      | [] -> Stream.close_input s
      | ls ->
        let n = 1 + pick 12 in
        List.iteri
          (fun i l ->
             if i < n && Stream.offer_line s l <> `Ok then
               fail "%s: queue overflow" what)
          ls;
        if pick 2 = 0 && pump what s (1 + pick 3) = Stream.Done then
          fail "%s: done before end of input" what;
        offer (List.filteri (fun i _ -> i >= n) ls)
    in
    offer lines;
    while pump what s (1 + pick 4) <> Stream.Done do () done;
    agree what (Ok want)
      (Result.map (fun (snap, _) -> answer snap) (Stream.snapshot s));
    agree (what ^ " quarantine") q (Stream.quarantine s);
    agree (what ^ " model") rendered
      (Result.to_option
         (Result.map
            (fun (m, names) -> Df.to_string ?names m ^ "\n")
            (Stream.render_model s)))
  in
  streamed "stream" (fst (stream 1));

  with_tmpdir (fun dir ->
      (* A crash at a write. A checkpointed session, sharded or not, with
         a companion, dies at one write: nothing of it reaches the disk,
         or a prefix too short to complete a ledger line. The next run
         resumes from the last save that completed, [Fresh] only when
         none did, replay-skips exactly those periods and learns the
         reference answer. A run without a fault resumes from its last
         save, which may hold the whole trace. A save is one image: one
         write to a file slot, one blob write plus one ledger append to
         a ref slot, whatever the shard count. [QCHECK_LONG=1] faults
         every write in turn. *)
      let shards =
        if pick 2 = 0 then None else Some (List.nth [ 1; 2; 4; 8 ] (pick 4))
      in
      let every = 1 + pick 3 in
      let long =
        match Sys.getenv_opt "QCHECK_LONG" with
        | Some ("1" | "true") -> true
        | Some _ | None -> false
      in
      (* Each run its own tag, so no image is one an earlier run left in
         the store, whose blobs would then not be written again. *)
      let runs = ref 0 in
      List.iter
        (fun (name, slot, per_save) ->
           let what =
             Printf.sprintf "crash-resume, %s, %s" name
               (match shards with
                | None -> "unsharded"
                | Some k -> Printf.sprintf "K=%d" k)
           in
           (* Run to the end of input, or die at write [at], and resume;
              the saves the first run completed and the writes it made. *)
           let crash at =
             incr runs;
             let checkpoint =
               { Session.slot; tag = Printf.sprintf "equiv%d" !runs;
                 source = "equiv"; every }
             in
             let fault =
               if pick 2 = 0 then Fault.Fail else Fault.Prefix (pick 32)
             in
             let what =
               match (at, fault) with
               | None, _ -> what ^ ", no fault"
               | Some at, Fault.Fail ->
                 Printf.sprintf "%s, write %d failed" what at
               | Some at, Fault.Prefix k ->
                 Printf.sprintf "%s, write %d cut at %d" what at k
             in
             Fault.arm ~at:(Option.value at ~default:max_int) fault;
             let saved, saves, writes =
               Fun.protect ~finally:Fault.disarm (fun () ->
                   let st, _ = session ?shards ~checkpoint () in
                   (* The periods of the last save that completed. *)
                   let rec go saved saves =
                     match Session.next st with
                     | Ok None -> saved
                     | Ok (Some _) when Session.checkpoints_written st > saves
                       ->
                       go (Session.periods_fed st) (saves + 1)
                     | Ok (Some _) -> go saved saves
                     | Error e -> fail "%s: line %d: %s" what e.line e.message
                     | exception Sys_error _ -> saved
                   in
                   let saved = go 0 0 in
                   (saved, Session.checkpoints_written st, Fault.ops ()))
             in
             agree (what ^ ": saved") (saved > 0) (Slot.exists slot);
             let reg = Reg.create () in
             let second, resume =
               session ~obs:reg ?shards
                 ~checkpoint:{ checkpoint with every = max_int } ()
             in
             agree (what ^ ": resume")
               (if saved = 0 then Session.Fresh else Session.Resumed saved)
               resume;
             agree (what ^ ": replay-skip") saved (drain what second 0);
             (match shards with
              | None -> finished what ~reg second
              | Some k -> finished_sharded what k second);
             Session.discard second;
             agree (what ^ ": discard") false (Slot.exists slot);
             (saves, writes)
           in
           (* No fault first: the resume starts from the run's last save. *)
           let saves, writes = crash None in
           agree (what ^ ": writes per save") (per_save * saves) writes;
           List.iter
             (fun at -> ignore (crash (Some at)))
             (if writes = 0 then []
              else if long then List.init writes (fun n -> n + 1)
              else [ 1 + pick writes ]))
        [ ("file slot", Slot.File (Filename.concat dir "crash"), 1);
          ( "store slot",
            Slot.Ref
              (ok "store" (Store.init (Filename.concat dir "crashes")),
               "ckpt/session"),
            2 ) ];

      (* The daemon's stream, killed after [kill] fed periods: the slot
         holds the last multiple of [every], and the resumed stream
         replay-skips exactly those. *)
      List.iter
        (fun (name, slot) ->
           let kill = pick (nperiods + 1) in
           let saved = kill / every * every in
           let what = "stream kill-resume, " ^ name in
           let first, _ = stream ~checkpoint:slot every in
           List.iter (fun l -> ignore (Stream.offer_line first l)) lines;
           (* Open input holds the last period back. *)
           if kill = nperiods then Stream.close_input first;
           if kill > 0 then ignore (pump what first kill);
           agree (what ^ ": kill") (kill, saved > 0)
             (Stream.periods_fed first, Stream.checkpoints_written first > 0);
           let second, note = stream ~checkpoint:slot max_int in
           agree (what ^ ": resume") (None, saved)
             (note, Stream.periods_fed second);
           streamed what second)
        [ ("file slot", Slot.File (Filename.concat dir "ckpt"));
          ( "store slot",
            Slot.Ref
              (ok "store" (Store.init (Filename.concat dir "ckpts")),
               "ckpt/main") ) ];

      (* A fleet: a random partition over K in {2, 3, 4} learners at
         the case's bound, each committing its bound-1 companion to its
         own store; the merge reads them back and folds. An inconsistent
         part has no companion, and then the whole trace is
         inconsistent. *)
      let k = 2 + pick 3 in
      let pairs =
        Array.init k (fun _ -> Session.Pair.create ~ntasks ~companion:true alg)
      in
      List.iter (fun p -> Session.Pair.feed pairs.(pick k) p) periods;
      let parts = Array.map (fun p -> Option.get (Session.Pair.part p)) pairs in
      let what = Printf.sprintf "merge of %d stores" k in
      let read_back i (summary, violations) =
        let root = Filename.concat dir (Printf.sprintf "fleet%d" i) in
        let slot store = Slot.Ref (ok what store, "model/b1") in
        Slot.save ~kind:Store.Companion ~bound:1 (slot (Store.init root))
          (Rt_store.Codec.companion_to_blob ~names
             ~summary:(Option.get summary) ~violations ());
        let summary, violations, names' =
          ok what
            (Result.bind
               (Slot.load (slot (Store.open_ root)))
               Rt_store.Codec.companion_of_blob)
        in
        agree (what ^ ": names") names names';
        (Some summary, violations)
      in
      agree what model1
        (if Array.exists (fun (s, _) -> s = None) parts then None
         else
           show
             (Rt_shard.Shard.fold_summaries
                (Array.mapi read_back parts))));

  (* Bound 1: the general branching path against the closed form. *)
  let fed closed_form =
    let st = H.init ~closed_form ~bound:1 ~ntasks () in
    List.iter (H.feed st) periods;
    (strings (H.current st), H.stats st, H.counters st)
  in
  let ((hyps, stats, _) as general) = fed false in
  agree "bound 1, closed form" general (fed true);
  agree "bound 1, general path" (strings r1.hypotheses, r1.stats) (hyps, stats);
  true

let () =
  Alcotest.run "equivalence"
    [ ( "equivalence",
        [ Test_support.qcheck_case ~count:60 ~long_factor:20
            "every learn path = the reference oracle" arb_case law ] ) ]
