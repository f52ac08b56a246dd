(* rtgen — command-line front end: simulate black-box systems, learn
   dependency models from traces, analyze and export them.

   Exit codes (shared with rtlint, see Rt_check.Exit_code): 0 success,
   1 findings / violated properties, 2 unreadable or malformed input,
   3 internal error; cmdliner keeps 124 for command-line misuse. *)

open Cmdliner

module Ec = Rt_check.Exit_code
module Store = Rt_store.Store
module Codec = Rt_store.Codec
module Slot = Rt_store.Slot

(* Commands evaluate to their exit code (Cmd.eval'); every input
   failure goes through here so stderr phrasing and the exit code
   stay consistent. *)
let err msg =
  prerr_endline ("rtgen: " ^ msg);
  Ec.input_error

(* Load a whole trace for the commands that need it in memory; in
   recover mode the quarantine summary goes to stderr so stdout stays
   pipeable model output. *)
let read_trace ?(mode = `Strict) ?eps ?window ?(quiet = false) path =
  match Rt_trace.Trace_io.load ~mode ?eps ?window path with
  | Ok (t, q) ->
    if mode = `Recover && not quiet then
      prerr_endline (Rt_trace.Quarantine.summary q);
    Ok (t, q)
  | Error e ->
    Error (Printf.sprintf "%s: line %d: %s" path e.line e.message)
  | exception Sys_error m -> Error m

(* -j/--jobs for the rounds of [learn --shards]. [jobs <= 1] stays
   strictly sequential (no pool, no domains); learned results are
   identical either way — only wall-clock time may differ. *)
let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Rt_util.Domain_pool.create ~jobs in
    Fun.protect ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
      (fun () -> f (Some pool))
  end

(* --- simulate --- *)

let design_of_spec ~case_study ~tasks ~local_fraction ~seed =
  if case_study then (Rt_case.Gm_model.design (), Rt_case.Gm_model.names)
  else
    let layers = max 2 (tasks / 3) in
    let width = max 1 (tasks / layers) in
    let d =
      Rt_task.Generator.generate
        { Rt_task.Generator.default with
          layers; width_min = width; width_max = width + 1; local_fraction }
        ~seed
    in
    (d, Rt_task.Task_set.names (Rt_task.Design.task_set d))

(* End offset after [k] more lines of [text] starting at [off]. *)
let offset_after_lines text off k =
  let n = String.length text in
  let rec go off k =
    if k = 0 || off >= n then off
    else
      match String.index_from_opt text off '\n' with
      | None -> n
      | Some i -> go (i + 1) (k - 1)
  in
  go off k

(* `simulate --fleet N --spool DIR`: one trace per vehicle (seed+i), all
   written into the daemon's spool. With --trickle-lines the files grow
   round-robin, K lines at a time with a flush and a pause per sweep —
   N concurrently growing logs, which is what `rtgen serve` follows and
   what the chaos test SIGKILLs a daemon in the middle of. The final
   bytes are identical to a one-shot write, so reference models can be
   learned from the same files afterwards. *)
let simulate_fleet ~case_study ~tasks ~local_fraction ~seed ~periods
    ~drop_rate ~jitter_spike_rate ~glitch_rate ~fleet ~dir ~trickle_lines
    ~trickle_sleep =
  match Rt_util.Atomic_file.mkdir_p dir with
  | Error m -> err m
  | Ok () ->
  match
    Array.init fleet (fun i ->
        let seed = seed + i in
        let design, _ =
          design_of_spec ~case_study ~tasks ~local_fraction ~seed
        in
        let trace =
          Rt_sim.Simulator.run design
            { Rt_sim.Simulator.default_config with
              periods; seed; drop_rate; jitter_spike_rate; glitch_rate }
        in
        ( Printf.sprintf "vehicle%02d" i,
          Rt_trace.Trace_io.to_string trace ))
  with
  | exception Rt_sim.Simulator.Overrun { period; time } ->
    err (Printf.sprintf "design not schedulable: period %d overran at %dus"
           period time)
  | vehicles ->
    (match trickle_lines with
     | None ->
       Array.iter
         (fun (id, text) ->
           let path = Filename.concat dir (id ^ ".trace") in
           Rt_util.Atomic_file.write path text;
           Printf.eprintf "wrote %s\n" path)
         vehicles
     | Some k ->
       let n = Array.length vehicles in
       let ocs =
         Array.map
           (fun (id, _) ->
             (* rtlint: allow RTL007 trickle mode grows files in place so a tailing daemon sees partial traces *)
             open_out_bin (Filename.concat dir (id ^ ".trace")))
           vehicles
       in
       let offs = Array.make n 0 in
       let remaining = ref n in
       while !remaining > 0 do
         for i = 0 to n - 1 do
           let _, text = vehicles.(i) in
           let len = String.length text in
           if offs.(i) < len then begin
             let stop = offset_after_lines text offs.(i) k in
             output_substring ocs.(i) text offs.(i) (stop - offs.(i));
             flush ocs.(i);
             offs.(i) <- stop;
             if stop >= len then begin
               close_out ocs.(i);
               decr remaining
             end
           end
         done;
         if !remaining > 0 && trickle_sleep > 0.0 then Unix.sleepf trickle_sleep
       done;
       Printf.eprintf "trickled %d vehicle trace(s) into %s\n" n dir);
    Ec.ok

let simulate case_study tasks seed periods output dot drop_rate local_fraction
    jitter_spike_rate glitch_rate fleet spool trickle_lines trickle_sleep =
  match fleet with
  | Some n when n > 0 ->
    (match spool with
     | None -> err ("--fleet requires --spool DIR")
     | Some dir ->
       simulate_fleet ~case_study ~tasks ~local_fraction ~seed ~periods
         ~drop_rate ~jitter_spike_rate ~glitch_rate ~fleet:n ~dir
         ~trickle_lines ~trickle_sleep)
  | Some _ -> err ("--fleet must be positive")
  | None ->
    let design, _names =
      design_of_spec ~case_study ~tasks ~local_fraction ~seed
    in
    if dot then begin
      print_string (Rt_task.Design.to_dot design);
      Ec.ok
    end
    else
      match
        Rt_sim.Simulator.run design
          { Rt_sim.Simulator.default_config with
            periods; seed; drop_rate; jitter_spike_rate; glitch_rate }
      with
      | exception Rt_sim.Simulator.Overrun { period; time } ->
        err (Printf.sprintf "design not schedulable: period %d overran at %dus"
                  period time)
      | trace ->
        (match output with
         | None -> print_string (Rt_trace.Trace_io.to_string trace)
         | Some path ->
           Rt_trace.Trace_io.save path trace;
           Printf.eprintf "wrote %s (%s)\n" path
             (Format.asprintf "%a" Rt_trace.Trace.pp_summary trace));
        Ec.ok

(* --- learn --- *)

(* Open DIR, resolve [ref[@N|@latest]], read (and hash-verify) the
   blob: the one way every consumer dereferences a store address. *)
let resolve_blob dir spec =
  let ( let* ) = Result.bind in
  let* s = Store.open_ dir in
  let* e = Store.resolve s spec in
  let* blob = Store.read_blob s e.Store.address in
  Ok (e, blob)

(* What a learn checkpoint is bound to: the input file's bytes and the
   options that decide which periods reach the engine. Hashing streams
   the file, so the trace is never held in memory for this. *)
let input_tag ~mode ~eps ~window ic =
  let digest = Digest.channel ic (-1) in
  seek_in ic 0;
  Printf.sprintf "%s+%s+eps%d+w%s" (Digest.to_hex digest)
    (match mode with `Strict -> "strict" | `Recover -> "recover")
    eps
    (match window with Some w -> string_of_int w | None -> "-")

(* Write the registry's sinks. Atomic writes: a run killed mid-dump never
   leaves a truncated JSON document behind. The profiler sinks go to
   stderr / a side file so the model on stdout stays byte-identical to
   an unprofiled run. *)
let write_sinks ?(profile = false) ?folded ~metrics ~trace_events obs =
  match obs with
  | None -> ()
  | Some reg ->
    let dump path json =
      Rt_util.Atomic_file.write path (Rt_obs.Json.to_string ~pretty:true json);
      Printf.eprintf "wrote %s\n" path
    in
    Option.iter (fun p -> dump p (Rt_obs.Registry.to_json reg)) metrics;
    Option.iter (fun p -> dump p (Rt_obs.Registry.trace_events_json reg))
      trace_events;
    if profile then prerr_string (Rt_obs.Profile.hotspots reg);
    Option.iter
      (fun p ->
        Rt_util.Atomic_file.write p (Rt_obs.Profile.folded reg);
        Printf.eprintf "wrote %s\n" p)
      folded

let inconsistent_msg =
  "inconsistent trace: some message has no admissible \
   sender/receiver under the assumed model of computation"

let output_model ~names ~dot ~output lub =
  (match output with
   | Some file ->
     (* Atomic: byte-equality sweeps diff these files, so a killed run
        must never leave a truncated image behind. *)
     Rt_util.Atomic_file.write file
       (Rt_lattice.Depfun.to_string ~names lub ^ "\n");
     Printf.eprintf "wrote model to %s\n" file
   | None -> ());
  if dot then print_string (Rt_analysis.Dep_graph.to_dot ~names lub)
  else Format.printf "%s@." (Rt_lattice.Depfun.to_string ~names lub);
  Ec.ok

(* Commit a learned model to a content-addressed store: the bound-1
   companion parts (the pre-weaken fleet-merge interchange consumed by
   `rtgen merge`) under REF/b1 (REF/b1/<i> when sharded), optionally
   the full answer set under REF/answers, and the model itself under
   REF with the companion addresses as parents — so `store gc` keeps
   the interchange alive exactly as long as the model is referenced. *)
let store_commit s ~ref_ ~names ~bound ~source ~created_at ?answers
    ~(parts : (Rt_lattice.Depfun.t option * bool array array) array) model =
  let ( let* ) = Result.bind in
  let meta kind ~bound ~parents =
    { Store.kind; bound = Some bound; source = Some source; parents;
      created_at }
  in
  let companion_refs =
    match Array.to_list parts with
    | [ p ] -> [ (ref_ ^ "/b1", p) ]
    | ps -> List.mapi (fun i p -> (Printf.sprintf "%s/b1/%d" ref_ i, p)) ps
  in
  let* parents =
    List.fold_left
      (fun acc (r, (summary, violations)) ->
         let* acc = acc in
         match summary with
         | None -> Error (r ^ ": inconsistent part has no companion")
         | Some summary ->
           let blob = Codec.companion_to_blob ~names ~summary ~violations () in
           let* e = Store.commit s ~ref_:r ~meta:(meta Store.Companion ~bound:1 ~parents:[]) blob in
           Ok (e.Store.address :: acc))
      (Ok []) companion_refs
  in
  let parents = List.rev parents in
  let* () =
    match answers with
    | None | Some [] -> Ok ()
    | Some hs ->
      let* _ =
        Store.commit s ~ref_:(ref_ ^ "/answers")
          ~meta:(meta Store.Answerset ~bound ~parents:[])
          (Codec.answerset_to_blob ~names hs)
      in
      Ok ()
  in
  let* e =
    Store.commit s ~ref_ ~meta:(meta Store.Model ~bound ~parents)
      (Codec.model_to_blob ~names model)
  in
  Printf.eprintf "stored %s//%s@%d %s (%d companion part(s))\n"
    (Store.root s) ref_ e.Store.gen e.Store.address (List.length parents);
  Ok ()

(* Print (or save, or dot) the result, then commit it to the store:
   stdout and -o carry the model either way, and a store failure
   surfaces as an input error without un-printing anything ([learn]
   opened the store before learning, so only the commit can fail). A
   single engine's result is its answer set; a sharded one is the
   folded model, byte-identical for every shard count (per-shard
   accounting goes to stderr). *)
let finish_learn ~store ~store_ref ~bound ~source ~dot ~output ~names
    ~created_at ~parts ~answers result =
  let header, model =
    match result with
    | `Answers hs ->
      ( Printf.sprintf "%d most specific hypothesis(es); least upper bound:"
          (List.length hs),
        match hs with [] -> None | hs -> Some (Rt_lattice.Depfun.lub hs) )
    | `Folded model -> ("folded model (exact at bound 1):", model)
  in
  match model with
  | None -> err inconsistent_msg
  | Some model ->
    if not dot then Format.printf "%s@." header;
    let code = output_model ~names ~dot ~output model in
    match
      Option.map
        (fun s ->
           store_commit s ~ref_:store_ref ~names ~bound ~source ~created_at
             ?answers ~parts model)
        store
    with
    | Some (Error m) -> err ("store: " ^ m)
    | Some (Ok ()) | None -> code

(* Run [f] on the channel of [path], or on stdin for "-". *)
let with_input path f =
  match if path = "-" then stdin else open_in path with
  | exception Sys_error m -> err m
  | ic ->
    Fun.protect ~finally:(fun () -> if path <> "-" then close_in_noerr ic)
      (fun () -> f ic)

(* A flight recorder for [f] when [--flight FILE] asked for one, dumped
   (rtgen-flight JSON) to FILE at exit. *)
let with_flight flight_out f =
  let flight = Option.map (fun _ -> Rt_obs.Flight.create ()) flight_out in
  let code = f flight in
  (match (flight, flight_out) with
   | Some fl, Some p ->
     Rt_util.Atomic_file.write p
       (Rt_obs.Json.to_string ~pretty:true (Rt_obs.Flight.to_json fl));
     Printf.eprintf "wrote %s\n" p
   | _ -> ());
  code

(* The end of every learn that drained its input: the recover-mode
   account, the final snapshot, the sinks and the model. *)
let conclude ~mode ~shards ~write_sinks ~finish s =
  let module S = Rt_shard.Session in
  if mode = `Recover then
    prerr_endline (Rt_trace.Quarantine.summary (S.quarantine s));
  match S.finalize s with
  | None -> err "no usable periods after quarantine"
  | Some snap ->
    (* Success: the checkpoint has served its purpose. *)
    S.discard s;
    let result =
      match shards with
      | None -> `Answers snap.hypotheses
      | Some _ -> `Folded (S.fold s)
    in
    Array.iteri
      (fun i (r : S.shard) ->
         Printf.eprintf
           "shard %d: %d periods, %d messages, %d hypotheses, %.3fs\n"
           i r.periods r.messages (List.length r.hypotheses)
           (float_of_int r.feed_ns /. 1e9))
      (S.shards s);
    write_sinks ();
    finish ~names:(Option.get (S.names s)) ~created_at:(S.periods_fed s)
      ~parts:(S.parts s)
      ~answers:(if shards = None then Some snap.hypotheses else None)
      result

(* A learn without --auto: one streaming session over the file (or
   stdin, spelled "-") that holds one period in memory. With --shards
   the session deals periods round-robin to K engine pairs, runs each
   round of K on the worker pool, and folds the pairs at the end of
   input. *)
let learn_session ~exact ~shards ~bound ~window ~jobs ~obs ~flight ~mode ~eps
    ~progress ~ckpt ~every ~stop_after ~companion ~write_sinks ~finish path =
  let module S = Rt_shard.Session in
  let ckpt_path = Option.fold ~none:"" ~some:Slot.describe ckpt in
  (match (shards, obs) with
   | Some _, Some r -> Rt_obs.Registry.set_counter r "shard.jobs" jobs
   | _ -> ());
  with_input path @@ fun ic ->
  with_pool (if shards = None then 1 else jobs) @@ fun pool ->
  let checkpoint =
    Option.map
      (fun slot ->
         { S.slot; tag = input_tag ~mode ~eps ~window ic; source = path; every })
      ckpt
  in
  let s, resume =
    S.create ~mode ~eps ?window ?pool ?obs ~companion ?shards ?checkpoint
      (if exact then Rt_engine.Engine.Exact { limit = None }
       else Rt_engine.Engine.Heuristic { bound })
      (Input (input ic))
  in
  (* [stop_after] processes that many periods and exits — a
     deterministic stand-in for getting killed, used by the tests. *)
  let rec pump fed =
    match S.next s with
    | Error e -> Error (Printf.sprintf "%s: line %d: %s" path e.line e.message)
    | Ok None -> Ok `Done
    | Ok (Some S.Skipped) -> pump fed
    | Ok (Some S.Fed) ->
      (match progress with
       | Some n when S.periods_fed s mod n = 0 ->
         Printf.eprintf "progress: %d periods, %d hypotheses\n%!"
           (S.periods_fed s) (S.hypotheses s)
       | Some _ | None -> ());
      (match stop_after with
       | Some k when fed + 1 >= k -> Ok `Stopped
       | Some _ | None -> pump (fed + 1))
  in
  (match resume with
   | S.Resumed n ->
     Printf.eprintf "resumed %s: %d periods already processed\n" ckpt_path n
   | S.Corrupt m ->
     (* Integrity damage (torn write, flipped bit): the checkpoint is an
        optimization, not the data — relearn from scratch rather than die
        on a recovery aid, but never invisibly: operators watching a
        fleet need to know recovery aids are dying. *)
     Printf.eprintf
       "warning: %s; starting fresh (the corrupt checkpoint will be \
        overwritten)\n" m;
     Option.iter
       (fun r ->
          Rt_obs.Registry.incr (Rt_obs.Registry.counter r "checkpoint.corrupt"))
       obs;
     Option.iter
       (fun f ->
          Rt_obs.Flight.record f Rt_obs.Flight.Warn ~stream:ckpt_path
            ~kind:"checkpoint.corrupt" (m ^ "; starting fresh"))
       flight
   | S.Fresh | S.Foreign _ -> ());
  match resume with
  | S.Foreign _ ->
    (* It parsed fine, so it points at operator error: refuse. *)
    err (Printf.sprintf
           "%s was checkpointed against a different trace; delete it to \
            start over" ckpt_path)
  | S.Fresh | S.Resumed _ | S.Corrupt _ ->
    match pump 0 with
    | exception Sys_error m -> err m
    | exception Rt_learn.Exact.Blowup { set_size; limit; _ } ->
      err (Printf.sprintf
             "exact version space exceeded %d (limit %d); use the \
              heuristic (--bound) or a candidate --window" set_size limit)
    | Error m -> err m
    | Ok `Stopped ->
      S.save s;
      S.publish s;
      write_sinks ();
      Printf.eprintf "stopped after %d periods (checkpoint in %s)\n"
        (S.periods_fed s) ckpt_path;
      Ec.ok
    | Ok `Done -> conclude ~mode ~shards ~write_sinks ~finish s

(* --auto: one session per bound, each over the file reopened
   (Rt_shard.Auto); the selected pass ends like every other learn. *)
let learn_auto ~window ~obs ~mode ~eps ~write_sinks ~finish path =
  let ic = ref None in
  let close () = Option.iter close_in_noerr !ic in
  let open_ () =
    close ();
    let c = open_in path in
    ic := Some c;
    Rt_trace.Stream_io.Input (input c)
  in
  Fun.protect ~finally:close @@ fun () ->
  match Rt_shard.Auto.search ~mode ~eps ?window ?obs open_ with
  | exception Sys_error m -> err m
  | Error e -> err (Printf.sprintf "%s: line %d: %s" path e.line e.message)
  | Ok o ->
    (* Without a period there is no search to report, only the error. *)
    if Option.is_some o.snapshot then begin
      Format.printf "auto bound search:@.";
      List.iter (fun (s : Rt_shard.Auto.step) ->
          Format.printf "  bound %d: %d hypothesis(es), lub %s, %.3fs@."
            s.bound s.hypotheses
            (if s.lub_changed then "changed" else "stable")
            s.elapsed_s)
        o.trajectory;
      Format.printf "selected bound %d@." o.bound
    end;
    conclude ~mode ~shards:None ~write_sinks:(write_sinks o.obs) ~finish
      o.session

let learn path exact auto stream shards bound window jobs dot output mode eps
    checkpoint every stop_after store store_ref flight_out metrics
    trace_events profile folded progress =
  (* A registry per learn pass, when a sink wants one. *)
  let new_obs =
    if metrics <> None || trace_events <> None || profile || folded <> None
    then Some (fun () -> Rt_obs.Registry.create ())
    else None
  in
  let write_sinks obs () =
    write_sinks ~profile ?folded ~metrics ~trace_events obs
  in
  let conflict =
    if stream && checkpoint <> None then
      Some "--stream cannot be combined with --checkpoint"
    else if stream && auto then
      Some "--auto reads the input once per bound; drop --stream"
    else if auto && exact then
      Some "--auto searches for a heuristic bound; drop --exact"
    else if shards <> None && exact then
      Some "sharded learning runs the bounded heuristic; drop --exact"
    else if shards <> None && auto then
      Some "--auto searches for a heuristic bound; drop --shards"
    else if store <> None && exact then
      Some "the store interchange is the heuristic's bound-1 companion; \
            drop --exact"
    else if store <> None && auto then
      Some "--auto learns at several bounds; pick one bound to commit \
            with --store"
    else if checkpoint <> None && exact then
      Some "--checkpoint requires the heuristic algorithm (drop --exact)"
    else if checkpoint <> None && path = "-" then
      Some "--checkpoint needs a trace file to resume against, not stdin"
    else if stop_after <> None && checkpoint = None then
      Some "--stop-after leaves a checkpoint to resume from; add --checkpoint"
    else if auto && checkpoint <> None then
      Some "--auto learns at several bounds and writes no checkpoint; drop \
            --checkpoint"
    else if auto && path = "-" then
      Some "--auto reads the input once per bound and needs a trace file, \
            not stdin"
    else if auto && progress <> None then
      Some "--auto reports each bound it tries, not periods; drop --progress"
    else None
  in
  (* The recorder catches checkpoint-corruption notices. *)
  with_flight flight_out @@ fun flight ->
  match conflict with
  | Some m -> err m
  | None ->
    match Option.map Slot.of_string checkpoint with
    | Some (Error m) -> err m
    | ckpt ->
    (* Open the store before learning, so a bad --store fails first. *)
    match Option.map Store.init store with
    | Some (Error m) -> err ("store: " ^ m)
    | opened ->
      let ckpt = Option.map Result.get_ok ckpt in
      let finish =
        finish_learn ~store:(Option.map Result.get_ok opened) ~store_ref
          ~bound ~source:path ~dot ~output
      in
      if auto then
        learn_auto ~window ~obs:new_obs ~mode ~eps ~write_sinks ~finish path
      else
        let obs = Option.map (fun f -> f ()) new_obs in
        learn_session ~exact ~shards ~bound ~window ~jobs ~obs ~flight ~mode
          ~eps ~progress ~ckpt ~every ~stop_after ~companion:(store <> None)
          ~write_sinks:(write_sinks obs) ~finish path

(* --- watch --- *)

(* Follow a (possibly growing) trace source and keep the model current:
   print the LUB whenever it changes, and call out drift — a previously
   converged answer set invalidated by new evidence. *)
let watch path bound window mode eps poll follow max_periods flight_out =
  let module S = Rt_shard.Session in
  let module Df = Rt_lattice.Depfun in
  let stop = ref false in
  (* One recorder for the whole session: drift notices and the tail's
     rotation/truncation absorptions land in it, dumped at exit. *)
  with_flight flight_out @@ fun flight ->
  let record sev kind detail =
    Option.iter (fun f -> Rt_obs.Flight.record f sev ~stream:path ~kind detail)
      flight
  in
  (* Print the model whenever its LUB changes after a fed period. *)
  let report s (prev_lub, was_converged) =
    let snap = Option.get (S.snapshot s) in
    if not (Option.equal Df.equal prev_lub snap.lub) then begin
      if was_converged then begin
        let drift =
          Printf.sprintf "previously converged model invalidated at period %d"
            snap.periods
        in
        record Rt_obs.Flight.Warn "watch.drift" drift;
        Format.printf "drift: %s@." drift
      end;
      Format.printf "period %d: %d hypothesis(es)%s@." snap.periods
        (List.length snap.hypotheses)
        (if snap.converged then ", converged" else "");
      (match snap.lub with
       | Some lub ->
         Format.printf "%s@." (Df.to_string ~names:(Option.get (S.names s)) lub)
       | None -> Format.printf "inconsistent trace: empty answer set@.")
    end;
    Format.print_flush ();
    (snap.lub, snap.converged)
  in
  let run src =
    let s, _ = S.create ~mode ~eps ?window (Rt_engine.Engine.Heuristic { bound }) src in
    (* Each period recover mode drops is noted once, in trace order,
       before the model of any later period. *)
    let drops = ref 0 in
    let note_drops () =
      List.iter
        (fun (d : Rt_trace.Quarantine.period_drop) ->
           incr drops;
           Printf.eprintf "period %d dropped: %s\n%!" d.period_index d.reason)
        (S.dropped_since s !drops)
    in
    let rec loop last =
      let step = S.next s in
      note_drops ();
      match step with
      | Error e -> err (Printf.sprintf "%s: line %d: %s" path e.line e.message)
      | Ok None -> Ec.ok
      | Ok (Some step) ->
        let last =
          match step with
          | S.Fed -> report s last
          | S.Skipped -> last
        in
        (match max_periods with
         | Some k when S.periods_fed s >= k ->
           stop := true;
           Ec.ok
         | Some _ | None -> loop last)
    in
    loop (None, false)
  in
  if follow && path <> "-" then
    (* Path-tracking follower: survives log rotation (rename + recreate)
       and copytruncate shrinks, and waits for a not-yet-created file
       instead of failing — a watch session outlives the logger's
       housekeeping. *)
    run
      (Lines (Rt_trace.Stream_io.follow_path ~poll_interval:poll
         ~on_event:(fun ev ->
           match ev with
           | Rt_trace.Stream_io.Tail.Rotated ->
             record Rt_obs.Flight.Warn "tail.rotated"
               "followed file replaced; continuing on the new file"
           | Rt_trace.Stream_io.Tail.Truncated ->
             record Rt_obs.Flight.Warn "tail.truncated"
               "followed file shrank; continuing from the new end"
           | Rt_trace.Stream_io.Tail.Opened ->
             record Rt_obs.Flight.Info "tail.opened" "followed file opened"
           | _ -> ())
         ~stop:(fun () -> !stop) path))
  else
    with_input path @@ fun ic ->
    run
      (Input
         (if follow then
            Rt_trace.Stream_io.follow_input ~poll_interval:poll
              ~stop:(fun () -> !stop) ic
          else input ic))

(* --- analyze --- *)

let analyze path bound window mode eps =
  match read_trace ~mode ~eps ?window path with
  | Error m -> err (m)
  | Ok (trace, _) when Rt_trace.Trace.period_count trace = 0 ->
    err ("no usable periods after quarantine")
  | Ok (trace, q) ->
    let names = Rt_task.Task_set.names trace.task_set in
    if mode = `Recover then begin
      Format.printf "== ingestion ==@.%s@." (Rt_trace.Quarantine.summary q);
      let c = Rt_trace.Quarantine.confidence q in
      if c < 1.0 then
        Format.printf
          "warning: model evidence degraded to %.0f%% — %d period(s) \
           repaired, %d dropped@."
          (100.0 *. c) (List.length q.repaired) (List.length q.dropped)
    end;
    (match (Rt_learn.Heuristic.run ?window ~bound trace).hypotheses with
     | [] -> err ("inconsistent trace")
     | hs ->
       let model = Rt_lattice.Depfun.lub hs in
       Format.printf "== dependency relations ==@.%s@."
         (Rt_analysis.Dep_graph.summary ~names model);
       Format.printf "== node classification ==@.";
       List.iter (fun info ->
           Format.printf "%a@." (Rt_analysis.Classify.pp_info ~names) info)
         (Rt_analysis.Classify.classify model);
       let n = Rt_lattice.Depfun.size model in
       if n <= 24 then
         Format.printf "== state space ==@.%d of %d period outcomes consistent (%.1fx reduction)@."
           (Rt_analysis.Reachability.count_consistent model)
           (Rt_analysis.Reachability.total_states n)
           (Rt_analysis.Reachability.reduction model);
       Format.printf "== operation modes ==@.";
       List.iter (fun cls ->
           if List.length cls > 1 then
             Format.printf "always together: {%s}@."
               (String.concat " " (List.map (fun i -> names.(i)) cls)))
         (Rt_analysis.Modes.co_execution_classes model);
       List.iter (fun (a, b) ->
           Format.printf "mutually exclusive: %s vs %s@." names.(a) names.(b))
         (Rt_analysis.Modes.exclusive_pairs trace);
       Ec.ok)

(* --- stats / vcd --- *)

let stats path recover eps =
  let mode = if recover then `Recover else `Strict in
  match read_trace ~mode ~eps ~quiet:true path with
  | Error m -> err (m)
  | Ok (trace, q) ->
    print_endline (Rt_trace.Stats.to_string trace);
    (* With --recover the quarantine account is part of the statistics,
       so it goes to stdout, unlike the learn/analyze stderr summary. *)
    if recover then begin
      print_endline "== quarantine ==";
      print_endline (Rt_trace.Quarantine.summary q);
      Printf.printf "confidence: %.0f%%\n"
        (100.0 *. Rt_trace.Quarantine.confidence q)
    end;
    Ec.ok

(* --- report --- *)

let render_metrics ~source content =
  match Rt_obs.Json.of_string content with
  | Error m -> err (Printf.sprintf "%s: %s" source m)
  | Ok json ->
    (match Rt_obs.Report.render json with
     | Error m -> err (Printf.sprintf "%s: %s" source m)
     | Ok rendered -> print_string rendered; Ec.ok)

(* One request/response exchange against a live daemon's control
   socket (the rtgend protocol: request line in, response until EOF). *)
let control_roundtrip sock req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX sock);
       let msg = Bytes.of_string (req ^ "\n") in
       let rec send off =
         if off < Bytes.length msg then
           send (off + Unix.write fd msg off (Bytes.length msg - off))
       in
       send 0;
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 4096 in
       let rec drain () =
         match Unix.read fd chunk 0 4096 with
         | 0 -> ()
         | n ->
           Buffer.add_subbytes buf chunk 0 n;
           drain ()
       in
       drain ();
       Buffer.contents buf)

let render_prometheus ~source content =
  match Rt_obs.Json.of_string content with
  | Error m -> err (Printf.sprintf "%s: %s" source m)
  | Ok json ->
    (match Rt_obs.Prom.render json with
     | Error m -> err (Printf.sprintf "%s: %s" source m)
     | Ok rendered -> print_string rendered; Ec.ok)

let report path socket query prometheus =
  if prometheus && query <> "metrics" then
    err ("--prometheus already implies a query; drop --query")
  else
    match socket with
    | Some sock ->
      let query = if prometheus then "prometheus" else query in
      (match control_roundtrip sock query with
       | exception Unix.Unix_error (e, _, _) ->
         err (Printf.sprintf "%s: %s" sock (Unix.error_message e))
       | resp ->
         if query = "metrics" then render_metrics ~source:sock resp
         else begin
           print_string resp;
           if String.length resp >= 6 && String.sub resp 0 6 = "error:" then
             err ("daemon refused the request")
           else Ec.ok
         end)
    | None ->
      (match path with
       | None -> err ("need a METRICS file argument or --socket PATH")
       | Some path ->
         (match Rt_util.Atomic_file.read path with
          | exception Sys_error m -> err (m)
          | content ->
            if prometheus then render_prometheus ~source:path content
            else render_metrics ~source:path content))

(* --- top --- *)

(* Live fleet telemetry: poll the daemon's status over the control
   socket and redraw a compact per-stream table. Plain ANSI clear — no
   terminal library — so it works in CI logs (--no-clear) too. *)
let top socket interval count no_clear =
  let kv_of tokens =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      tokens
  in
  let field kvs key = Option.value ~default:"-" (List.assoc_opt key kvs) in
  let render resp =
    let lines = String.split_on_char '\n' resp in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "%-16s %-11s %9s %6s %9s %6s %5s %9s\n" "STREAM" "PHASE"
         "PERIODS" "HYPS" "RESTARTS" "QUEUE" "SHED" "CKPT-AGE");
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | "stream" :: id :: rest ->
          let kvs = kv_of rest in
          Buffer.add_string b
            (Printf.sprintf "%-16s %-11s %9s %6s %9s %6s %5s %9s\n" id
               (field kvs "phase") (field kvs "periods")
               (field kvs "hypotheses") (field kvs "restarts")
               (field kvs "queue") (field kvs "shed") (field kvs "ckpt_age"))
        | "totals" :: rest ->
          let kvs = kv_of rest in
          Buffer.add_string b
            (Printf.sprintf
               "\n\
                totals: %s accepted, %s active, %s finalized, %s failed, %s \
                shed, %s busy, %s restarts, %s periods\n"
               (field kvs "accepted") (field kvs "active")
               (field kvs "finalized") (field kvs "failed") (field kvs "shed")
               (field kvs "busy") (field kvs "restarts") (field kvs "periods"))
        | _ -> ())
      lines;
    Buffer.contents b
  in
  let rec loop remaining =
    match control_roundtrip socket "status" with
    | exception Unix.Unix_error (e, _, _) ->
      err (Printf.sprintf "%s: %s" socket (Unix.error_message e))
    | resp ->
      if String.length resp >= 6 && String.sub resp 0 6 = "error:" then begin
        print_string resp;
        err ("daemon refused the request")
      end
      else begin
        if not no_clear then print_string "\027[2J\027[H";
        print_string (render resp);
        flush stdout;
        match remaining with
        | Some n when n <= 1 -> Ec.ok
        | _ ->
          Unix.sleepf interval;
          loop (Option.map (fun n -> n - 1) remaining)
      end
  in
  loop count

(* --- serve --- *)

let serve spool listen control out_dir checkpoint_dir store checkpoint_every
    bound window eps _jobs max_streams queue_capacity tick max_restarts backoff
    backoff_cap idle_timeout metrics flight flight_capacity stop_after_total
    drain_after_total =
  let policy =
    {
      Rt_daemon.Supervisor.max_restarts;
      backoff_base = backoff;
      backoff_cap;
      idle_timeout =
        (match idle_timeout with Some s -> s | None -> infinity);
    }
  in
  let cfg =
    {
      Rt_daemon.Daemon.default with
      spool;
      listen;
      control;
      out_dir;
      checkpoint_dir;
      store;
      checkpoint_every;
      bound;
      window;
      eps = Some eps;
      max_streams;
      queue_capacity;
      tick;
      policy;
      metrics_path = metrics;
      flight_capacity;
      flight_path = flight;
      stop_after_total;
      drain_after_total;
    }
  in
  match Rt_daemon.Daemon.run cfg with
  | Ok _ -> Ec.ok
  | Error m -> err (m)

let vcd path import period_len output =
  if import then
    match Rt_trace.Vcd.load ?period_len path with
    | Error { line = 0; message } -> err (Printf.sprintf "%s: %s" path message)
    | Error (e : Rt_trace.Vcd.parse_error) ->
      err (Printf.sprintf "%s: line %d: %s" path e.line e.message)
    | exception Sys_error m -> err (m)
    | Ok (trace, used_len) ->
      (match output with
       | None -> print_string (Rt_trace.Trace_io.to_string trace)
       | Some file ->
         Rt_trace.Trace_io.save file trace;
         Printf.eprintf "wrote %s (period length %dus)\n" file used_len);
      Ec.ok
  else
    match read_trace path with
    | Error m -> err (m)
    | Ok (trace, _) ->
      (match output with
       | None -> print_string (Rt_trace.Vcd.to_string ?period_len trace)
       | Some file -> Rt_trace.Vcd.save ?period_len file trace);
      Ec.ok

(* --- inject --- *)

let inject path kinds rate eps seed torn_at output =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    if rate < 0.0 || rate > 1.0 then
      err ("--rate must be in [0, 1]")
    else if (match torn_at with Some n -> n < 0 | None -> false) then
      err ("--torn-at must be a non-negative byte offset")
    else begin
      let spec = { Rt_trace.Corrupt.kinds; rate; eps; seed } in
      let raw = Rt_trace.Corrupt.apply spec trace in
      match torn_at with
      | Some at ->
        (* torn-write mode: cut the rendered trace mid-line/mid-frame,
           emulating a writer killed with a partially flushed buffer *)
        let torn = Rt_trace.Corrupt.torn_write ~at (Rt_trace.Corrupt.to_string raw) in
        (match output with
         | None -> print_string torn
         | Some file ->
           Rt_util.Atomic_file.write file torn;
           Printf.eprintf "wrote %s (torn at byte %d of %d)\n" file
             (String.length torn)
             (String.length (Rt_trace.Corrupt.to_string raw)));
        Ec.ok
      | None ->
        (match output with
         | None -> print_string (Rt_trace.Corrupt.to_string raw)
         | Some file ->
           Rt_trace.Corrupt.save file raw;
           Printf.eprintf "wrote %s (%d periods corrupted with seed %d)\n"
             file (List.length raw.raw_periods) seed);
        Ec.ok
    end

(* --- anonymize --- *)

let anonymize path output =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    let anon, mapping = Rt_trace.Anonymize.anonymize trace in
    (match output with
     | None -> print_string (Rt_trace.Trace_io.to_string anon)
     | Some file ->
       Rt_trace.Trace_io.save file anon;
       Printf.eprintf "wrote %s\n" file);
    List.iter (fun (original, hidden) ->
        Printf.eprintf "%s -> %s\n" original hidden)
      mapping.Rt_trace.Anonymize.task_names;
    Ec.ok

(* --- gantt --- *)

let gantt path period output =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    (match List.nth_opt (Rt_trace.Trace.periods trace) period with
     | None -> err (Printf.sprintf "no period %d in the trace" period)
     | Some pd ->
       (match output with
        | None -> print_string (Rt_trace.Gantt.to_svg pd)
        | Some file -> Rt_trace.Gantt.save file pd);
       Ec.ok)

(* --- query (was `check` before the model auditor took that name) --- *)

let run_query path query bound window model_file =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    (match Rt_analysis.Query.parse query with
     | Error m -> err ("query: " ^ m)
     | Ok q ->
       let model_result =
         match model_file with
         | Some file ->
           (* Reuse a model saved by `learn -o` — or committed to a
              store ([DIR//ref@N]) — instead of re-learning. *)
           (match Store.split_address file with
            | Some (dir, spec) ->
              (match
                 Result.bind (resolve_blob dir spec) (fun (_, blob) ->
                     Codec.model_of_blob blob)
               with
               | Ok (model, names) -> Ok (model, names)
               | Error m -> Error (file ^ ": " ^ m))
            | None ->
              (match
                 Rt_lattice.Depfun.parse (Rt_util.Atomic_file.read file)
               with
               | Ok (model, names) -> Ok (model, names)
               | Error m -> Error (file ^ ": " ^ m)
               | exception Sys_error m -> Error m))
         | None ->
           (match (Rt_learn.Heuristic.run ?window ~bound trace).hypotheses with
            | [] -> Error "inconsistent trace"
            | hs ->
              Ok (Rt_lattice.Depfun.lub hs,
                  Rt_task.Task_set.names trace.task_set))
       in
       (match model_result with
        | Error m -> err (m)
        | Ok (model, names) ->
          (match Rt_analysis.Query.eval ~model ~names ~trace q with
           | Error m -> err (m)
           | Ok verdicts ->
             let all = List.for_all (fun v -> v.Rt_analysis.Query.holds) verdicts in
             List.iter (fun (v : Rt_analysis.Query.verdict) ->
                 Format.printf "%s  %s  (%s)@."
                   (if v.holds then "[ok]  " else "[FAIL]")
                   (Rt_analysis.Query.clause_to_string v.clause)
                   v.detail)
               verdicts;
             if all then Ec.ok
             else begin
               prerr_endline "rtgen: property violated";
               Ec.findings
             end)))

(* --- check: static audit of learned artifacts --- *)

(* A MODEL argument is a file saved by `learn -o`, or a store address
   [DIR//ref[@N]] naming a model, companion or answer-set blob (an
   answer set expands into one model per member). *)
let load_model_spec path =
  let module Mc = Rt_check.Model_check in
  match Store.split_address path with
  | None -> Result.map (fun m -> [ m ]) (Mc.load_model path)
  | Some (dir, spec) ->
    let ( let* ) = Result.bind in
    let* _, blob = resolve_blob dir spec in
    (match Codec.kind_of_blob blob with
     | Some Store.Model ->
       let* d, names = Codec.model_of_blob blob in
       Ok [ Mc.model_of_depfun ~source:path ~names d ]
     | Some Store.Companion ->
       let* decoded = Codec.companion_of_blob blob in
       let d, _, names = decoded in
       Ok [ Mc.model_of_depfun ~source:path ~names d ]
     | Some Store.Answerset ->
       let* ms = Codec.answerset_of_blob blob in
       Ok
         (List.mapi
            (fun i (d, names) ->
               Mc.model_of_depfun
                 ~source:(Printf.sprintf "%s#%d" path i) ~names d)
            ms)
     | Some Store.Checkpoint ->
       Error (path ^ ": checkpoint blob; audit it with --checkpoint")
     | None -> Error (path ^ ": unrecognized blob format"))

let model_check models ckpt trace_file format output strict =
  let module Mc = Rt_check.Model_check in
  let module F = Rt_check.Finding in
  if models = [] && ckpt = None then
    err "nothing to check: give MODEL files and/or --checkpoint"
  else begin
    let input_errors = ref [] in
    let bad_input m = input_errors := m :: !input_errors in
    let loaded =
      List.concat_map (fun path ->
          match load_model_spec path with
          | Ok ms -> ms
          | Error m -> bad_input m; [])
        models
    in
    (* The lattice-law self-check is cheap (7^3 triples) and silent on a
       healthy build, so every audit includes it. *)
    let findings = ref (Mc.check_laws ()) in
    let add fs = findings := !findings @ fs in
    List.iter (fun m -> add (Mc.check_model m)) loaded;
    if List.length loaded > 1 then add (Mc.check_answer_set loaded);
    (match trace_file with
     | None -> ()
     | Some tf ->
       (match read_trace ~quiet:true tf with
        | Error m -> bad_input m
        | Ok (trace, _) ->
          List.iter (fun m -> add (Mc.check_against_trace m trace)) loaded));
    (match ckpt with
     | None -> ()
     | Some path ->
       let data =
         match Store.split_address path with
         | None ->
           (match Rt_util.Atomic_file.read path with
            | data -> Ok data
            | exception Sys_error m -> Error m)
         | Some (dir, spec) ->
           Result.map snd (resolve_blob dir spec)
       in
       (match data with
        | Error m -> bad_input m
        | Ok data ->
          (match Mc.check_checkpoint ~source:path data with
           | Ok fs -> add fs
           | Error (m, f) -> bad_input m; add [ f ])));
    let fs =
      if strict then
        List.map (fun (f : F.t) ->
            if f.severity = F.Warning then { f with severity = F.Error }
            else f)
          !findings
      else !findings
    in
    print_string (F.render ~tool:"rtgen check" ~format fs);
    Option.iter (fun file ->
        Rt_util.Atomic_file.write file
          (F.render ~tool:"rtgen check" ~format:F.Sarif fs);
        Printf.eprintf "wrote %s\n" file)
      output;
    match List.rev !input_errors with
    | [] -> F.exit_code fs
    | es ->
      List.iter (fun m -> ignore (err m)) es;
      Ec.combine Ec.input_error (F.exit_code fs)
  end

(* --- merge: the cross-process half of sharding --- *)

(* Fold the bound-1 companion parts published in K stores into one
   fleet model. Each store contributes the latest generation of every
   Companion-kind ref (narrowed to REF/b1* by --ref); the fold is the
   same exchange law as --shards, so over stores produced from a
   partition of one trace's periods the result is byte-equal to the
   monolithic bound-1 model, whatever the partition shape. *)
let merge stores ref_filter dot output out_store out_ref =
  let ( let* ) = Result.bind in
  let collect dir =
    let* s = Store.open_ dir in
    let keep r =
      match ref_filter with
      | None -> true
      | Some base ->
        let p = base ^ "/b1" in
        r = p
        || (String.length r > String.length p + 1
            && String.sub r 0 (String.length p + 1) = p ^ "/")
    in
    List.fold_left
      (fun acc r ->
         let* acc = acc in
         let* e = Store.resolve s r in
         if e.Store.meta.Store.kind <> Store.Companion then Ok acc
         else
           let* blob = Store.read_blob s e.Store.address in
           let* decoded = Codec.companion_of_blob blob in
           let summary, violations, names = decoded in
           Ok
             ((Printf.sprintf "%s//%s@%d" dir r e.Store.gen,
               e.Store.address, e.Store.meta.Store.created_at,
               summary, violations, names)
              :: acc))
      (Ok [])
      (List.filter keep (Store.refs s))
    |> Result.map List.rev
  in
  match
    List.fold_left
      (fun acc dir ->
         let* acc = acc in
         let* ps = collect dir in
         Ok (acc @ ps))
      (Ok []) stores
  with
  | Error m -> err m
  | Ok [] -> err "no companion parts found in the given store(s)"
  | Ok ((_, _, _, _, _, names) :: _ as all) ->
    if List.exists (fun (_, _, _, _, _, ns) -> ns <> names) all then
      err "the stores' companion parts disagree on the task set"
    else begin
      List.iter
        (fun (label, _, created, _, _, _) ->
           Printf.eprintf "merging %s (%d periods)\n" label created)
        all;
      let parts =
        Array.of_list (List.map (fun (_, _, _, s, v, _) -> (Some s, v)) all)
      in
      match Rt_shard.Shard.fold_summaries parts with
      | None -> err inconsistent_msg
      | Some model ->
        if not dot then
          Format.printf "fleet model (%d part(s) from %d store(s)):@."
            (Array.length parts) (List.length stores);
        let code = output_model ~names ~dot ~output model in
        match out_store with
        | Some dir when code = Ec.ok ->
          (match
             let* s = Store.init dir in
             let meta =
               { Store.kind = Store.Model; bound = Some 1;
                 source = Some "merge";
                 parents = List.map (fun (_, a, _, _, _, _) -> a) all;
                 created_at =
                   List.fold_left (fun a (_, _, c, _, _, _) -> a + c) 0 all }
             in
             let* e =
               Store.commit s ~ref_:out_ref ~meta
                 (Codec.model_to_blob ~names model)
             in
             Printf.eprintf "stored %s//%s@%d %s\n" (Store.root s) out_ref
               e.Store.gen e.Store.address;
             Ok ()
           with
           | Ok () -> code
           | Error m -> err ("store: " ^ m))
        | Some _ | None -> code
    end

(* --- store: plumbing over the content-addressed store --- *)

let entry_line (e : Store.entry) =
  let m = e.Store.meta in
  Printf.sprintf "gen %d %s kind=%s created=%d%s%s%s" e.Store.gen
    e.Store.address
    (Store.kind_to_string m.Store.kind)
    m.Store.created_at
    (match m.Store.bound with
     | Some b -> Printf.sprintf " bound=%d" b
     | None -> "")
    (match m.Store.parents with
     | [] -> ""
     | ps -> " parents=" ^ String.concat "," ps)
    (match m.Store.source with Some s -> " source=" ^ s | None -> "")

let cmd_store_init dir =
  match Store.init dir with
  | Ok s -> Printf.eprintf "initialized %s\n" (Store.root s); Ec.ok
  | Error m -> err m

let cmd_store_refs dir =
  match Store.open_ dir with
  | Error m -> err m
  | Ok s ->
    let bad = ref None in
    List.iter
      (fun r ->
         match Store.resolve s r with
         | Ok e ->
           Format.printf "%s @%d %s %s@." r e.Store.gen e.Store.address
             (Store.kind_to_string e.Store.meta.Store.kind)
         | Error m -> if !bad = None then bad := Some m)
      (Store.refs s);
    (match !bad with Some m -> err m | None -> Ec.ok)

let cmd_store_log dir ref_ =
  match Store.open_ dir with
  | Error m -> err m
  | Ok s ->
    (match Store.generations s ref_ with
     | Error m -> err m
     | Ok entries ->
       List.iter (fun e -> print_endline (entry_line e)) entries;
       Ec.ok)

let cmd_store_cat address dot output =
  match Store.split_address address with
  | None -> err "ADDRESS must have the form DIR//ref[@N|@latest]"
  | Some (dir, spec) ->
    (match resolve_blob dir spec with
     | Error m -> err m
     | Ok (_, blob) ->
       if dot then
         (* Model blobs render through the same dependency-graph
            exporter as `learn --dot`. *)
         match Codec.model_of_blob blob with
         | Error m -> err (address ^ ": " ^ m)
         | Ok (d, names) ->
           print_string (Rt_analysis.Dep_graph.to_dot ~names d);
           Ec.ok
       else begin
         (match output with
          | Some file ->
            Rt_util.Atomic_file.write file blob;
            Printf.eprintf "wrote %s\n" file
          | None -> print_string blob);
         Ec.ok
       end)

let cmd_store_put dir ref_ file =
  match
    let ( let* ) = Result.bind in
    let* data =
      try Ok (Rt_util.Atomic_file.read file) with Sys_error m -> Error m
    in
    let* s = Store.init dir in
    let kind =
      Option.value (Codec.kind_of_blob data) ~default:Store.Checkpoint
    in
    let meta =
      { Store.kind; bound = None; source = Some file; parents = [];
        created_at = 0 }
    in
    Store.commit s ~ref_ ~meta data
  with
  | Error m -> err m
  | Ok e ->
    Printf.printf "%s@%d %s\n" ref_ e.Store.gen e.Store.address;
    Ec.ok

let cmd_store_gc dir =
  match Store.open_ dir with
  | Error m -> err m
  | Ok s ->
    (match Store.gc s with
     | Error m -> err m
     | Ok (kept, deleted) ->
       Printf.printf "kept %d blob(s), deleted %d\n" kept deleted;
       Ec.ok)

(* --- table1 --- *)

let table1 fast =
  let trace = Rt_case.Gm_model.trace () in
  Format.printf "%a@." Rt_trace.Trace.pp_summary trace;
  let bounds = if fast then [ 1; 4; 16 ] else [ 1; 4; 16; 32; 64; 100; 120; 150 ] in
  let rows =
    List.map (fun bound ->
        let t0 = Rt_obs.Registry.now_ns () in
        let o = Rt_learn.Heuristic.run ~bound trace in
        let dt = float_of_int (Rt_obs.Registry.now_ns () - t0) /. 1e9 in
        [ string_of_int bound; Printf.sprintf "%.3f" dt;
          string_of_int (List.length o.hypotheses) ])
      bounds
  in
  print_string
    (Rt_util.Table.render
       ~aligns:[ Rt_util.Table.Right; Rt_util.Table.Right; Rt_util.Table.Right ]
       ~header:[ "bound"; "run time (s)"; "|D*|" ]
       rows);
  Ec.ok

(* --- example --- *)

let example () =
  let trace = Rt_case.Paper_example.trace () in
  let o = Rt_learn.Exact.run trace in
  Format.printf "worked example (paper sec. 3.3): %d most specific hypotheses@."
    (List.length o.hypotheses);
  Format.printf "dLUB:@.%s@."
    (Rt_lattice.Depfun.to_string (Rt_lattice.Depfun.lub o.hypotheses));
  Ec.ok

(* --- cmdliner wiring --- *)

(* Counts and periods below [lo] would only fail deep inside a run (a
   division by zero, an invariant check); refuse them up front as
   command-line misuse instead. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1
let nonneg_int = int_at_least 0

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let periods_arg =
  Arg.(value & opt positive_int 27 & info [ "periods" ] ~docv:"N" ~doc:"Periods to simulate.")

let bound_arg =
  Arg.(value & opt positive_int 16 & info [ "bound"; "b" ] ~docv:"B"
         ~doc:"Hypothesis-set bound for the heuristic algorithm.")

(* learn's -j sizes the rounds of --shards, the only parallel work;
   serve accepts -j and ignores it. *)
let jobs_arg ~doc = Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let learn_jobs_arg =
  jobs_arg
    ~doc:"Worker domains for the rounds of $(b,--shards) (1 = sequential; \
          results are identical for every N). Without $(b,--shards), \
          $(b,--auto) included, it has no effect."

let serve_jobs_arg =
  jobs_arg
    ~doc:"Accepted for compatibility; has no effect (the daemon runs on \
          one domain, and results never depended on N)."

let window_arg =
  Arg.(value & opt (some nonneg_int) None & info [ "window" ] ~docv:"US"
         ~doc:"Candidate window in microseconds (narrows sender/receiver \
               inference).")

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit a Graphviz graph instead of text.")

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"Trace file in the rtgen-trace format.")

(* Streaming commands also accept "-" for stdin, which `some file` would
   reject; existence of real paths is checked at open time instead. *)
let stream_trace_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
         ~doc:"Trace file in the rtgen-trace format, or $(b,-) for stdin.")

let mode_arg =
  let mode_conv = Arg.enum [ ("strict", `Strict); ("recover", `Recover) ] in
  Arg.(value & opt mode_conv `Strict & info [ "mode" ] ~docv:"MODE"
         ~doc:"Ingestion mode: $(b,strict) rejects the first malformed line \
               or period; $(b,recover) repairs or quarantines damage and \
               reports it on stderr.")

let eps_arg =
  Arg.(value & opt nonneg_int 0 & info [ "eps" ] ~docv:"US"
         ~doc:"Clock-skew tolerance for recover-mode repairs, in \
               microseconds.")

let format_arg =
  let fmt_conv =
    Arg.enum
      [ ("text", Rt_check.Finding.Text);
        ("json", Rt_check.Finding.Json_format);
        ("sarif", Rt_check.Finding.Sarif) ]
  in
  Arg.(value & opt fmt_conv Rt_check.Finding.Text & info [ "format" ] ~docv:"FMT"
         ~doc:"Findings format: $(b,text), $(b,json) or $(b,sarif).")

let findings_out_arg =
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE"
         ~doc:"Additionally write a SARIF 2.1.0 report to FILE (for code \
               scanning upload), independent of $(b,--format).")

let simulate_cmd =
  let case_study =
    Arg.(value & flag & info [ "case-study" ]
           ~doc:"Use the built-in 18-task GM-like controller.")
  in
  let tasks =
    Arg.(value & opt int 12 & info [ "tasks" ] ~docv:"N"
           ~doc:"Number of tasks for a random design.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the trace to FILE instead of stdout.")
  in
  let drop_rate =
    Arg.(value & opt float 0.0 & info [ "drop-rate" ] ~docv:"P"
           ~doc:"Fault injection: probability that a frame is missing from \
                 the log.")
  in
  let local_fraction =
    Arg.(value & opt float 0.0 & info [ "local-fraction" ] ~docv:"P"
           ~doc:"Fraction of edges delivered ECU-internally (random designs \
                 only; such messages never reach the bus log).")
  in
  let jitter_spike_rate =
    Arg.(value & opt float 0.0 & info [ "jitter-spike-rate" ] ~docv:"P"
           ~doc:"Fault injection: probability that a source release draws \
                 a spiked (4x) jitter bound.")
  in
  let glitch_rate =
    Arg.(value & opt float 0.0 & info [ "glitch-rate" ] ~docv:"P"
           ~doc:"Fault injection: expected spurious bus glitches per \
                 period, logged under high CAN ids.")
  in
  let fleet =
    Arg.(value & opt (some int) None & info [ "fleet" ] ~docv:"N"
           ~doc:"Simulate N vehicles (seeds SEED..SEED+N-1) and write one \
                 trace per vehicle into $(b,--spool).")
  in
  let spool =
    Arg.(value & opt (some string) None & info [ "spool" ] ~docv:"DIR"
           ~doc:"Directory receiving the fleet's vehicleNN.trace files \
                 (created if missing) — point $(b,rtgen serve --spool) at \
                 it.")
  in
  let trickle_lines =
    Arg.(value & opt (some int) None & info [ "trickle-lines" ] ~docv:"K"
           ~doc:"Grow the fleet files round-robin, K lines per file per \
                 sweep with a flush in between, instead of writing them \
                 at once — live loggers for a daemon to follow.")
  in
  let trickle_sleep =
    Arg.(value & opt float 0.01 & info [ "trickle-sleep" ] ~docv:"SEC"
           ~doc:"Pause between trickle sweeps.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate a system and log its bus trace")
    Term.((const simulate $ case_study $ tasks $ seed_arg $ periods_arg
               $ output $ dot_arg $ drop_rate $ local_fraction
               $ jitter_spike_rate $ glitch_rate $ fleet $ spool
               $ trickle_lines $ trickle_sleep))

let learn_cmd =
  let exact =
    Arg.(value & flag & info [ "exact" ]
           ~doc:"Use the precise exponential algorithm instead of the \
                 bounded heuristic.")
  in
  let auto =
    Arg.(value & flag & info [ "auto" ]
           ~doc:"Pick the heuristic bound automatically: double it until \
                 the least upper bound stops changing, and print the \
                 per-bound trajectory. Each bound is one streamed pass \
                 over TRACE, which must be a file.")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Read the input once, as a pipe or stdin ($(b,-)) \
                 allows: refuses $(b,--checkpoint) and $(b,--auto). \
                 Every learn streams anyway, holding one \
                 period (one round of K with $(b,--shards)) in memory, \
                 so the flag changes neither the result nor the shard \
                 partition.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Also save the learned model (matrix text) to FILE.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"SLOT"
           ~doc:"Snapshot the learner state to SLOT every $(b,--every) \
                 periods: a plain FILE (written atomically) or a store \
                 ref $(b,DIR//ref) (one generation per snapshot), each \
                 save one image of every engine of the run. If \
                 the slot exists and matches the trace file's MD5, \
                 $(b,--mode), $(b,--eps) and $(b,--window), resume from \
                 it. Removed on successful completion.")
  in
  let every =
    Arg.(value & opt positive_int 1 & info [ "every" ] ~docv:"N"
           ~doc:"Checkpoint every N periods (default 1).")
  in
  let stop_after =
    (* Deterministic kill emulation for the test suite; hidden from help. *)
    Arg.(value & opt (some int) None
         & info [ "stop-after" ] ~docv:"K" ~docs:Manpage.s_none
             ~doc:"Stop after processing K periods (testing aid).")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write run metrics (counters, gauges, histograms, span \
                 aggregates) to FILE as JSON; render with $(b,rtgen \
                 report).")
  in
  let trace_events =
    Arg.(value & opt (some string) None & info [ "trace-events" ] ~docv:"FILE"
           ~doc:"Write the run's spans to FILE in Chrome trace_event \
                 format (load in chrome://tracing or Perfetto).")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Self-profile the run: print an exclusive/inclusive \
                 hotspot table over the learner's span tree on stderr. \
                 The learned model is unchanged.")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Write the span tree as folded stacks (one \
                 $(i,path exclusive_ns) line per call path) to FILE — \
                 feed to flamegraph.pl, speedscope or inferno.")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Also commit the result to the content-addressed model \
                 store at DIR (created on demand): the model under \
                 $(b,--ref), its pre-weaken bound-1 companion under \
                 REF/b1 (the fleet-merge interchange consumed by \
                 $(b,rtgen merge)), and the answer set under \
                 REF/answers.")
  in
  let store_ref =
    Arg.(value & opt string "model" & info [ "ref" ] ~docv:"REF"
           ~doc:"Ref name the store commit lands under (default \
                 $(b,model)); each run appends a new generation.")
  in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Record recovery events (checkpoint corruption fallbacks) \
                 in a flight recorder and dump it (rtgen-flight JSON) to \
                 FILE at exit.")
  in
  let progress =
    Arg.(value & opt (some positive_int) None & info [ "progress" ] ~docv:"N"
           ~doc:"Report progress on stderr every N periods (heuristic \
                 algorithm only).")
  in
  let shards =
    Arg.(value & opt (some positive_int) None & info [ "shards" ] ~docv:"K"
           ~doc:"Deal the trace's periods round-robin to K private \
                 engine pairs, feeding each round of K periods in \
                 parallel with $(b,-j), and fold the per-shard results \
                 into one model — byte-equal for every K and every \
                 $(b,-j). Streams in every combination, stdin included; \
                 with $(b,--checkpoint), the image holds every shard's \
                 engines and resumes only under the same K.")
  in
  Cmd.v (Cmd.info "learn" ~doc:"Learn a dependency model from a trace")
    Term.((const learn $ stream_trace_arg $ exact $ auto $ stream $ shards
               $ bound_arg $ window_arg $ learn_jobs_arg $ dot_arg $ output
               $ mode_arg $ eps_arg $ checkpoint $ every $ stop_after
               $ store $ store_ref $ flight
               $ metrics $ trace_events $ profile $ folded $ progress))

let watch_cmd =
  let poll =
    Arg.(value & opt float 0.05 & info [ "poll" ] ~docv:"SECONDS"
           ~doc:"How often to re-check a followed file for new data.")
  in
  let follow =
    Arg.(value & flag & info [ "f"; "follow" ]
           ~doc:"Keep watching after end of file, like $(b,tail -f): new \
                 periods appended to TRACE are learned as they arrive.")
  in
  let max_periods =
    Arg.(value & opt (some positive_int) None & info [ "max-periods" ] ~docv:"N"
           ~doc:"Stop after learning N periods (mainly for scripting a \
                 bounded watch over a live source).")
  in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Record drift notices and follower rotation/truncation \
                 events in a flight recorder and dump it (rtgen-flight \
                 JSON) to FILE at exit.")
  in
  Cmd.v (Cmd.info "watch"
           ~doc:"Follow a trace source and print the model as it evolves \
                 (LUB on change, drift notices)")
    Term.((const watch $ stream_trace_arg $ bound_arg $ window_arg
               $ mode_arg $ eps_arg $ poll $ follow $ max_periods $ flight))

let analyze_cmd =
  Cmd.v (Cmd.info "analyze"
           ~doc:"Learn and analyze: classification, state space, modes")
    Term.((const analyze $ trace_arg $ bound_arg $ window_arg $ mode_arg
               $ eps_arg))

let inject_cmd =
  let kinds =
    let kind_conv =
      Arg.conv
        ( (fun s ->
              match Rt_trace.Corrupt.kind_of_string s with
              | Some k -> Ok k
              | None -> Error (`Msg (Printf.sprintf "unknown corruption kind %S" s))),
          fun ppf k ->
            Format.pp_print_string ppf (Rt_trace.Corrupt.kind_to_string k) )
    in
    Arg.(value & opt (list kind_conv) Rt_trace.Corrupt.all_kinds
         & info [ "kinds" ] ~docv:"KINDS"
             ~doc:(Printf.sprintf
                     "Comma-separated corruption kinds to apply (default \
                      all): %s."
                     (String.concat ", "
                        (List.map Rt_trace.Corrupt.kind_to_string
                           Rt_trace.Corrupt.all_kinds))))
  in
  let rate =
    Arg.(value & opt float 0.05 & info [ "rate" ] ~docv:"P"
           ~doc:"Per-event / per-period corruption probability, in [0, 1].")
  in
  let eps =
    Arg.(value & opt int 50 & info [ "eps" ] ~docv:"US"
           ~doc:"Jitter/skew magnitude for the timing corruptions, us.")
  in
  let torn_at =
    Arg.(value & opt (some int) None & info [ "torn-at" ] ~docv:"BYTE"
           ~doc:"Torn-write mode: truncate the rendered trace at byte \
                 offset BYTE — mid-line or mid-frame — emulating a \
                 logger killed with a partially flushed write buffer.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the corrupted trace to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "inject"
           ~doc:"Corrupt a trace reproducibly, for exercising recover-mode \
                 ingestion")
    Term.((const inject $ trace_arg $ kinds $ rate $ eps $ seed_arg
               $ torn_at $ output))

let stats_cmd =
  let recover =
    Arg.(value & flag & info [ "recover" ]
           ~doc:"Ingest in recover mode and include the quarantine \
                 account (skipped lines, repaired/dropped periods, \
                 confidence) in the statistics.")
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print descriptive statistics of a trace")
    Term.((const stats $ trace_arg $ recover $ eps_arg))

let report_cmd =
  let metrics_file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"METRICS"
           ~doc:"Metrics JSON written by $(b,learn --metrics). Omit when \
                 querying a live daemon with $(b,--socket).")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Query a live $(b,rtgen serve) daemon over its control \
                 socket instead of reading a file.")
  in
  let query =
    Arg.(value & opt string "metrics" & info [ "query" ] ~docv:"REQ"
           ~doc:"Control request to send with $(b,--socket): \
                 $(b,metrics) (rendered as the usual table), \
                 $(b,status), $(b,snapshot ID), $(b,flight) (the \
                 flight-recorder dump), $(b,prometheus) or $(b,drain) \
                 (printed verbatim).")
  in
  let prometheus =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"Render the metrics in Prometheus text exposition format \
                 instead of the per-phase tables (works on a METRICS \
                 file and over $(b,--socket)).")
  in
  Cmd.v (Cmd.info "report"
           ~doc:"Render a metrics file, or query a live daemon")
    Term.((const report $ metrics_file $ socket $ query $ prometheus))

let serve_cmd =
  let spool =
    Arg.(value & opt (some string) None & info [ "spool" ] ~docv:"DIR"
           ~doc:"Follow every *.trace file in DIR as a live stream \
                 (rescanned continuously; rotation-aware).")
  in
  let listen =
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"PATH"
           ~doc:"Accept trace streams on a unix socket at PATH (greeting \
                 $(b,OK ID), or $(b,BUSY) over the admission limit).")
  in
  let control =
    Arg.(value & opt (some string) None & info [ "control" ] ~docv:"PATH"
           ~doc:"Expose status/snapshot/metrics/drain on a unix socket at \
                 PATH — `rtgen report --socket PATH` speaks it.")
  in
  let out_dir =
    Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory receiving one ID.model file per finalized \
                 stream.")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Periodic crash-safe per-stream checkpoints (ID.ckpt): a \
                 SIGKILLed daemon restarted over the same spool finishes \
                 with byte-identical models.")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Content-addressed model store (created on demand). \
                 Supersedes $(b,--checkpoint-dir): per-stream checkpoints \
                 land at ckpt/ID refs, and every finalized model is also \
                 committed as a model/ID generation — the fleet-merge / \
                 drift-diff interchange.")
  in
  let checkpoint_every =
    Arg.(value & opt positive_int 64 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Periods between checkpoints.")
  in
  let max_streams =
    Arg.(value & opt positive_int 64 & info [ "max-streams" ] ~docv:"N"
           ~doc:"Admission limit on concurrently live streams; beyond it, \
                 connects get $(b,BUSY) and spool files are deferred.")
  in
  let queue_capacity =
    Arg.(value & opt positive_int 4096 & info [ "queue-capacity" ] ~docv:"LINES"
           ~doc:"Per-stream bounded ingest queue. An overflowing socket \
                 stream is shed (the stream, never the daemon); an \
                 overflowing spool stream just stops being read ahead.")
  in
  let tick =
    Arg.(value & opt float 0.05 & info [ "tick" ] ~docv:"SEC"
           ~doc:"Event-loop tick: select timeout and spool scan cadence.")
  in
  let max_restarts =
    Arg.(value & opt int 5 & info [ "max-restarts" ] ~docv:"N"
           ~doc:"Restart budget per stream before it is declared FAILED.")
  in
  let backoff =
    Arg.(value & opt float 0.1 & info [ "backoff" ] ~docv:"SEC"
           ~doc:"First restart delay; doubles per restart.")
  in
  let backoff_cap =
    Arg.(value & opt float 5.0 & info [ "backoff-cap" ] ~docv:"SEC"
           ~doc:"Ceiling on the restart delay.")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SEC"
           ~doc:"No input at all for this long: the stream is drained and \
                 finalized (off by default).")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the daemon's metrics JSON to FILE when draining.")
  in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Write the flight-recorder dump (rtgen-flight JSON) to \
                 FILE at exit, and eagerly on every stream failure or \
                 quarantine latch. The recorder itself is always on; \
                 query it live with $(b,rtgen report --socket --query \
                 flight).")
  in
  let flight_capacity =
    Arg.(value & opt positive_int 1024 & info [ "flight-capacity" ] ~docv:"N"
           ~doc:"Flight-recorder ring size in events; when it wraps, the \
                 oldest events are overwritten (the dump reports how \
                 many).")
  in
  let stop_after_total =
    Arg.(value & opt (some int) None & info [ "stop-after-total" ] ~docv:"N"
           ~doc:"Exit abruptly — no final checkpoints, no models — once N \
                 periods were handled: deterministic SIGKILL emulation \
                 for crash-recovery tests.")
  in
  let drain_after_total =
    Arg.(value & opt (some int) None & info [ "drain-after-total" ] ~docv:"N"
           ~doc:"Drain and exit once N periods were handled (consumes \
                 everything already on disk first). A followed file's \
                 last period closes only when its stream finalizes, at \
                 drain or at $(b,--idle-timeout) (off by default), so \
                 an N that counts those periods may never be reached: \
                 leave one period per stream out of N.")
  in
  Cmd.v (Cmd.info "serve"
           ~doc:"Learn many live trace streams under one supervised daemon \
                 (rtgend)")
    Term.((const serve $ spool $ listen $ control $ out_dir $ checkpoint_dir
               $ store $ checkpoint_every $ bound_arg $ window_arg $ eps_arg
               $ serve_jobs_arg $ max_streams $ queue_capacity $ tick
               $ max_restarts $ backoff $ backoff_cap $ idle_timeout
               $ metrics $ flight $ flight_capacity
               $ stop_after_total $ drain_after_total))

let top_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"The daemon's control socket ($(b,rtgen serve \
                 --control) path).")
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SEC"
           ~doc:"Seconds between refreshes.")
  in
  let count =
    Arg.(value & opt (some int) None & info [ "count" ] ~docv:"N"
           ~doc:"Render N frames and exit (default: refresh until \
                 interrupted).")
  in
  let no_clear =
    Arg.(value & flag & info [ "no-clear" ]
           ~doc:"Do not clear the screen between frames — append them, \
                 for logs and CI.")
  in
  Cmd.v (Cmd.info "top"
           ~doc:"Live per-stream fleet table for a running rtgend \
                 (state, periods, queue depth, checkpoint age)")
    Term.((const top $ socket $ interval $ count $ no_clear))

let vcd_cmd =
  let import =
    Arg.(value & flag & info [ "import" ]
           ~doc:"Go the other way: read TRACE as a VCD dump and print the \
                 corresponding rtgen-trace.")
  in
  let period_len =
    Arg.(value & opt (some int) None & info [ "period-len" ] ~docv:"US"
           ~doc:"Period length in microseconds (export: waveform spacing; \
                 import: slice boundary — inferred when omitted).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the result to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "vcd"
           ~doc:"Export a trace as a Value Change Dump for waveform viewers \
                 (or import one)")
    Term.((const vcd $ trace_arg $ import $ period_len $ output))

let anonymize_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the anonymized trace to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "anonymize"
           ~doc:"Rename tasks and bus ids for sharing a proprietary trace \
                 (mapping printed on stderr)")
    Term.((const anonymize $ trace_arg $ output))

let gantt_cmd =
  let period =
    Arg.(value & opt nonneg_int 0 & info [ "period" ] ~docv:"N"
           ~doc:"Which period to draw (default 0).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the SVG to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "gantt" ~doc:"Render one period as an SVG Gantt chart")
    Term.((const gantt $ trace_arg $ period $ output))

let query_cmd =
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Property to check, e.g. 'd(A,L) = -> & conjunction(Q)'.")
  in
  let model_file =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"MODEL"
           ~doc:"Use a model saved by $(b,learn -o), or a store address \
                 ($(b,DIR//ref), $(b,DIR//ref@N)), instead of \
                 re-learning.")
  in
  Cmd.v (Cmd.info "query"
           ~doc:"Check a dependency property against the learned model \
                 (exit 1 when it does not hold)")
    Term.((const run_query $ trace_arg $ query $ bound_arg $ window_arg
               $ model_file))

let check_cmd =
  (* [string], not [file]: a missing model is this tool's input error
     (exit 2), not command-line misuse (124). *)
  let models =
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL"
           ~doc:"Model files saved by $(b,learn -o), or store addresses \
                 ($(b,DIR//ref@N)) of model, companion or answer-set \
                 blobs; several models are additionally audited together \
                 as one answer set.")
  in
  let ckpt =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"SLOT"
           ~doc:"Audit a learner checkpoint written by $(b,learn \
                 --checkpoint) — a file or a store address \
                 ($(b,DIR//ref@N)): intact, bound respected, and every \
                 engine's working set canonical.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"TRACE"
           ~doc:"Also verify every definite cell of every MODEL against \
                 this trace (post-processing hygiene).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Escalate warnings to errors for the exit code.")
  in
  Cmd.v (Cmd.info "check"
           ~doc:"Statically audit learned models, answer sets and \
                 checkpoints")
    Term.((const model_check $ models $ ckpt $ trace_file $ format_arg
               $ findings_out_arg $ strict))

let merge_cmd =
  let stores =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"STORE"
           ~doc:"Store directories written by $(b,learn --store) (or \
                 $(b,serve --store)); every Companion-kind ref's latest \
                 generation contributes one part.")
  in
  let ref_filter =
    Arg.(value & opt (some string) None & info [ "ref" ] ~docv:"REF"
           ~doc:"Only fold companions under REF/b1 (the parts committed \
                 by $(b,learn --store --ref) REF).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Also save the fleet model (matrix text) to FILE — \
                 byte-equal to a monolithic bound-1 $(b,learn -o) over \
                 the concatenated periods.")
  in
  let out_store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Also commit the fleet model to the store at DIR, with \
                 the folded companion addresses as parents.")
  in
  let out_ref =
    Arg.(value & opt string "fleet" & info [ "out-ref" ] ~docv:"REF"
           ~doc:"Ref name the fleet commit lands under (default \
                 $(b,fleet)).")
  in
  Cmd.v (Cmd.info "merge"
           ~doc:"Fold the bound-1 companions of several stores into one \
                 fleet model (the cross-process half of --shards)")
    Term.((const merge $ stores $ ref_filter $ dot_arg $ output $ out_store
               $ out_ref))

let store_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Store directory.")
  in
  let init =
    Cmd.v (Cmd.info "init" ~doc:"Create an empty store (idempotent)")
      Term.(const cmd_store_init $ dir_arg)
  in
  let refs =
    Cmd.v (Cmd.info "refs"
             ~doc:"List every ref with its latest generation and kind")
      Term.(const cmd_store_refs $ dir_arg)
  in
  let log =
    let ref_arg =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"REF"
             ~doc:"Ref name.")
    in
    Cmd.v (Cmd.info "log"
             ~doc:"Print a ref's generations, oldest first, with their \
                   metadata")
      Term.(const cmd_store_log $ dir_arg $ ref_arg)
  in
  let cat =
    let address =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDRESS"
             ~doc:"Store address, $(b,DIR//ref), $(b,DIR//ref@N) or \
                   $(b,DIR//ref@latest).")
    in
    let output =
      Arg.(value & opt (some string) None & info [ "o"; "output" ]
             ~docv:"FILE" ~doc:"Write the blob to FILE instead of stdout.")
    in
    Cmd.v (Cmd.info "cat"
             ~doc:"Print the blob a store address resolves to \
                   (hash-verified); --dot renders a model blob as \
                   Graphviz")
      Term.(const cmd_store_cat $ address $ dot_arg $ output)
  in
  let put =
    let ref_arg =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"REF"
             ~doc:"Ref name to commit under.")
    in
    let file_arg =
      Arg.(required & pos 2 (some file) None & info [] ~docv:"FILE"
             ~doc:"File whose bytes become the blob (kind sniffed from \
                   the content).")
    in
    Cmd.v (Cmd.info "put"
             ~doc:"Commit a file's bytes as a new generation of a ref \
                   (plumbing)")
      Term.(const cmd_store_put $ dir_arg $ ref_arg $ file_arg)
  in
  let gc =
    Cmd.v (Cmd.info "gc"
             ~doc:"Delete blobs referenced by no generation of any ref")
      Term.(const cmd_store_gc $ dir_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a content-addressed model store")
    [ init; refs; log; cat; put; gc ]

let table1_cmd =
  let fast = Arg.(value & flag & info [ "fast" ] ~doc:"Only the small bounds.") in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce the paper's runtime-vs-bound table")
    Term.((const table1 $ fast))

let example_cmd =
  Cmd.v (Cmd.info "example" ~doc:"Run the paper's worked example")
    Term.((const example $ const ()))

let () =
  let doc = "automatic model generation for black box real-time systems" in
  let info = Cmd.info "rtgen" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ simulate_cmd; learn_cmd; watch_cmd; serve_cmd; top_cmd; merge_cmd;
        store_cmd; analyze_cmd; query_cmd; check_cmd; inject_cmd; stats_cmd;
        report_cmd; vcd_cmd; gantt_cmd; anonymize_cmd; table1_cmd;
        example_cmd ]
  in
  let code =
    try Cmd.eval' ~catch:false group
    with exn ->
      prerr_endline ("rtgen: internal error: " ^ Printexc.to_string exn);
      Ec.internal_error
  in
  exit code
