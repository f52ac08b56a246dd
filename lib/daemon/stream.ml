module Eng = Rt_engine.Engine
module Session = Rt_shard.Session

type config = {
  bound : int;
  window : int option;
  eps : int option;
  queue_capacity : int;
  checkpoint : Rt_store.Slot.t option;
  checkpoint_every : int;
}

(* Raised by the line source when the bounded queue is empty and input
   is still open. The parser pulls exactly one line per parse step and
   commits every mutation before pulling the next, so the unwind leaves
   the session in a resumable state: the next [pump] continues the same
   period mid-assembly. *)
exception Starve

type t = {
  lines : string Bqueue.t;
  eof : bool ref;
  session : Session.t;
  mutable crashed : string option;
}

let create ~id ?flight cfg =
  let lines = Bqueue.create ~capacity:cfg.queue_capacity in
  let eof = ref false in
  let source () =
    match Bqueue.pop lines with
    | Some l -> Some l
    | None -> if !eof then None else raise Starve
  in
  let checkpoint =
    Option.map
      (fun slot ->
         { Session.slot; tag = "rtgend:" ^ id; source = id;
           every = cfg.checkpoint_every })
      cfg.checkpoint
  in
  let session, resume =
    Session.create ~mode:`Recover ?eps:cfg.eps ?window:cfg.window ?flight
      ?checkpoint
      (Eng.Heuristic { bound = cfg.bound })
      source
  in
  let stale m =
    Option.iter
      (fun s -> Rt_obs.Flight.record_s s Rt_obs.Flight.Warn ~kind:"checkpoint.stale" m)
      flight;
    Some m
  in
  let note =
    match resume with
    | Session.Fresh -> None
    | Session.Resumed n ->
      Option.iter
        (fun s ->
           Rt_obs.Flight.record_s s Rt_obs.Flight.Info ~kind:"stream.resume"
             (Printf.sprintf "resumed from checkpoint at %d periods" n))
        flight;
      None
    | Session.Corrupt m -> stale (Printf.sprintf "checkpoint %s; starting fresh" m)
    | Session.Foreign tag ->
      stale
        (Printf.sprintf
           "checkpoint %s belongs to %S, not this stream; starting fresh"
           (Rt_store.Slot.describe (Option.get cfg.checkpoint)) tag)
  in
  ({ lines; eof; session; crashed = None }, note)

let offer_line t l = if !(t.eof) then `Ok else Bqueue.push t.lines l

let close_input t = t.eof := true

let queued t = Bqueue.length t.lines

let queue_capacity t = Bqueue.capacity t.lines

let periods_fed t = Session.periods_fed t.session

let hypotheses t = Session.hypotheses t.session

let checkpoints_written t = Session.checkpoints_written t.session

let write_checkpoint t = Session.save t.session

type status = Blocked | More | Done | Crashed of string

(* A period the session returns counts as handled: fed, or
   replay-skipped (it was fed before the last checkpoint — the parser's
   salvage verdicts are deterministic, so the skip count lines up).
   Periods the parser drops never reach the session and cost no budget.
   The parser latches end of input, so pumping a finished stream
   answers [Done] again. *)
let pump t ~budget =
  match t.crashed with
  | Some m -> (0, Crashed m)
  | None ->
    let handled = ref 0 in
    let status = ref More in
    (try
       let continue = ref true in
       while !continue do
         if !handled >= budget then continue := false
         else
           match Session.next t.session with
           | exception Starve ->
             status := Blocked;
             continue := false
           | Error e ->
             let m = Printf.sprintf "line %d: %s" e.line e.message in
             t.crashed <- Some m;
             status := Crashed m;
             continue := false
           | Ok None ->
             status := Done;
             continue := false
           | Ok (Some _) -> incr handled
       done
     with e ->
       let m = "engine exception: " ^ Printexc.to_string e in
       t.crashed <- Some m;
       status := Crashed m);
    (!handled, !status)

let quarantine t = Session.quarantine t.session

let snapshot t =
  match Session.snapshot t.session with
  | None -> Error "no periods fed yet"
  | Some snap -> Ok (snap, Session.names t.session)

let render_model t =
  match Session.finalize t.session with
  | None -> Error "no usable periods after quarantine"
  | Some { Eng.hypotheses = []; _ } -> Error "inconsistent trace"
  | Some { Eng.hypotheses = hs; _ } ->
    Ok (Rt_lattice.Depfun.lub hs, Session.names t.session)
