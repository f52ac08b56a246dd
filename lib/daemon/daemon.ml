module Sio = Rt_trace.Stream_io
module Reg = Rt_obs.Registry

type config = {
  spool : string option;
  listen : string option;
  control : string option;
  out_dir : string;
  checkpoint_dir : string option;
  store : string option;
  checkpoint_every : int;
  bound : int;
  window : int option;
  eps : int option;
  max_streams : int;
  queue_capacity : int;
  tick : float;
  policy : Supervisor.policy;
  metrics_path : string option;
  flight_capacity : int;
  flight_path : string option;
  stop_after_total : int option;
  drain_after_total : int option;
  handle_signals : bool;
}

let default =
  {
    spool = None;
    listen = None;
    control = None;
    out_dir = ".";
    checkpoint_dir = None;
    store = None;
    checkpoint_every = 64;
    bound = 2;
    window = None;
    eps = None;
    max_streams = 64;
    queue_capacity = 4096;
    tick = 0.05;
    policy = Supervisor.default_policy;
    metrics_path = None;
    flight_capacity = 1024;
    flight_path = None;
    stop_after_total = None;
    drain_after_total = None;
    handle_signals = true;
  }

type outcome = Drained | Stopped

(* Periods per stream per tick: no stream can starve its neighbours. *)
let periods_per_tick = 64

type spool_src = {
  spath : string;
  mutable tail : Sio.Tail.t;
  mutable opened : bool;  (* distinguishes "not yet created" from
                             "vanished under us" *)
}

type conn_src = { mutable cfd : Unix.file_descr option; cut : Sio.Cutter.t }

type source = Spool of spool_src | Conn of conn_src

type entry = {
  id : string;
  source : source;
  sup : Supervisor.t;
  mutable stream : Stream.t option;  (* None while backing off or shed *)
  mutable shed : bool;
  mutable last_fed : int;  (* last observed periods_fed; survives the
                              stream object being discarded *)
  mutable ckpt_seen : int;  (* checkpoints_written at the last check *)
  mutable ckpt_at : float option;  (* daemon-clock time of the newest one *)
}

type state = {
  cfg : config;
  reg : Reg.t;
  flight : Rt_obs.Flight.t;
  store : Rt_store.Store.t option;  (* opened once at startup *)
  mutable now : float;  (* the loop's current clock, for status ages *)
  entries : (string, entry) Hashtbl.t;
  mutable order : string list;  (* ids, newest first *)
  deferred : (string, unit) Hashtbl.t;  (* spool files refused as BUSY *)
  mutable conn_seq : int;
  mutable ctrl_clients : (Unix.file_descr * Buffer.t) list;
  mutable draining : bool;
  mutable running : bool;
  mutable busy_tick : bool;  (* progress this tick: skip the select sleep *)
  mutable total_handled : int;
  mutable retired_checkpoints : int;  (* from discarded stream objects *)
}

(* The event totals live in the registry alone: bumped where the event
   happens, read back by status, the drain log line and the sinks. *)
type event = Accepted | Busy | Shed | Failed | Finalized | Restart | Quarantined

let event_counter = function
  | Accepted -> "daemon.streams_accepted"
  | Busy -> "daemon.busy_rejections"
  | Shed -> "daemon.streams_shed"
  | Failed -> "daemon.streams_failed"
  | Finalized -> "daemon.streams_finalized"
  | Restart -> "daemon.restarts"
  | Quarantined -> "daemon.streams_quarantined"

let count st ev = Reg.incr (Reg.counter st.reg (event_counter ev))

let total st ev = Reg.counter_value (Reg.counter st.reg (event_counter ev))

let logf fmt = Printf.eprintf ("rtgend: " ^^ fmt ^^ "\n%!")

let fl st sev ~stream ~kind detail =
  Rt_obs.Flight.record st.flight sev ~stream ~kind detail

(* Post-mortem dump: written at exit, and eagerly on every stream
   failure or quarantine latch so a later hard death cannot lose it. *)
let dump_flight st =
  match st.cfg.flight_path with
  | None -> ()
  | Some p ->
    Rt_util.Atomic_file.write p
      (Rt_obs.Json.to_string ~pretty:true (Rt_obs.Flight.to_json st.flight))

let is_active e =
  (not e.shed)
  &&
  match Supervisor.phase e.sup with
  | Supervisor.Failed _ | Supervisor.Finalized -> false
  | Supervisor.Running | Supervisor.Backing_off _ -> true

let fold_entries st f acc =
  List.fold_left (fun acc id -> f acc (Hashtbl.find st.entries id)) acc
    (List.rev st.order)

let iter_entries st f = fold_entries st (fun () e -> f e) ()

let active_count st =
  fold_entries st (fun n e -> if is_active e then n + 1 else n) 0

let total_periods st = fold_entries st (fun n e -> n + e.last_fed) 0

let total_checkpoints st =
  fold_entries st
    (fun n e ->
      n + match e.stream with Some s -> Stream.checkpoints_written s | None -> 0)
    st.retired_checkpoints

(* Checkpoint destination: the store wins when both are configured —
   every write becomes a new [ckpt/<id>] generation — otherwise one
   [<id>.ckpt] file under the checkpoint dir. *)
let checkpoint_slot_of st id =
  match st.store with
  | Some s -> Some (Rt_store.Slot.Ref (s, "ckpt/" ^ id))
  | None ->
    Option.map
      (fun d -> Rt_store.Slot.File (Filename.concat d (id ^ ".ckpt")))
      st.cfg.checkpoint_dir

(* Socket streams never checkpoint: their input dies with the
   connection, so a later daemon run could never replay it — and a
   stale [connN.ckpt] would alias an unrelated future connection. *)
let make_stream st ~checkpointed id =
  let checkpoint = if checkpointed then checkpoint_slot_of st id else None in
  let s, note =
    Stream.create ~id
      ~flight:(Rt_obs.Flight.scope st.flight id)
      {
        Stream.bound = st.cfg.bound;
        window = st.cfg.window;
        eps = st.cfg.eps;
        queue_capacity = st.cfg.queue_capacity;
        checkpoint;
        checkpoint_every = st.cfg.checkpoint_every;
      }
  in
  (match note with Some n -> logf "stream %s: %s" id n | None -> ());
  if Stream.periods_fed s > 0 then
    logf "stream %s: resumed from checkpoint (%d periods already learned)" id
      (Stream.periods_fed s);
  s

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (match Unix.select [] [ fd ] [] 0.2 with
         | _, [ _ ], _ -> go off
         | _ -> ()  (* receiver not draining: give up rather than wedge *)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
  in
  go 0

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Stop reading a source and drop the bytes it held. *)
let close_source e =
  match e.source with
  | Conn c ->
    Option.iter close_fd c.cfd;
    c.cfd <- None;
    Sio.Cutter.clear c.cut
  | Spool sp -> Sio.Tail.close sp.tail

(* --- per-stream lifecycle ------------------------------------------- *)

let retire_stream st e =
  match e.stream with
  | None -> ()
  | Some s ->
    e.last_fed <- Stream.periods_fed s;
    st.retired_checkpoints <- st.retired_checkpoints + Stream.checkpoints_written s;
    e.stream <- None

let shed st e reason =
  e.shed <- true;
  count st Shed;
  close_source e;
  retire_stream st e;
  fl st Rt_obs.Flight.Warn ~stream:e.id ~kind:"stream.shed" reason;
  logf "stream %s shed: %s" e.id reason

(* [drop_checkpoint] when the on-disk file's identity changed (rotated,
   truncated, vanished): the checkpointed prefix can no longer be
   replayed against what the path now holds, so the restart must relearn
   from byte 0 — always correct, merely slower. *)
let crash st now e ~drop_checkpoint reason =
  retire_stream st e;
  close_source e;
  if drop_checkpoint then
    Option.iter Rt_store.Slot.discard (checkpoint_slot_of st e.id);
  fl st Rt_obs.Flight.Error ~stream:e.id ~kind:"stream.crash" reason;
  match e.source with
  | Conn _ ->
    (* the connection's bytes are gone: nothing to restart from *)
    Supervisor.fail e.sup ~reason;
    count st Failed;
    fl st Rt_obs.Flight.Error ~stream:e.id ~kind:"stream.failed"
      ("socket stream, unrecoverable: " ^ reason);
    dump_flight st;
    logf "stream %s FAILED (socket stream, unrecoverable): %s" e.id reason
  | Spool _ ->
    (match Supervisor.note_crash e.sup ~now ~reason with
     | `Failed ->
       count st Failed;
       fl st Rt_obs.Flight.Error ~stream:e.id ~kind:"stream.failed"
         (Printf.sprintf "after %d restarts: %s" (Supervisor.restarts e.sup)
            reason);
       dump_flight st;
       logf "stream %s FAILED after %d restarts: %s" e.id
         (Supervisor.restarts e.sup) reason
     | `Backoff until ->
       logf "stream %s crashed (%s); restart #%d in %.2fs" e.id reason
         (Supervisor.restarts e.sup) (until -. now))

let restart st now e =
  match e.source with
  | Conn _ -> ()
  | Spool sp ->
    count st Restart;
    sp.tail <- Sio.Tail.create sp.spath;
    sp.opened <- false;
    let s = make_stream st ~checkpointed:true e.id in
    e.stream <- Some s;
    e.last_fed <- Stream.periods_fed s;
    e.ckpt_seen <- Stream.checkpoints_written s;
    Supervisor.note_restart e.sup ~now;
    fl st Rt_obs.Flight.Info ~stream:e.id ~kind:"stream.restart"
      (Printf.sprintf "attempt %d" (Supervisor.restarts e.sup));
    logf "stream %s restarted (attempt %d)" e.id (Supervisor.restarts e.sup)

let note_quarantine st e s =
  if
    (not (Supervisor.quarantined e.sup))
    && not (Rt_trace.Quarantine.is_empty (Stream.quarantine s))
  then begin
    Supervisor.set_quarantined e.sup;
    count st Quarantined;
    fl st Rt_obs.Flight.Warn ~stream:e.id ~kind:"stream.quarantine"
      (Rt_trace.Quarantine.summary (Stream.quarantine s));
    dump_flight st;
    logf "stream %s: recover-mode quarantine engaged (%s)" e.id
      (Rt_trace.Quarantine.summary (Stream.quarantine s))
  end

(* Track checkpoint writes the stream performed since we last looked,
   so [status] can report how stale each stream's newest one is. *)
let note_ckpt st e s =
  let n = Stream.checkpoints_written s in
  if n > e.ckpt_seen then begin
    e.ckpt_seen <- n;
    e.ckpt_at <- Some st.now
  end

let finalize_entry st e =
  match e.stream with
  | None -> ()
  | Some s ->
    e.last_fed <- Stream.periods_fed s;
    note_quarantine st e s;
    Stream.write_checkpoint s;
    note_ckpt st e s;
    (match Stream.render_model s with
     | Ok (lub, names) ->
       let path = Filename.concat st.cfg.out_dir (e.id ^ ".model") in
       Rt_util.Atomic_file.write path
         (Rt_lattice.Depfun.to_string ?names lub ^ "\n");
       (* Also publish the finalized model to the store: one versioned
          [model/<id>] generation per finalize, so a fleet merge (or a
          later diff) can read it without touching out_dir. *)
       (match st.store with
        | None -> ()
        | Some store ->
          let meta =
            { Rt_store.Store.kind = Rt_store.Store.Model;
              bound = Some st.cfg.bound;
              source = Some e.id;
              parents = [];
              created_at = e.last_fed }
          in
          (match
             Rt_store.Store.commit store ~ref_:("model/" ^ e.id) ~meta
               (Rt_store.Codec.model_to_blob ?names lub)
           with
           | Ok entry ->
             fl st Rt_obs.Flight.Info ~stream:e.id ~kind:"store.commit"
               (Printf.sprintf "model/%s gen %d %s" e.id
                  entry.Rt_store.Store.gen entry.Rt_store.Store.address)
           | Error m ->
             fl st Rt_obs.Flight.Warn ~stream:e.id ~kind:"store.error" m));
       Supervisor.finalize e.sup;
       count st Finalized;
       fl st Rt_obs.Flight.Info ~stream:e.id ~kind:"stream.finalize"
         (Printf.sprintf "%d periods -> %s" e.last_fed path);
       logf "stream %s finalized: %d periods -> %s" e.id e.last_fed path
     | Error m ->
       Supervisor.fail e.sup ~reason:m;
       count st Failed;
       fl st Rt_obs.Flight.Error ~stream:e.id ~kind:"stream.failed"
         ("at finalize: " ^ m);
       dump_flight st;
       logf "stream %s failed at finalize: %s" e.id m)

(* Push a line even when the queue is full, by pumping to make room —
   only used on the end-of-input paths, where losing the line would
   break the byte-equality contract. False when the stream crashed. *)
let rec offer_forcing st s l =
  match Stream.offer_line s l with
  | `Ok -> true
  | `Overflow ->
    let handled, status = Stream.pump s ~budget:periods_per_tick in
    st.total_handled <- st.total_handled + handled;
    (match status with
     | Stream.Crashed _ -> false
     | Stream.Blocked | Stream.More | Stream.Done -> offer_forcing st s l)

(* Stop reading a data connection. Its unterminated last line still
   counts, as it does for the Stream_io line sources that [learn]'s
   Session reads, so the same bytes give the same model. *)
let end_conn st e c =
  (match (e.stream, Sio.Cutter.rest c.cut) with
   | Some s, Some l -> ignore (offer_forcing st s l)
   | _ -> ());
  close_source e

(* Consume everything the source still has, declare end-of-input, pump
   to completion and finalize — the idle-watchdog and drain path. *)
let finish_stream st now e =
  match e.stream with
  | None -> ()
  | Some s ->
    (match e.source with
     | Spool sp ->
       let reading = ref true in
       while !reading do
         match Sio.Tail.step sp.tail with
         | Sio.Tail.Line l -> if not (offer_forcing st s l) then reading := false
         | Sio.Tail.Opened -> sp.opened <- true
         | Sio.Tail.Waiting | Sio.Tail.Vanished -> reading := false
         | Sio.Tail.Rotated | Sio.Tail.Truncated -> reading := false
       done;
       (match Sio.Tail.pending sp.tail with
        | Some l -> ignore (offer_forcing st s l)
        | None -> ());
       Sio.Tail.close sp.tail
     | Conn c -> end_conn st e c);
    Stream.close_input s;
    let finished = ref false in
    while not !finished do
      let handled, status = Stream.pump s ~budget:periods_per_tick in
      st.total_handled <- st.total_handled + handled;
      if handled > 0 then e.last_fed <- Stream.periods_fed s;
      match status with
      | Stream.Done ->
        finalize_entry st e;
        finished := true
      | Stream.Crashed m ->
        crash st now e ~drop_checkpoint:false m;
        finished := true
      | Stream.Blocked ->
        (* input closed and queue empty: the parser will see EOF on the
           next pump, but guard against looping forever regardless *)
        finished := true
      | Stream.More -> ()
    done

(* --- spool ----------------------------------------------------------- *)

let admit_spool st now id path =
  Hashtbl.remove st.deferred id;
  let e =
    {
      id;
      source = Spool { spath = path; tail = Sio.Tail.create path; opened = false };
      sup = Supervisor.create ~policy:st.cfg.policy ~now ();
      stream = None;
      shed = false;
      last_fed = 0;
      ckpt_seen = 0;
      ckpt_at = None;
    }
  in
  fl st Rt_obs.Flight.Info ~stream:id ~kind:"stream.admit" ("spool " ^ path);
  let s = make_stream st ~checkpointed:true id in
  e.stream <- Some s;
  e.last_fed <- Stream.periods_fed s;
  e.ckpt_seen <- Stream.checkpoints_written s;
  Hashtbl.add st.entries id e;
  st.order <- id :: st.order;
  count st Accepted;
  logf "following %s (stream %s)" path id

let scan st now =
  match st.cfg.spool with
  | None -> ()
  | Some dir ->
    (match Sys.readdir dir with
     | exception Sys_error _ -> ()
     | files ->
       Array.sort String.compare files;
       Array.iter
         (fun f ->
           if Filename.check_suffix f ".trace" then begin
             let id = Filename.remove_extension f in
             if not (Hashtbl.mem st.entries id) then
               if (not st.draining) && active_count st < st.cfg.max_streams
               then admit_spool st now id (Filename.concat dir f)
               else if not (Hashtbl.mem st.deferred id) then begin
                 Hashtbl.add st.deferred id ();
                 count st Busy;
                 fl st Rt_obs.Flight.Warn ~stream:id ~kind:"stream.defer"
                   (Printf.sprintf "BUSY (%d/%d streams active)"
                      (active_count st) st.cfg.max_streams);
                 logf "stream %s deferred: BUSY (%d/%d streams active)" id
                   (active_count st) st.cfg.max_streams
               end
           end)
         files)

let step_spool st now e sp s =
  let continue = ref true in
  while !continue do
    if Stream.queued s >= Stream.queue_capacity s then
      (* backpressure: stop pulling from disk until the engine catches
         up — a slow stream never sheds its own spool file *)
      continue := false
    else
      match Sio.Tail.step sp.tail with
      | Sio.Tail.Line l ->
        ignore (Stream.offer_line s l);
        Supervisor.note_data e.sup ~now;
        st.busy_tick <- true
      | Sio.Tail.Opened -> sp.opened <- true
      | Sio.Tail.Waiting -> continue := false
      | Sio.Tail.Vanished ->
        continue := false;
        if sp.opened then
          crash st now e ~drop_checkpoint:true "spool file vanished"
      | Sio.Tail.Rotated ->
        continue := false;
        crash st now e ~drop_checkpoint:true
          "spool file rotated (relearning from the new file)"
      | Sio.Tail.Truncated ->
        continue := false;
        crash st now e ~drop_checkpoint:true
          "spool file truncated (relearning)"
  done

(* --- data connections ------------------------------------------------ *)

let conn_eof st e c =
  end_conn st e c;
  Option.iter Stream.close_input e.stream

(* A read takes at most 4 KB: the bounded queue fills at the pace of
   the loop's reads, not of the writer's bursts. *)
let handle_conn st now e c fd =
  let read buf off len = Unix.read fd buf off (min len 4096) in
  match Sio.Cutter.refill c.cut read with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> conn_eof st e c
  | 0 -> conn_eof st e c
  | _ ->
    Supervisor.note_data e.sup ~now;
    st.busy_tick <- true;
    let rec offer () =
      match (e.stream, Sio.Cutter.cut c.cut) with
      | Some s, Some line when not e.shed ->
        (match Stream.offer_line s line with
         | `Ok -> offer ()
         | `Overflow ->
           (* strict-pipe shed: this stream dies, its neighbours
              and the daemon do not *)
           shed st e
             (Printf.sprintf "ingest queue overflow (%d lines)"
                (Stream.queue_capacity s)))
      | _ -> ()
    in
    offer ()

let accept_data st now lfd =
  match Unix.accept lfd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | fd, _ ->
    Unix.set_nonblock fd;
    if st.draining || active_count st >= st.cfg.max_streams then begin
      count st Busy;
      write_all fd "BUSY\n";
      close_fd fd;
      fl st Rt_obs.Flight.Warn ~stream:"" ~kind:"stream.defer"
        (Printf.sprintf "connection refused: BUSY (%d/%d streams active)"
           (active_count st) st.cfg.max_streams);
      logf "connection refused: BUSY (%d/%d streams active)" (active_count st)
        st.cfg.max_streams
    end
    else begin
      st.conn_seq <- st.conn_seq + 1;
      let id = Printf.sprintf "conn%d" st.conn_seq in
      fl st Rt_obs.Flight.Info ~stream:id ~kind:"stream.admit" "socket connection";
      let e =
        {
          id;
          source = Conn { cfd = Some fd; cut = Sio.Cutter.create () };
          sup = Supervisor.create ~policy:st.cfg.policy ~now ();
          stream = Some (make_stream st ~checkpointed:false id);
          shed = false;
          last_fed = 0;
          ckpt_seen = 0;
          ckpt_at = None;
        }
      in
      Hashtbl.add st.entries id e;
      st.order <- id :: st.order;
      count st Accepted;
      write_all fd ("OK " ^ id ^ "\n");
      logf "accepted stream %s" id
    end

(* --- control socket -------------------------------------------------- *)

(* The event counters are already current; only the derived totals and
   the gauges are computed here. *)
let publish st =
  Reg.set_counter st.reg "daemon.checkpoints" (total_checkpoints st);
  Reg.set_counter st.reg "daemon.periods" (total_periods st);
  Reg.set_gauge_named st.reg "daemon.streams_active" (active_count st);
  iter_entries st (fun e ->
      Reg.set_gauge_named st.reg
        (Printf.sprintf "daemon.stream.%s.periods" e.id)
        e.last_fed;
      Reg.set_gauge_named st.reg
        (Printf.sprintf "daemon.stream.%s.queue" e.id)
        (match e.stream with Some s -> Stream.queued s | None -> 0))

let status_text st =
  let b = Buffer.create 512 in
  Buffer.add_string b "rtgend status\n";
  iter_entries st (fun e ->
      let phase =
        if e.shed then "shed"
        else
          match Supervisor.phase e.sup with
          | Supervisor.Running -> "running"
          | Supervisor.Backing_off _ -> "backing-off"
          | Supervisor.Failed _ -> "failed"
          | Supervisor.Finalized -> "finalized"
      in
      let ckpt_age =
        match e.ckpt_at with
        | None -> "-"
        | Some t -> Printf.sprintf "%.1fs" (Float.max 0.0 (st.now -. t))
      in
      Buffer.add_string b
        (Printf.sprintf
           "stream %s phase=%s periods=%d hypotheses=%d restarts=%d queue=%d \
            quarantined=%b shed=%b ckpt_age=%s\n"
           e.id phase e.last_fed
           (match e.stream with Some s -> Stream.hypotheses s | None -> 0)
           (Supervisor.restarts e.sup)
           (match e.stream with Some s -> Stream.queued s | None -> 0)
           (Supervisor.quarantined e.sup) e.shed ckpt_age));
  Buffer.add_string b
    (Printf.sprintf
       "totals accepted=%d active=%d finalized=%d failed=%d shed=%d busy=%d \
        restarts=%d periods=%d\n"
       (total st Accepted) (active_count st) (total st Finalized)
       (total st Failed) (total st Shed) (total st Busy) (total st Restart)
       (total_periods st));
  Buffer.contents b

let snapshot_text st id =
  match Hashtbl.find_opt st.entries id with
  | None -> Printf.sprintf "error: no such stream: %s\n" id
  | Some e ->
    (match e.stream with
     | None -> "error: stream has no live engine\n"
     | Some s ->
       (match Stream.snapshot s with
        | Error m -> "error: " ^ m ^ "\n"
        | Ok (snap, names) ->
          (match snap.Rt_engine.Engine.lub with
           | None -> "error: empty hypothesis set\n"
           | Some lub ->
             Printf.sprintf "stream %s periods=%d hypotheses=%d converged=%b\n%s\n"
               id snap.Rt_engine.Engine.periods
               (List.length snap.Rt_engine.Engine.hypotheses)
               snap.Rt_engine.Engine.converged
               (Rt_lattice.Depfun.to_string ?names lub))))

let respond_control st line =
  match Control.parse line with
  | Error m -> "error: " ^ m ^ "\n"
  | Ok Control.Status -> status_text st
  | Ok Control.Metrics ->
    publish st;
    Rt_obs.Json.to_string (Reg.to_json st.reg) ^ "\n"
  | Ok (Control.Snapshot id) -> snapshot_text st id
  | Ok Control.Flight ->
    Rt_obs.Json.to_string (Rt_obs.Flight.to_json st.flight) ^ "\n"
  | Ok Control.Prometheus ->
    publish st;
    Rt_obs.Prom.of_registry st.reg
  | Ok Control.Drain ->
    st.draining <- true;
    "OK draining\n"

let accept_ctrl st lfd =
  match Unix.accept lfd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | fd, _ ->
    Unix.set_nonblock fd;
    st.ctrl_clients <- (fd, Buffer.create 64) :: st.ctrl_clients

let drop_ctrl st fd =
  close_fd fd;
  st.ctrl_clients <- List.filter (fun (f, _) -> f <> fd) st.ctrl_clients

let handle_ctrl st fd buf =
  let chunk = Bytes.create 1024 in
  match Unix.read fd chunk 0 1024 with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> drop_ctrl st fd
  | 0 -> drop_ctrl st fd
  | n ->
    Buffer.add_subbytes buf chunk 0 n;
    let content = Buffer.contents buf in
    (match String.index_opt content '\n' with
     | Some i ->
       let resp = respond_control st (String.sub content 0 i) in
       write_all fd resp;
       drop_ctrl st fd
     | None -> if Buffer.length buf > 1024 then drop_ctrl st fd)

(* --- main loop ------------------------------------------------------- *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     close_fd fd;
     raise e);
  fd

let pump_entry st now e =
  match e.stream with
  | None -> ()
  | Some s ->
    let handled, status = Stream.pump s ~budget:periods_per_tick in
    if handled > 0 then begin
      Supervisor.note_progress e.sup ~now;
      st.total_handled <- st.total_handled + handled;
      e.last_fed <- Stream.periods_fed s;
      st.busy_tick <- true
    end;
    note_ckpt st e s;
    note_quarantine st e s;
    (match status with
     | Stream.Crashed m -> crash st now e ~drop_checkpoint:false m
     | Stream.Done -> finalize_entry st e
     | Stream.Blocked | Stream.More -> ())

let supervise_entry st now e =
  if not e.shed then begin
    match Supervisor.poll e.sup ~now with
    | Supervisor.Continue -> ()
    | Supervisor.Restart -> restart st now e
    | Supervisor.Idle ->
      logf "stream %s idle for %.1fs: finalizing" e.id
        st.cfg.policy.Supervisor.idle_timeout;
      finish_stream st now e
  end

(* Drive every stream to a terminal phase. A stream whose drain-time
   finish crashes lands in [Backing_off]; looping restarts it right away
   (no point honoring the delay while exiting) and retries, so the
   restart budget — not a single pass — decides between [Finalized] and
   [Failed], and the accepted = active + finalized + failed + shed
   accounting stays exact. *)
let drain_all st now =
  fl st Rt_obs.Flight.Info ~stream:"" ~kind:"drain.begin"
    (Printf.sprintf "%d active stream(s)" (active_count st));
  logf "draining %d active stream(s)" (active_count st);
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iter
      (fun id ->
        let e = Hashtbl.find st.entries id in
        if not e.shed then begin
          (match Supervisor.phase e.sup with
           | Supervisor.Backing_off _ ->
             restart st now e;
             progressed := true
           | Supervisor.Running | Supervisor.Failed _ | Supervisor.Finalized ->
             ());
          match (Supervisor.phase e.sup, e.stream) with
          | Supervisor.Running, Some _ ->
            finish_stream st now e;
            (match Supervisor.phase e.sup with
             | Supervisor.Backing_off _ -> progressed := true
             | _ -> ())
          | _, _ -> ()
        end)
      (List.rev st.order)
  done

let run ?clock cfg =
  let clock =
    match clock with
    | Some c -> c
    (* rtlint: allow RTL201 the injected clock drives supervision and rotation timing only; checkpoint and model bytes derive from stream content (the chaos job pins byte-equality) *)
    | None -> fun () -> float_of_int (Rt_obs.Registry.now_ns ()) /. 1e9
  in
  let mkdir what dir =
    Result.map_error (fun m -> what ^ ": " ^ m) (Rt_util.Atomic_file.mkdir_p dir)
  in
  match
    (match cfg.spool with
     | Some dir when not (Sys.file_exists dir) ->
       Error (Printf.sprintf "spool %s does not exist" dir)
     | Some dir when not (Sys.is_directory dir) ->
       Error (Printf.sprintf "spool %s is not a directory" dir)
     | _ ->
       if cfg.spool = None && cfg.listen = None then
         Error "nothing to serve: need --spool and/or --listen"
       else
         Result.bind (mkdir "out" cfg.out_dir) (fun () ->
             Option.fold ~none:(Ok ()) ~some:(mkdir "checkpoint dir")
               cfg.checkpoint_dir))
  with
  | Error m -> Error m
  | Ok () ->
    (match
       match cfg.store with
       | None -> Ok None
       | Some dir -> Result.map Option.some (Rt_store.Store.init dir)
     with
     | Error m -> Error ("store: " ^ m)
     | Ok store ->
    (match
       let data_l = Option.map listen_unix cfg.listen in
       let ctrl_l =
         try Option.map listen_unix cfg.control
         with e ->
           Option.iter close_fd data_l;
           raise e
       in
       (data_l, ctrl_l)
     with
     | exception Unix.Unix_error (e, _, arg) ->
       Error
         (Printf.sprintf "cannot listen on %s: %s" arg (Unix.error_message e))
     | data_l, ctrl_l ->
       let st =
         {
           cfg;
           reg = Reg.create ();
           flight = Rt_obs.Flight.create ~capacity:cfg.flight_capacity ();
           store;
           now = clock ();
           entries = Hashtbl.create 64;
           order = [];
           deferred = Hashtbl.create 16;
           conn_seq = 0;
           ctrl_clients = [];
           draining = false;
           running = true;
           busy_tick = false;
           total_handled = 0;
           retired_checkpoints = 0;
         }
       in
       (* registered up front, so a quiet daemon still reports 0 *)
       List.iter
         (fun ev -> ignore (Reg.counter st.reg (event_counter ev)))
         [ Accepted; Busy; Shed; Failed; Finalized; Restart; Quarantined ];
       let drain_req = ref false in
       if cfg.handle_signals then begin
         let h = Sys.Signal_handle (fun _ -> drain_req := true) in
         Sys.set_signal Sys.sigterm h;
         Sys.set_signal Sys.sigint h
       end;
       (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
        with Invalid_argument _ -> ());
       logf "serving%s%s%s (bound %d, %d max streams)"
         (match cfg.spool with Some d -> " spool " ^ d | None -> "")
         (match cfg.listen with Some p -> " listen " ^ p | None -> "")
         (match cfg.control with Some p -> " control " ^ p | None -> "")
         cfg.bound cfg.max_streams;
       fl st Rt_obs.Flight.Info ~stream:"" ~kind:"daemon.start"
         (Printf.sprintf "bound=%d max_streams=%d" cfg.bound cfg.max_streams);
       let outcome = ref Drained in
       let last_scan = ref neg_infinity in
       while st.running do
         let now = clock () in
         st.now <- now;
         if !drain_req then st.draining <- true;
         if now -. !last_scan >= cfg.tick then begin
           scan st now;
           last_scan := now
         end;
         (* select over listeners, data connections and control clients;
            doubles as the tick sleep when the previous pass was idle *)
         let fds =
           let l = List.map fst st.ctrl_clients in
           let l =
             fold_entries st
               (fun acc e ->
                 match e.source with
                 | Conn { cfd = Some fd; _ } when is_active e -> fd :: acc
                 | Conn _ | Spool _ -> acc)
               l
           in
           let l = match data_l with Some fd -> fd :: l | None -> l in
           match ctrl_l with Some fd -> fd :: l | None -> l
         in
         let timeout = if st.busy_tick then 0.0 else cfg.tick in
         st.busy_tick <- false;
         let ready =
           match Unix.select fds [] [] timeout with
           | r, _, _ -> r
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
         in
         let now = clock () in
         st.now <- now;
         List.iter
           (fun fd ->
             if Some fd = data_l then accept_data st now fd
             else if Some fd = ctrl_l then accept_ctrl st fd
             else
               match List.assoc_opt fd st.ctrl_clients with
               | Some buf -> handle_ctrl st fd buf
               | None ->
                 iter_entries st (fun e ->
                     match e.source with
                     | Conn ({ cfd = Some cfd; _ } as c) when cfd = fd ->
                       handle_conn st now e c fd
                     | Conn _ | Spool _ -> ()))
           ready;
         iter_entries st (fun e ->
             match (e.source, e.stream) with
             | Spool sp, Some s when is_active e -> step_spool st now e sp s
             | _, _ -> ());
         iter_entries st (fun e -> if is_active e then pump_entry st now e);
         iter_entries st (fun e -> supervise_entry st now e);
         (match cfg.stop_after_total with
          | Some n when st.total_handled >= n ->
            logf
              "stop-after-total reached (%d periods handled): exiting abruptly"
              st.total_handled;
            st.running <- false;
            outcome := Stopped
          | Some _ | None -> ());
         (match cfg.drain_after_total with
          | Some n when st.running && st.total_handled >= n ->
            st.draining <- true
          | Some _ | None -> ());
         if st.running && st.draining then begin
           drain_all st (clock ());
           st.running <- false
         end
       done;
       if !outcome = Drained then begin
         publish st;
         Option.iter
           (fun p ->
             Rt_util.Atomic_file.write p
               (Rt_obs.Json.to_string ~pretty:true (Reg.to_json st.reg));
             logf "wrote metrics to %s" p)
           cfg.metrics_path;
         logf
           "drained: %d accepted, %d finalized, %d failed, %d shed, %d busy \
            rejections, %d restarts, %d periods"
           (total st Accepted) (total st Finalized) (total st Failed)
           (total st Shed) (total st Busy) (total st Restart) (total_periods st)
       end;
       fl st Rt_obs.Flight.Info ~stream:"" ~kind:"daemon.exit"
         (match !outcome with
          | Drained -> "drained"
          | Stopped -> "stopped (stop-after-total)");
       dump_flight st;
       (match cfg.flight_path with
        | Some p -> logf "wrote flight dump to %s" p
        | None -> ());
       iter_entries st close_source;
       List.iter (fun (fd, _) -> close_fd fd) st.ctrl_clients;
       Option.iter close_fd data_l;
       Option.iter close_fd ctrl_l;
       List.iter
         (fun p -> Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) p)
         [ cfg.listen; cfg.control ];
       Ok !outcome))
