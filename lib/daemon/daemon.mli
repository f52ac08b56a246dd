(** rtgend: the supervised multi-stream learning daemon behind
    [rtgen serve].

    One single-threaded [Unix.select] loop multiplexes every input —
    trace connections on a unix socket, spool files followed with
    {!Rt_trace.Stream_io.Tail}, control clients — and turns each
    stream's crank with a bounded per-tick budget (64 periods), so no
    stream can starve the others.

    Failure domains are per-stream by construction: a crash (parse
    latch, engine exception, vanished/rotated spool file) goes to that
    stream's {!Supervisor}; queue overflow on a socket stream sheds
    {e that stream}, never the daemon; over-limit connects are refused
    with a clean [BUSY] line; corrupt stream content degrades through
    recover-mode quarantine. Spool streams checkpoint periodically
    (atomic tmp+rename, the [learn --checkpoint] format) so a SIGKILLed
    daemon restarted over the same spool finishes with models
    byte-equal to an uninterrupted run.

    The event totals (streams accepted, finalized, failed, shed and
    quarantined, BUSY refusals, restarts) are [daemon.*] counters of
    the daemon's metrics registry and nowhere else: [status], the
    drain log line and the metrics sinks all read them there. *)

type config = {
  spool : string option;          (** directory of [*.trace] files to follow *)
  listen : string option;         (** unix socket accepting trace streams *)
  control : string option;        (** unix socket speaking {!Control} *)
  out_dir : string;               (** where [ID.model] files land *)
  checkpoint_dir : string option; (** where [ID.ckpt] files land *)
  store : string option;
      (** content-addressed {!Rt_store.Store} directory (created on
          demand). When set it supersedes [checkpoint_dir]: spool
          streams checkpoint to [ckpt/ID] refs, and every finalized
          model is also committed as a [model/ID] generation (the
          fleet-merge / drift-diff interchange) in addition to the
          [out_dir] file. *)
  checkpoint_every : int;         (** periods between checkpoints *)
  bound : int;                    (** heuristic bound for every stream *)
  window : int option;
  eps : int option;
  max_streams : int;              (** admission limit on live streams *)
  queue_capacity : int;           (** per-stream ingest queue, in lines *)
  tick : float;                   (** select timeout / spool scan cadence *)
  policy : Supervisor.policy;
  metrics_path : string option;   (** metrics JSON dumped at exit *)
  flight_capacity : int;          (** flight-recorder ring size (events) *)
  flight_path : string option;
      (** flight dump (rtgen-flight JSON) written at exit and eagerly on
          every stream failure / quarantine latch *)
  stop_after_total : int option;
      (** abrupt exit (no final checkpoints, no models) once this many
          periods were handled — deterministic SIGKILL emulation *)
  drain_after_total : int option;
      (** switch to draining once this many periods were handled —
          deterministic end-of-test trigger *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT → drain handlers (off for in-process
          tests, which must not clobber the host's handlers) *)
}

val default : config
(** No sources, [out_dir = "."], bound 2, 64-stream limit, 4096-line
    queues, 50 ms tick, checkpoint every 64 periods,
    {!Supervisor.default_policy}, signals handled. *)

type outcome =
  | Drained   (** every stream finalized (or terminally failed) *)
  | Stopped   (** [stop_after_total] hit: left as a kill would *)

val run : ?clock:(unit -> float) -> config -> (outcome, string) result
(** Run the daemon to completion. [Error] only for setup failures
    (unusable socket path, missing spool directory); per-stream trouble
    is supervised, counted and reported, never fatal. *)
