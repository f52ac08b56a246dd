(** One supervised learning stream: a bounded line queue feeding a
    recover-mode {!Rt_shard.Session} — the parser (which also
    salvages), engine and periodic crash-safe checkpoints [rtgen learn]
    runs too.

    The daemon pushes raw trace lines in with {!offer_line} and turns
    the crank with {!pump}; nothing here blocks or reads a clock. The
    parser pulls from the bounded queue through a line source that
    raises a private starvation exception when the queue is empty and
    end-of-input has not been declared — the parser's own state survives
    that unwind, so a period split across pushes is assembled exactly as
    if the whole file had been read at once. That is what makes the
    recovery guarantee byte-exact: a stream runs the session
    [rtgen learn --mode recover] runs, so replaying a spool file through
    it renders that learn's model. After a restart the spool file is
    re-read from byte 0 and the session replay-skips the periods its
    checkpoint holds. *)

type config = {
  bound : int;              (** heuristic bound, as [learn --bound] *)
  window : int option;      (** candidate window of the engine and salvage *)
  eps : int option;         (** clock-skew tolerance for repair *)
  queue_capacity : int;     (** bounded ingest queue (lines) *)
  checkpoint : Rt_store.Slot.t option;
      (** where checkpoints go: a bare file, or a store ref (every
          write then becomes a new generation) *)
  checkpoint_every : int;   (** periods between checkpoints *)
}

type t

val create :
  id:string -> ?flight:Rt_obs.Flight.scope -> config -> t * string option
(** A fresh stream. When [config.checkpoint] names an existing,
    intact checkpoint whose tag matches [id], the engine resumes from it
    and replay-skip is armed; a corrupt, unreadable or foreign
    checkpoint falls back to a fresh start (never an exception), and the
    returned note says why. [flight] records ["stream.resume"] /
    ["checkpoint.stale"] here and ["checkpoint.write"] on every
    checkpoint, and is passed down to the engine. *)

val offer_line : t -> string -> [ `Ok | `Overflow ]
(** Queue one raw line. [`Overflow] means the bounded queue is full —
    the daemon's cue to shed the stream (socket sources) or to stop
    pulling (spool backpressure). Lines offered after end-of-input was
    declared are dropped with [`Ok]. *)

val close_input : t -> unit
(** Declare end-of-input: once the queue drains, the parser sees EOF. *)

val queued : t -> int

val queue_capacity : t -> int

type status =
  | Blocked          (** queue empty, input still open: need more data *)
  | More             (** budget exhausted with input still available *)
  | Done             (** parser hit end-of-input; ready to finalize *)
  | Crashed of string  (** parse latch or engine exception *)

val pump : t -> budget:int -> int * status
(** Process up to [budget] periods from the queue; returns how many
    periods were handled this call and why pumping stopped. Handled
    means fed plus replay-skipped: a period recover mode drops is only
    in {!quarantine}, and does not count against [budget]. After
    [Crashed] the stream is dead: the daemon discards it and lets the
    supervisor schedule a rebuild. *)

val periods_fed : t -> int
(** Cumulative periods the engine has eaten, including the
    checkpointed prefix — the daemon's progress metric. *)

val hypotheses : t -> int

val checkpoints_written : t -> int

val quarantine : t -> Rt_trace.Quarantine.t
(** Full ingestion account — parser skips, repairs, excisions and
    drops — identical to what [learn --mode recover] would report. *)

val snapshot : t -> (Rt_engine.Engine.snapshot * string array option, string) result
(** Current model plus task names (once the header was parsed);
    [Error] before the first period. *)

val render_model : t -> (Rt_lattice.Depfun.t * string array option, string) result
(** The final model: the LUB of the surviving hypotheses, and the task
    names once the header was parsed. Rendered with
    {!Rt_lattice.Depfun.to_string} it is the text [learn -o] writes;
    {!Rt_store.Codec.model_to_blob} gives its store blob. *)

val write_checkpoint : t -> unit
(** Force a checkpoint now (if configured and the engine exists),
    regardless of cadence. *)
