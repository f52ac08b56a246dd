(** Per-stream supervision: bounded restarts with exponential backoff,
    plus an idle watchdog.

    The machine is pure state + an injected notion of "now": every
    transition takes the current time as an argument and nothing here
    reads a clock or sleeps, so the whole policy is testable with a fake
    clock and no waiting. The daemon owns the clock and calls {!poll}
    once per tick; the verdicts tell it what to do, it never inspects
    the internals.

    There is no stall watchdog. The loop is single-threaded: a wedged
    parser or engine would block it before any supervision tick ran,
    and a stream that returns from its pump has either emptied its
    queue or produced a period at the same "now", so queued input
    never waits on a tick without progress. *)

type policy = {
  max_restarts : int;     (** crashes beyond this latch {!Failed} *)
  backoff_base : float;   (** first restart delay, seconds; doubles per
                              successive restart *)
  backoff_cap : float;    (** ceiling on the delay *)
  idle_timeout : float;
      (** seconds with no input at all before the stream is considered
          finished; [infinity] disables the idle watchdog *)
}

val default_policy : policy
(** 5 restarts, 0.1 s backoff doubling to a 5 s cap, idle watchdog
    off. *)

type phase =
  | Running
  | Backing_off of { until : float; reason : string }
  | Failed of string  (** terminal: restart budget exhausted *)
  | Finalized         (** terminal: model written *)

type t

val create : ?policy:policy -> now:float -> unit -> t

val phase : t -> phase

val restarts : t -> int

val quarantined : t -> bool

val set_quarantined : t -> unit
(** Latched flag: the stream's parser recovered over damage at least
    once. Purely informational — quarantine never affects supervision. *)

val backoff_delay : policy -> restart:int -> float
(** The delay before restart number [restart] (1-based):
    [base * 2^(restart-1)], capped. *)

val note_data : t -> now:float -> unit
(** Input arrived (a line was queued) — feeds the idle watchdog. *)

val note_progress : t -> now:float -> unit
(** Periods were produced — counts as activity for the idle
    watchdog. *)

val note_crash : t -> now:float -> reason:string -> [ `Backoff of float | `Failed ]
(** The stream's worker died (parse latch, engine exception, vanished
    input). Either schedules a restart — [`Backoff until] — or, when
    the budget is spent, latches {!Failed}. *)

val note_restart : t -> now:float -> unit
(** The daemon rebuilt the stream; back to {!Running} with the idle
    watchdog reset. *)

val fail : t -> reason:string -> unit
(** Latch {!Failed} immediately, bypassing the restart budget — for
    streams that cannot be rebuilt (a socket connection's data died
    with it) or whose final model was unusable. *)

val finalize : t -> unit

type verdict =
  | Continue   (** nothing to do this tick *)
  | Restart    (** backoff expired: rebuild the stream *)
  | Idle       (** idle watchdog fired — drain and finalize *)

val poll : t -> now:float -> verdict
(** One supervision tick. Terminal phases always [Continue]. *)
