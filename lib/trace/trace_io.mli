(** Textual trace format, the stand-in for the GM logging device's dump.

    {v
    # rtgen-trace v1
    tasks t1 t2 t3 t4
    period 0
    100 start t1
    250 end t1
    260 rise 0x101
    300 fall 0x101
    period 1
    ...
    v}

    Task events name the task; message events give the bus id in hex.
    Timestamps are microseconds relative to the period start.

    Loading has two modes. [`Strict] (the default) rejects the first
    malformed line or period, as a regression gate should. [`Recover]
    is the production ingest path: malformed lines are skipped, damaged
    periods are mended by {!Repair}, inexplicable frames are cut, and
    periods beyond saving are dropped ({!Stream_io.create}); everything
    the loader changed is accounted for in a {!Quarantine.t} report — a
    messy multi-hour CAN capture must not kill the run at line 3. *)

val render :
  Rt_task.Task_set.t -> ((int -> Event.t list -> unit) -> unit) -> string
(** [render task_set iter] is the text of a trace over [task_set] whose
    periods [iter] hands out in order, as (index, events): the one
    writer of the format, for whole and corrupted traces alike. *)

val to_string : Trace.t -> string

val save : string -> Trace.t -> unit
(** Write to a file path, atomically (tmp + rename): an interrupted
    export never leaves a truncated trace on disk. *)

type parse_error = Stream_io.parse_error = { line : int; message : string }

type mode = Stream_io.mode

val of_string :
  ?mode:mode -> ?eps:int -> ?window:int -> string -> (Trace.t * Quarantine.t, parse_error) result
(** In [`Strict] mode (default) the quarantine report is always empty
    apart from its kept count, and any damage is an [Error] — exactly
    the seed behaviour. In [`Recover] mode only a missing/unusable
    [tasks] header is an [Error]; everything else degrades into the
    report. [eps] is the clock-skew tolerance forwarded to {!Repair}
    (default 0); [window] the candidate window recover-mode salvage
    judges frames under, which must match the learner's. *)

val of_string_exn : string -> Trace.t
(** Strict. @raise Invalid_argument with position information. *)

val load :
  ?mode:mode -> ?eps:int -> ?window:int -> string -> (Trace.t * Quarantine.t, parse_error) result
(** Read from a file path, line by line through {!Stream_io} — the
    file is never held in memory as one string. *)
