(** Incremental parsing of the rtgen-trace v1 text format: the streaming
    twin of {!Trace_io}.

    A parser pulls lines one at a time from a {!source} and yields each
    period as soon as its closing boundary (the next [period] line or
    end of input) is seen, holding only the period under construction
    in memory. {!Trace_io.of_string} is a thin wrapper that drains one of
    these over an in-memory string, so batch and streaming parses share
    one implementation and agree byte-for-byte on periods, errors and
    quarantine accounting.

    One {!Cutter} turns ingest bytes into lines for every source. A
    byte-fed parser ({!Input}: a file or stdin, which every learn reads
    through [Rt_shard.Session], a string, {!follow_input}) reads each
    line in place as bounds in the cutter's buffer, so a line costs no
    string; the bounds hold until the cutter's next refill, which comes
    only after the parser is done with the line. {!lines_of_string},
    {!lines_of_channel}, {!Tail} (so [watch --follow PATH] and the
    [rtgend] spool follower) and the [rtgend] data connections cut
    strings with the same cutter, and a parser over such strings
    ({!Lines}: a followed path, the daemon's queue) reads each in place
    too. A partial line therefore means the same everywhere: it is held
    back until its newline, and when its source ends it counts as a
    line (a truncated file's is discarded instead). Sources never
    materialize the input. *)

type line_source = unit -> string option
(** The next raw line (without its newline), or [None] at end of input.
    Once [None] is returned the parser never calls the source again. *)

type input = bytes -> int -> int -> int
(** [input buf off len] puts at most [len] bytes at [buf.[off]] and
    returns how many; 0 means end of input. [Stdlib.input ic] is one. *)

(** A refill buffer cut at newlines: bytes go in by {!refill}, complete
    lines come out by {!cut_bounds} (or {!cut}), and the unterminated
    last line by {!rest_bounds} (or {!rest}) once the caller knows its
    source has ended. *)
module Cutter : sig
  type t

  val create : unit -> t
  (** An empty cutter; its buffer is allocated by the first {!refill}. *)

  val refill : t -> (bytes -> int -> int -> int) -> int
  (** [refill t input] calls [input buf off len] once to append at most
      [len] bytes at [buf.[off]], growing the buffer when a line fills
      it, and returns what [input] returned: 0 means nothing was read.
      An exception from [input] leaves the cutter holding what it held. *)

  val cut_bounds : t -> bool
  (** Cut the next complete line, without its newline: it is then
      [buffer t] from [line_lo t] to [line_hi t] (exclusive), until the
      next {!refill} or {!clear}. [false] until a refill brings one. *)

  val rest_bounds : t -> bool
  (** Cut the bytes after the last newline as a line, if there are any
      — the final line of a source that ended without a newline. Call
      it once {!cut_bounds} returns [false]. *)

  val buffer : t -> bytes
  (** The buffer the last line was cut from; never write to it. *)

  val line_lo : t -> int
  val line_hi : t -> int

  val cut : t -> string option
  (** {!cut_bounds}, the line copied out. *)

  val rest : t -> string option
  (** {!rest_bounds}, the line copied out. *)

  val clear : t -> unit
  (** Discard every byte held and give the buffer back. *)
end

val lines_of_string : string -> line_source
(** The lines {!lines_of_channel} would read from a file holding the
    string: a trailing newline ends the last line and opens no empty
    one, and [""] has no lines. Every source therefore numbers lines —
    and cites them in errors — identically. *)

val lines_of_channel : in_channel -> line_source
(** Read lines as they become available; blocks with the channel. The
    channel is not closed on exhaustion — the caller owns it. *)

val string_input : string -> input
(** The string's bytes, then end of input. *)

val follow_input :
  ?poll_interval:float -> stop:(unit -> bool) -> in_channel -> input
(** [tail -f] over a growing file: at end of file, sleep [poll_interval]
    seconds (default 0.05) and retry until [stop ()] is true, then end.
    A cutter over it never hands a half-written line out early, and
    yields the final partial line once [stop ()] ends the input. Bound
    to one open channel, so it cannot survive log rotation — use
    {!follow_path} for a path-tracking follower. *)

(** The non-blocking core of path following: one {!Tail.step} yields at
    most one line and never sleeps, so a single-threaded daemon can
    multiplex hundreds of tails. Detects log rotation (the path's
    device/inode changed), truncation (the file shrank below the read
    position) and disappearance, reopening as needed. Lines are cut by
    a {!Cutter} refilled from the open file. [rtgen watch --follow] and
    the [rtgend] spool follower share this logic. *)
module Tail : sig
  type event =
    | Line of string  (** a complete line (newline seen) *)
    | Opened          (** the path was (re)opened; reading starts at 0 *)
    | Waiting         (** at end of data; the same file may still grow *)
    | Rotated
    (** the path now names a different inode: the old file's final
        partial line (if any) was yielded as a [Line] just before this,
        and the next step reopens the new file *)
    | Truncated
    (** the file shrank below the read position: the partial line is
        discarded and the next step reopens from the start *)
    | Vanished        (** the path does not exist (yet, or mid-rotation) *)

  type t

  val create : string -> t
  (** No I/O happens until the first {!step}. *)

  val step : t -> event

  val pending : t -> string option
  (** Take the partial line under assembly ({!Cutter.rest}), if any —
      the final flush when a follower decides the writer is gone for
      good. *)

  val close : t -> unit
  (** Close the file and discard the partial line: take it with
      {!pending} first. *)
end

val follow_path :
  ?poll_interval:float -> ?max_backoff:float ->
  ?on_event:(Tail.event -> unit) -> stop:(unit -> bool) ->
  string -> line_source
(** A follower like {!follow_input}, by path, surviving rotation and
    truncation: lines keep flowing across a logrotate-style rename or a
    copytruncate shrink, and a missing file is retried with exponential
    backoff capped at [max_backoff] (default 1s) instead of failing.
    When [stop ()] becomes true the follower yields any final partial
    line and ends. [on_event] observes the non-line transitions the follower
    absorbs ([Opened], [Rotated], [Truncated]) — e.g. to route them
    into a flight recorder. *)

type parse_error = { line : int; message : string }

type mode = [ `Strict | `Recover ]

type t

type source =
  | Lines of line_source  (** one string per line *)
  | Input of input        (** bytes, cut into lines in the parser's cutter *)

val of_source : ?mode:mode -> ?eps:int -> ?window:int -> source -> t
(** [`Strict] (default) fails on the first malformed line or period.
    [`Recover] skips malformed lines and repairs, with {!Repair}, the
    periods that fail validation; a valid period skips {!Repair},
    which would leave it unchanged. Then it salvages each period: a
    structurally valid period can still carry a message with an empty
    candidate set [A_m] ({!Candidates.admissible}) — a spliced bogus
    frame, or a real frame whose sender's events were lost — and one
    such message collapses the learner's hypothesis set to the empty
    set. Salvage cuts those frames ({!Period.filter_msgs}); the
    period's repair entry gains an ["excised N inexplicable frame(s)"]
    fix. Every verdict lands in the quarantine account as the period
    closes, so the account is in trace order. [eps] is the clock-skew
    tolerance forwarded to {!Repair}; [window] the candidate window
    salvage judges frames under, which must match the learner's.

    Event lines go straight into the parser's {!Period.Builder}: on a
    period that validates, no {!Event.t} is built. *)

val create : ?mode:mode -> ?eps:int -> ?window:int -> line_source -> t
(** [of_source (Lines source)]. *)

val next : t -> (Period.t option, parse_error) result
(** The next period of the stream; [Ok None] at end of input. Both end
    of input and errors are latched: subsequent calls return the same
    answer. A stream that ends before any [tasks] line is an error even
    in recover mode — there is nothing to parse events against. *)

val task_set : t -> Rt_task.Task_set.t option
(** The task set, once its header line has been parsed. *)

val quarantine : t -> Quarantine.t
(** Snapshot of the account so far; grows as the stream is consumed. *)

val dropped_since : t -> int -> Quarantine.period_drop list
(** [dropped_since t n]: the account's drops after its first [n], in
    trace order, in time proportional to their number — a follower's
    way to report each drop once without rebuilding the account. *)

val publish : Rt_obs.Registry.t -> t -> unit
(** {!Quarantine.publish} of the account so far, with
    ["ingest.frames_excised"] in recover mode. *)
