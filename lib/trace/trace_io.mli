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
    periods are salvaged by {!Repair} or dropped, and everything the
    loader changed is accounted for in a {!Quarantine.t} report — a
    messy multi-hour CAN capture must not kill the run at line 3. *)

val to_string : Trace.t -> string

val save : string -> Trace.t -> unit
(** Write to a file path, atomically (tmp + rename): an interrupted
    export never leaves a truncated trace on disk. *)

type parse_error = Stream_io.parse_error = { line : int; message : string }

type mode = Stream_io.mode

val of_string :
  ?mode:mode -> ?eps:int -> ?obs:Rt_obs.Registry.t -> string ->
  (Trace.t * Quarantine.t, parse_error) result
(** In [`Strict] mode (default) the quarantine report is always empty
    apart from its kept count, and any damage is an [Error] — exactly
    the seed behaviour. In [`Recover] mode only a missing/unusable
    [tasks] header is an [Error]; everything else degrades into the
    report. [eps] is the clock-skew tolerance forwarded to {!Repair}
    (default 0). With [obs], the parse runs inside an ["ingest.parse"]
    span and the quarantine tallies are published as ["ingest.*"]
    counters (overwritten, so a later {!semantic_filter} pass owns the
    final numbers). *)

val of_string_exn : string -> Trace.t
(** Strict. @raise Invalid_argument with position information. *)

val load :
  ?mode:mode -> ?eps:int -> ?obs:Rt_obs.Registry.t -> string ->
  (Trace.t * Quarantine.t, parse_error) result
(** Read from a file path, line by line through {!Stream_io} — the
    file is never held in memory as one string. *)

val salvage_period :
  ?window:int -> Period.t ->
  [ `Clean | `Excised of Period.t * int | `Dropped ]
(** The per-period core of {!semantic_filter}, exposed for streaming
    pipelines that see one period at a time. [`Clean]: every message has
    a non-empty candidate set. [`Excised (p', n)]: [n] inexplicable
    frames were cut and the period re-validated. [`Dropped]: the period
    does not survive excision. [window] must match the learner's. *)

val salvage_account :
  Quarantine.t -> excised:(int * int) list -> dropped_idx:int list ->
  Quarantine.t
(** Fold {!salvage_period} outcomes back into an ingestion account:
    [excised] is [(period_index, frames)] per [`Excised] period (in
    trace order), [dropped_idx] the indices of [`Dropped] ones. The
    exact accounting {!semantic_filter} applies — streaming callers use
    it so batch and streamed quarantine reports are identical. *)

val publish_quarantine_to : Rt_obs.Registry.t -> Quarantine.t -> unit
(** Publish the account as ["ingest.*"] counters (overwriting). *)

val publish_salvage : Rt_obs.Registry.t -> Quarantine.t -> frames_excised:int -> unit
(** {!publish_quarantine_to} plus the ["ingest.frames_excised"] total —
    what {!semantic_filter} publishes. *)

val semantic_filter :
  ?window:int -> ?obs:Rt_obs.Registry.t ->
  Trace.t -> Quarantine.t -> Trace.t * Quarantine.t
(** Second-stage quarantine for [`Recover] pipelines. A structurally
    valid period can still carry a message with an empty candidate set
    [A_m] ({!Candidates.unexplained}) — e.g. a spliced bogus frame, or a
    real frame whose sender's events were lost — and a single such
    message collapses the learner's hypothesis set to the empty set.
    This pass excises the inexplicable frames' edges and re-validates
    the period (recorded as a repair in the report); if the period does
    not survive excision it is dropped with a reason. [window] must
    match the one later passed to the learner. Feed it the result of a
    [`Recover]-mode {!load}/{!of_string}. *)
