(** The quarantine report of a [`Recover]-mode ingestion: everything the
    loader skipped, repaired or dropped instead of raising. Real CAN
    captures are messy — truncated logs, duplicated frames, missing
    edges — and a production ingest path must degrade gracefully while
    telling the analyst exactly how much evidence was lost.

    A report is assembled by {!Stream_io} (and so by {!Trace_io}) as the
    parser closes each period, and consumed by [rtgen learn --mode recover] / [rtgen analyze]: dropped
    periods shrink the instance set, so the learned model's confidence
    degrades with the drop fraction. *)

type line_issue = {
  line : int;        (** 1-based line number in the source file *)
  message : string;
}

type period_repair = {
  period_index : int;
  fixes : string list;  (** human-readable, from {!Repair.string_of_fix} *)
}

type period_drop = {
  period_index : int;
  reason : string;
}

type t = {
  skipped_lines : line_issue list;   (** in file order *)
  kept : int;                        (** periods ingested untouched *)
  repaired : period_repair list;     (** in trace order *)
  dropped : period_drop list;        (** in trace order *)
}

val empty : t

val is_empty : t -> bool
(** No skipped lines, no repairs, no drops — the input was pristine
    (regardless of how many periods were kept). *)

val periods_seen : t -> int
(** [kept + repaired + dropped]. *)

val confidence : t -> float
(** Fraction of evidence the learner actually saw: kept periods count
    1, repaired periods 1/2 (their timing is partly synthetic), dropped
    periods 0. [1.0] when no period was seen at all (nothing to
    distrust). *)

val summary : t -> string
(** One line: ["quarantine: 24 kept, 2 repaired, 1 dropped, 3 lines skipped (confidence 0.87)"]. *)

val to_string : t -> string
(** Full multi-line report: the summary plus one line per skipped line,
    repair and drop. *)

val pp : Format.formatter -> t -> unit

val publish : ?frames_excised:int -> Rt_obs.Registry.t -> t -> unit
(** Publish the account as ["ingest.*"] counters (overwriting), plus
    ["ingest.frames_excised"] when given — recover-mode salvage's
    total. *)
