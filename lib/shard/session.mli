(** One learn session: trace lines in, a learned model out — the path
    every learner shares: [rtgen learn] (sharded or not, and each pass
    of [--auto]'s {!Auto.search}), [rtgen watch], and each stream of
    [rtgen serve] ([Rt_daemon.Stream]).

    A session owns the {!Rt_trace.Stream_io} parser over a caller's
    {!Rt_trace.Stream_io.source}, whose recover mode also salvages periods
    and keeps the quarantine account; the engine pairs, created when the
    first period is fed; one checkpoint image in a {!Rt_store.Slot} with
    tag check, fresh start on damage, replay-skip of the periods it holds,
    and a save every N fed periods; provenance, counters, and the final
    answer set plus the bound-1 fold parts. Only the period under
    construction is in memory — a sharded session also holds the round it
    is collecting, at most one period per pair. An exception from the
    source propagates out of {!next} and leaves the session as it was, so
    a source may signal "no data yet" by raising, and the caller retries
    later (the daemon does). *)

(** A main engine plus an optional bound-1 companion, whose pre-weaken
    matrix is the fleet-merge and shard-fold interchange
    ({!Shard.fold_summaries}). At bound 1 the main engine is its own
    companion. *)
module Pair : sig
  type t

  val create :
    ?window:int -> ?obs:Rt_obs.Registry.t -> ?flight:Rt_obs.Flight.scope ->
    ntasks:int -> companion:bool -> Rt_engine.Engine.algorithm -> t
  (** The companion exists only when asked for and the main engine is a
      heuristic above bound 1. [obs] and [flight] attach to the main
      engine. *)

  val main : t -> Rt_engine.Engine.t

  val feed : t -> Rt_trace.Period.t -> unit

  val summary_of : Rt_engine.Engine.t -> Rt_lattice.Depfun.t option
  (** The LUB of an engine's current hypotheses — its {e pre-weaken}
      fold contribution; [None] iff there are none (inconsistent
      input). A bound-1 engine's is the matrix published to a store as
      the fleet-merge interchange. *)

  val part : t -> (Rt_lattice.Depfun.t option * bool array array) option
  (** The bound-1 engine's summary and the violation matrix; [None]
      without a bound-1 engine (exact, or no companion above bound 1). *)
end

type checkpoint = {
  slot : Rt_store.Slot.t;
  tag : string;     (** binds the checkpoint to its input *)
  source : string;  (** recorded in store metadata *)
  every : int;      (** fed periods between saves *)
}
(** A save writes every engine, each pair's main then its companion,
    to [slot] as one image in one [Slot.save], tagged [tag] plus
    ["+shards<K>"] when sharded. *)

type resume =
  | Fresh                (** no checkpoint to resume *)
  | Resumed of int       (** periods the checkpoint already holds *)
  | Corrupt of string
  (** unreadable, undecodable, or not this session's shape (engine
      count, bounds, round-robin shares, companions at their main
      engine's period; engines cannot rewind); the session starts
      fresh *)
  | Foreign of string
  (** intact but tagged for other input (the tag found); the session
      starts fresh, and the caller decides whether to refuse instead *)

type t

val create :
  ?mode:Rt_trace.Stream_io.mode -> ?eps:int -> ?window:int ->
  ?pool:Rt_util.Domain_pool.t -> ?obs:Rt_obs.Registry.t ->
  ?flight:Rt_obs.Flight.scope -> ?companion:bool -> ?shards:int ->
  ?checkpoint:checkpoint -> Rt_engine.Engine.algorithm ->
  Rt_trace.Stream_io.source -> t * resume
(** [mode] and [eps] are the parser's; [window] is the engines' and
    the parser's (for salvage). [companion] adds a bound-1 companion to
    the pair.
    [shards] runs that many pairs with companions instead, for
    {!fold}: period [n] goes to pair [n mod shards], collected a round
    (one period per pair) at a time, and each round's pairs are fed in
    parallel on [pool] (which an unsharded session ignores). The pool
    never reaches the pairs' engines, and neither do [obs] nor
    [flight]. With [obs], each
    period's parse runs in an ["ingest.parse"] span and each save in a
    ["checkpoint.write"] span. With [flight], the main engine records
    its periods and each save a ["checkpoint.write"] event.
    @raise Invalid_argument when [shards < 1]. *)

type step =
  | Fed      (** the period went to an engine pair (when sharded, into
                 the round being collected) *)
  | Skipped  (** replay-skip: the resumed checkpoint holds it *)

val next : t -> (step option, Rt_trace.Stream_io.parse_error) result
(** Parse and handle the next period the parser keeps; [Ok None] at end
    of input. Periods recover mode drops never reach the session: they
    are in {!quarantine} (see {!dropped_since}).
    @raise Rt_learn.Exact.Blowup from an exact core. *)

val periods_fed : t -> int
(** Periods fed, a resumed checkpoint's and an open round's included. *)

val hypotheses : t -> int
(** Hypotheses across the main engines. This, {!save}, {!publish},
    {!snapshot}, {!finalize}, {!parts}, {!fold} and {!shards} first
    feed a sharded session's open round, so what they report does not
    depend on the round barrier. *)

val checkpoints_written : t -> int

val names : t -> string array option
(** The task names, once the [tasks] header was parsed. *)

val quarantine : t -> Rt_trace.Quarantine.t
(** The parser's ingestion account so far
    ({!Rt_trace.Stream_io.quarantine}). *)

val dropped_since : t -> int -> Rt_trace.Quarantine.period_drop list
(** {!Rt_trace.Stream_io.dropped_since} on the session's parser. *)

val save : t -> unit
(** Checkpoint now (no-op without a checkpoint or an engine). *)

val discard : t -> unit
(** Remove the checkpoint: the run completed. *)

val publish : t -> unit
(** Record provenance in the engines and publish their counters; with a
    registry, also the ingest counters ({!Rt_trace.Stream_io.publish}),
    with a checkpoint a ["checkpoint.resumed_periods"] gauge of the
    periods it resumed (0 for a fresh run; they were skipped, not fed),
    and, when sharded, the ["shard.shards"], ["shard.periods"] and
    ["shard.messages"] totals and a ["shard.worker_us"] histogram of
    each pair's summed feed time (recorded by the first publish
    only). *)

val snapshot : t -> Rt_engine.Engine.snapshot option
(** The (first) main engine's model so far; [None] before any period
    was fed. *)

val finalize : t -> Rt_engine.Engine.snapshot option
(** {!publish}, then the (first) main engine's final snapshot. *)

val parts : t -> (Rt_lattice.Depfun.t option * bool array array) array
(** Each pair's {!Pair.part} in shard order; empty when no pair has a
    bound-1 engine. *)

val fold : t -> Rt_lattice.Depfun.t option
(** {!Shard.fold_summaries} over {!parts}, in a ["shard.fold"] span with
    a registry; [None] when the trace is inconsistent. A session that
    fed no period folds to the bottom model over its task set
    ({!Rt_lattice.Depfun.create}), the LUB of no periods.
    @raise Invalid_argument before the tasks line was read, or when
    periods were fed but no pair has a bound-1 engine. *)

type shard = {
  periods : int;
  messages : int;
  hypotheses : Rt_lattice.Depfun.t list;  (** the main engine's *)
  feed_ns : int;     (** summed wall-clock feed time of the pair *)
}

val shards : t -> shard array
(** A sharded session's per-pair accounting in shard order; empty when
    unsharded or before any period was fed. *)
