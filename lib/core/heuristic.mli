(** The polynomial bounded-width algorithm (paper §3.2): the hypothesis
    set is an ordered list, sorted by the weight of Definition 8; whenever
    an insertion would make the list longer than the user-specified
    [bound], the two lightest hypotheses are replaced by their least upper
    bound.

    Sound but conservative: the result still matches the trace, but is no
    longer guaranteed minimal. With [bound = 1] the result is the least
    upper bound of the exact algorithm's answer set (the paper's Lemma). *)

type stats = {
  periods_processed : int;
  merges : int;    (** number of LUB merges forced by the bound *)
  created : int;
}

type counters = {
  branches : int;    (** generalization attempts: parents × candidate pairs *)
  dedup_hits : int;  (** children rejected by the working set as duplicates *)
  evictions : int;   (** hypotheses consumed by bound-forced merges *)
  weakenings : int;  (** matrix cells weakened at period boundaries *)
  end_dedup : int;   (** duplicates unified by end-of-period dedup *)
  nonminimal : int;  (** non-minimal hypotheses pruned at period end *)
}
(** Observability counters, disjoint from {!stats} (which is the paper's
    cost model and is asserted against the reference oracle). Counted
    unconditionally, as plain integer stores. They travel through
    {!checkpoint}/{!resume}, so a resumed run reports the same totals as
    an uninterrupted one. *)

type outcome = {
  hypotheses : Rt_lattice.Depfun.t list;
  (** Final hypotheses, lightest first; at most [bound] of them; empty iff
      the trace is inconsistent with the model of computation. *)
  stats : stats;
}

type merge_policy = Workset.victim_policy =
  | Lightest_pair  (** the paper's rule: merge the two lowest-weight *)
  | Heaviest_pair  (** ablation: merge the two highest-weight *)
  | First_last     (** ablation: merge the lightest with the heaviest *)

val run : ?policy:merge_policy -> ?window:int -> ?obs:Rt_obs.Registry.t ->
  bound:int -> Rt_trace.Trace.t -> outcome
(** With [obs], per-period ["learn.period"] spans (split into
    ["learn.messages"], ["learn.weaken"] and ["learn.postprocess"]), the
    candidate-size histogram, the working-set occupancy gauge and the
    final counter totals are recorded into the registry; without it,
    instrumentation costs integer stores only.
    @raise Invalid_argument if [bound < 1]. *)

val converged : outcome -> Rt_lattice.Depfun.t option

(** {2 Online learning}

    The bounded algorithm is inherently incremental: its state after [k]
    periods is independent of how the remaining trace will look. These
    functions expose that, for monitoring a live bus period by period. *)

type state

val init :
  ?policy:merge_policy -> ?window:int -> ?obs:Rt_obs.Registry.t ->
  ?closed_form:bool -> bound:int -> ntasks:int -> unit -> state
(** Fresh state over [ntasks] tasks, holding only [{d⊥}]. At bound 1 a
    message is learned in closed form (DESIGN.md §20), with the same
    hypotheses, counters and checkpoints as the general branching path;
    [~closed_form:false] (default [true]) keeps the general path, the
    oracle the closed form is tested against. A resumed state always
    takes the closed form at bound 1. *)

val feed : state -> Rt_trace.Period.t -> unit
(** Consume one period (messages, then end-of-period post-processing). *)

val current : state -> Rt_lattice.Depfun.t list
(** The current hypothesis list, lightest first (fresh copies). *)

val bound : state -> int
(** The working-set bound the state was created with; exposed so
    auditors ({!Rt_check.Model_check}) can verify a resumed checkpoint
    respects it. *)

val stats : state -> stats

val messages_processed : state -> int
(** Bus messages consumed so far, across all fed periods. Travels
    through {!checkpoint}/{!resume} like the other totals. *)

val violations : state -> bool array array
(** A copy of the accumulated violation matrix — which ordered pairs
    [(a, b)] have had [a] execute in some period where [b] did not.
    This is the evidence the end-of-period weakening pass conditions
    on; the shard fold ({!Rt_shard}) unions these matrices across
    shards to reproduce the monolithic run's weakenings exactly. *)

val counters : state -> counters
(** The current observability totals (see {!type-counters}). *)

val publish : state -> unit
(** Export the state-held totals ([learn.periods], [learn.merges],
    [learn.branches], …, plus provenance) into the attached registry as
    counters, overwriting previous values. No-op without [obs]. Totals
    are pushed once here rather than incremented live so that fresh and
    checkpoint-resumed runs surface identical numbers. *)

val snapshot : state -> outcome
(** [current] and [stats] packaged like a [run] result; also
    {!publish}es. *)

(** {2 Provenance}

    When ingestion ran in recover mode, the learner never saw the periods
    the loader dropped, and saw repaired approximations of others. These
    counters travel with the state (and through checkpoints) so that
    downstream analysis can report how degraded the learned model's
    evidence is. They are deliberately {e not} part of [stats], which
    characterises the algorithm's own work. *)

type provenance = {
  periods_dropped : int;   (** quarantined periods the learner never saw *)
  periods_repaired : int;  (** periods repaired before feeding *)
}

val provenance : state -> provenance

val set_provenance : state -> dropped:int -> repaired:int -> unit
(** @raise Invalid_argument on negative counts. *)

(** {2 Checkpointing}

    A state between two [feed]s is fully described by its configuration,
    counters, violation matrix and hypothesis matrices (assumption sets
    are empty at period boundaries), so it serialises to a small
    versioned binary snapshot. [resume (checkpoint [st])] is
    indistinguishable from [st] for all future [feed]s: a run killed
    after period [k] and resumed produces the same outcome as an
    uninterrupted one. *)

val checkpoint : ?tag:string -> state list -> string
(** Serialise states as one image, their payloads under one integrity
    trailer. [tag] is an opaque caller string stored verbatim with the
    first — e.g. a digest of the source trace, so [resume] callers can
    refuse a checkpoint taken against different data. An empty list
    does not {!resume}. *)

val resume :
  ?obs:Rt_obs.Registry.t -> string -> (state list * string, string) result
(** Deserialise a {!checkpoint} into its states plus its tag. [obs]
    re-attaches a metrics registry to the first state. Malformed or version-mismatched input, and input
    without its integrity trailer, yields [Error message], never an
    exception. The current format is version 3 (version 1 predates the
    observability counters, version 2 the message count; both are
    refused). *)
