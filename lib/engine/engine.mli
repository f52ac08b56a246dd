(** The incremental learning engine: one period in, updated model out.

    This is the per-period fold the paper's algorithms actually are,
    surfaced as an API. An engine wraps either core ({!Rt_learn.Exact}
    or {!Rt_learn.Heuristic}); callers [feed] it periods from any source
    — a batch {!Rt_trace.Trace.t}, a {!Rt_trace.Stream_io} reader over
    a file or a growing capture — and may take a {!snapshot} at any
    point mid-stream. Feeding the periods of a trace in order and
    finalizing is {e exactly} the core's batch run on that trace
    ([Heuristic.run], [Exact.run]): same hypotheses, same LUB, same
    published counters.

    Instrumentation (with [obs]): an ["engine.feed_ns"] latency
    histogram and ["engine.periods_in_flight"] /
    ["engine.messages_in_flight"] gauges are recorded live, and
    ["engine.periods"] / ["engine.messages"] counter totals are
    published at snapshot time from the core's own state — which
    travels through checkpoints — so the totals are deterministic
    across [-j] levels and across a kill/resume. *)

type algorithm =
  | Exact of { limit : int option }  (** precise; [limit] bounds the set *)
  | Heuristic of { bound : int }     (** bounded width *)

type t

type snapshot = {
  hypotheses : Rt_lattice.Depfun.t list;  (** the answer set, so far *)
  lub : Rt_lattice.Depfun.t option;       (** [⊔ D*]; [None] iff empty *)
  converged : bool;                       (** exactly one hypothesis *)
  consistent : bool;                      (** answer set non-empty *)
  periods : int;                          (** periods fed so far *)
  messages : int;                         (** bus messages fed so far *)
}

val create :
  ?window:int -> ?obs:Rt_obs.Registry.t -> ?flight:Rt_obs.Flight.scope ->
  ntasks:int -> algorithm -> t
(** A fresh engine holding only [{d⊥}]. [flight] attaches a flight-recorder scope: each
    {!feed} appends one [Debug]-severity ["engine.period"] event. *)

val of_heuristic :
  ?obs:Rt_obs.Registry.t -> ?flight:Rt_obs.Flight.scope ->
  Rt_learn.Heuristic.state -> t
(** Wrap an existing heuristic state — e.g. one resumed from a
    checkpoint. [obs] attaches the engine-level instrumentation (the
    state keeps its own registry attachment for core metrics). *)

val feed : t -> Rt_trace.Period.t -> unit
(** Consume one period.
    @raise Rt_learn.Exact.Blowup when the exact working set exceeds
    its limit. *)

val periods_fed : t -> int

val messages_fed : t -> int

val current : t -> Rt_lattice.Depfun.t list
(** The current hypothesis list (fresh copies), cheapest first. *)

val violations : t -> bool array array option
(** A copy of the heuristic core's accumulated violation matrix
    ({!Rt_learn.Heuristic.violations}); [None] for an exact-core
    engine. Consumed by {!Rt_shard} when folding per-shard engines. *)

val publish : t -> unit
(** Push the core's and the engine's counter totals into the attached
    registry without building a snapshot. *)

val snapshot : t -> snapshot
(** The model learned from everything fed so far; also publishes the
    counter totals. Non-destructive — feeding may continue, and a
    mid-stream snapshot followed by more feeding equals an
    uninterrupted run. *)

val finalize : t -> snapshot
(** The terminal {!snapshot}: take the final answer and publish totals.
    The engine remains usable, but by convention nothing is fed after
    finalizing. *)

val set_provenance : t -> dropped:int -> repaired:int -> unit
(** Record how many periods ingestion quarantined before the engine
    ever saw them (heuristic core only; no-op for exact). *)

val checkpoint : ?tag:string -> t -> (string, string) result
(** Serialize the core state ({!Rt_learn.Heuristic.checkpoint}).
    [Error] for an exact-core engine, which has no checkpoint format. *)

val image : ?tag:string -> t list -> (string, string) result
(** Several engines as one image ({!Rt_learn.Heuristic.checkpoint});
    [checkpoint ?tag e] is [image ?tag [e]]. {!Rt_learn.Heuristic.resume}
    reads it back, and {!of_heuristic} wraps the states. *)
