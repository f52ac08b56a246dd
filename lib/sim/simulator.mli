(** Discrete-event simulator: executes a design model period by period and
    emits the bus-logger trace the learner consumes.

    Per period: a logical outcome is drawn (which disjunction choices were
    made), then timing is simulated — tasks run under fixed-priority
    preemptive scheduling on their ECUs, become ready when all their chosen
    input messages have been delivered, and send their frames on the shared
    CAN bus when they finish. The logger records task start/end and frame
    rising/falling edges, exactly the four event kinds of the paper's
    traces. *)

type config = {
  periods : int;        (** number of periods to simulate *)
  seed : int;           (** PRNG seed; runs are reproducible *)
  wcet_jitter : bool;   (** execution times vary in [60%, 100%] of WCET *)
  release_jitter : int; (** max extra release delay for source tasks, us *)
  drop_rate : float;    (** fault injection: probability that the logger
                            misses a frame (both edges). The frame is still
                            delivered — only the log is incomplete — so the
                            downstream task appears to fire without a
                            cause, which the learner must surface as an
                            inconsistent trace or a more general model. *)
  jitter_spike_rate : float;
  (** fault injection: probability that a source release draws its jitter
      from [release_jitter * jitter_spike_factor] instead of
      [release_jitter] — a rare but large release delay (overloaded
      gateway, late interrupt). No effect when [release_jitter] is 0. *)
  jitter_spike_factor : int;  (** spike magnitude multiplier (default 4) *)
  glitch_rate : float;
  (** fault injection: expected bus glitches per period (geometric, capped
      at 32). A glitch is a 1–3 us spurious frame under a high CAN id
      (0x7c0+) that the logger records but no task sent or receives.
      Ground-truth [senders_receivers] covers only real frames, so with
      glitches enabled the truth array no longer aligns positionally with
      the trace's rising edges — match by CAN id range when evaluating. *)
}

val default_config : config
(** 27 periods (the case-study trace length), seed 42, jitter on, no
    drops. *)

exception Overrun of { period : int; time : int }
(** Raised when a period's activity does not finish before the next period
    starts — the design is not schedulable at this load. *)

type period_truth = {
  outcome : Rt_task.Design.outcome;
  senders_receivers : (int * int) array;
  (** ground-truth (sender, receiver) per message occurrence, in
      rising-edge order — what the bus logger cannot see. *)
}

val run : ?obs:Rt_obs.Registry.t -> Rt_task.Design.t -> config -> Rt_trace.Trace.t
(** With [obs], the simulation runs inside a ["sim.run"] span and
    publishes ["sim.*"] counters: periods, logged events, and the
    fault-injection tallies (frames dropped from the log, glitches,
    jitter spikes). *)

val run_with_truth :
  ?obs:Rt_obs.Registry.t ->
  Rt_task.Design.t -> config -> Rt_trace.Trace.t * period_truth array
(** Like [run] but also returns per-period ground truth, for evaluating
    candidate inference and baselines. *)
