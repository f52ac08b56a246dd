(** Facade over the two algorithms with a uniform report — the entry point
    a downstream user calls. Both entry points drive the incremental
    {!Engine}; [learn] on a trace is feeding its periods in order and
    finalizing, nothing more, which is why batch results and streamed
    results are identical. *)

type algorithm =
  | Exact                  (** precise, worst-case exponential *)
  | Heuristic of int       (** bounded width (the paper's heuristics) *)

type bound_step = {
  bound : int;             (** the heuristic bound this pass ran with *)
  lub_changed : bool;      (** did the LUB move vs. the previous pass? *)
  elapsed_s : float;       (** wall-clock time of this pass *)
  hypotheses : int;        (** answer-set size at this bound *)
}
(** One doubling step of {!auto}'s bound search. *)

type report = {
  algorithm : algorithm;
  hypotheses : Rt_lattice.Depfun.t list;  (** the answer set [D*] *)
  lub : Rt_lattice.Depfun.t option;
  (** [⊔ D*] — the single conservative answer (what §3.3 reports as
      [dLUB]); [None] iff the answer set is empty. *)
  converged : bool;        (** exactly one hypothesis left *)
  consistent : bool;       (** answer set non-empty *)
  elapsed_s : float;
  (** Wall-clock learning time, from the monotonic clock
      ({!Rt_obs.Registry.now_ns}) — never negative, even if NTP steps
      the system clock mid-run. *)
  periods : int;
  messages : int;
  trajectory : bound_step list;
  (** {!auto}'s per-bound history, in doubling order; [[]] for a plain
      {!learn}. Shows why the final bound was chosen. *)
}

val learn :
  ?exact_limit:int -> ?window:int -> ?obs:Rt_obs.Registry.t -> algorithm ->
  Rt_trace.Trace.t -> report

val auto :
  ?initial:int -> ?max_bound:int -> ?window:int -> ?obs:Rt_obs.Registry.t ->
  Rt_trace.Trace.t -> report * int
(** Pick the heuristic bound automatically: double it (starting at
    [initial], default 1) until the least upper bound of the answer set
    stops changing between consecutive runs, or [max_bound] (default
    256) is reached. Returns the final report and the bound used; the
    report's [trajectory] records every pass. Each pass re-feeds the
    already-segmented periods through a fresh engine — the trace source
    is never re-read. A pragmatic answer to the open tuning knob the
    paper leaves to the user. *)

val verify : report -> Rt_trace.Trace.t -> bool
(** Theorem 2 as a runtime check: every returned hypothesis matches every
    period of the trace. *)

val pp_report : ?names:string array -> Format.formatter -> report -> unit
