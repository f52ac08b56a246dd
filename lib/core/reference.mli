(** The seed's sorted-immutable-list heuristic, kept as an executable
    oracle. The production learner ({!Heuristic}) replaced this working
    set with the array-backed {!Workset}; this module preserves the
    original O(b²)-per-message implementation so that

    - the benchmark harness can print measured old-vs-new head-to-head
      rows,
    - [test/test_workset.ml]'s qcheck properties can prove the rewrite
      changes {e nothing} about the learned hypothesis sets, eviction
      victims included, for every merge policy, and
    - the equivalence property ([test/test_equivalence.ml]) can hold
      every learn path — engine, sessions sharded or not, the daemon's
      stream, checkpoint resume, store merge — to its answer sets and
      bound-1 model.

    Not part of the supported API surface; use {!Heuristic}. *)

val run :
  ?policy:Heuristic.merge_policy -> ?window:int -> bound:int ->
  Rt_trace.Trace.t -> Heuristic.outcome
(** Batch learning with the seed implementation. Same contract (and,
    by [test_workset]'s properties, same results) as {!Heuristic.run}. *)
