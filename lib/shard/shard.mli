(** The sharded lub-merge fold.

    Periods are independent instances of the learning problem (paper
    §2.2), so a trace's periods can be split over [K] engine pairs in
    any partition — {!Session} deals them round-robin — and the
    per-pair results folded into a single model.

    {b What the fold can — and cannot — reconstruct.} The LUB of a
    {e bounded} run's answer set is NOT partition-independent: under
    assumption-based branching, the end-of-period minimality pruning
    discards dominated hypotheses, and which hypotheses are dominated
    depends on everything learned so far — so two shards can each prune
    away the sole carrier of some evidence that survives in the
    monolithic interleaving (the same deviation from the paper's
    idealized Lemma that test_theorems.ml pins down). What {e is}
    partition-independent is the bound-1 model [d*(1)]: with a single
    hypothesis, every candidate pair of every message joins into one
    matrix, making each period's contribution a per-cell monotone delta
    that depends only on the period itself. Joins commute, so any
    partition — contiguous or not — accumulates the same matrix.

    Each shard therefore runs {e two} engines over its periods: the
    main engine at the user's bound (the expensive work being
    parallelized; its version space is reported per shard) and a cheap
    bound-1 companion whose single matrix is the shard's fold
    contribution.

    The fold is not a plain pointwise join of the companions either.
    Each shard weakens against only the violations {e it} observed; the
    monolithic run weakens against the union. Since weakening absorbs
    into later joins ([w (w x ⊔ d) = w (x ⊔ d)] on the seven-value
    lattice), the intermediate passes are redundant and the exchange
    law holds:

    {v monolithic d*(1) = weaken_{∪ᵢ Vᵢ} (⊔ᵢ b1ᵢ) v}

    where [b1ᵢ] and [Vᵢ] are shard [i]'s companion model and violation
    matrix. Inconsistency also localises: a period with an inexplicable
    message empties the hypothesis set regardless of what was learned
    before it, so some shard's companion turns up empty iff the
    monolithic run does. By the domination Lemma (test_theorems.ml),
    the folded model dominates every shard's bounded LUB — it is the
    same conservative summary the monolithic bounded run's LUB
    converges to. All of this is enforced against the
    {!Rt_learn.Reference} oracle by test_shard. *)

val fold_summaries :
  (Rt_lattice.Depfun.t option * bool array array) array ->
  Rt_lattice.Depfun.t option
(** The exchange-law fold over [(summary, violations)] pairs:
    [None] if any part is inconsistent, otherwise the fused
    {!Rt_lattice.Depfun.lub_many} of every summary with the union
    violation matrix [∪ᵢ Vᵢ] applied once at the end. This is both the
    in-process fold of a sharded {!Session} and the cross-process merge
    primitive — [rtgen merge] feeds it companion blobs read from K
    separately-produced stores, and partition-shape independence makes
    the result byte-equal to the monolithic bound-1 model. Exact when
    each part is a bound-1 summary over a partition of the periods;
    parts produced at higher bounds fold to a conservative upper
    bound instead. *)

val fold_engines : Rt_engine.Engine.t array -> Rt_lattice.Depfun.t option
(** {!fold_summaries} over live engines: each engine contributes the
    LUB of its current hypotheses and its violation matrix. Exact —
    equal to the monolithic [d*(1)] — when the engines are bound-1
    cores fed a partition (any partition, order irrelevant) of the
    trace's periods. The engines must have heuristic cores
    ([Engine.violations = Some]).
    @raise Invalid_argument on an exact-core engine or an empty
    array. *)
