(** A hypothesis of the version space: a dependency function plus the
    sender/receiver assumptions made in the period currently being
    analyzed (paper §3.1). The weight of Definition 8 is cached and
    maintained incrementally.

    A hypothesis made by {!child} is lazy: it shares its parent's matrix
    and records the one message it adds. Its weight and hashes are exact
    from the start; the first reader of its cells ({!depfun}, the
    comparisons, {!pp}, weakening, a merge that needs them) copies the
    matrix. Laziness is invisible to every function below.

    Inside, a sender/receiver pair over [n] tasks has one form, the
    code [s * n + r] that {!Rt_trace.Candidates.pair_codes} writes: a
    lazy child's pending message, the assumption set and a message's
    candidates are all codes. The [(sender, receiver)] arguments and
    results below are decoded views for the oracles and tests. *)

type t

val bottom : int -> t
(** The most specific hypothesis [d⊥] over [n] tasks. *)

val of_depfun : Rt_lattice.Depfun.t -> t
(** Wrap an existing dependency function (copied). *)

val depfun : t -> Rt_lattice.Depfun.t
(** The underlying dependency function (not copied; treat as read-only). *)

val weight : t -> int

val assumptions : t -> (int * int) list
(** Sender/receiver pairs assumed in the current period, in ascending
    [(sender, receiver)] order: the stored codes, decoded. *)

val assumed : t -> int -> int -> bool
(** Has [(s, r)] already been used for a message this period? *)

val generalize_message : t -> sender:int -> receiver:int -> t option
(** The minimal generalization that explains one more message sent from
    [sender] to [receiver]: a fresh hypothesis with
    [d(s,r) := d(s,r) ⊔ →], [d(r,s) := d(r,s) ⊔ ←] and the assumption
    recorded. [None] if [(s, r)] was already assumed this period (at most
    one message per pair and period). Both indices must lie in
    [0, n). *)

(** {2 Branching within one message}

    The bounded heuristic branches every hypothesis of the previous
    message (its {e parents}) once per candidate pair and merges the
    overflow. These functions do that without copying matrices: a child
    costs O(1), and a merge whose inputs share their parents joins a
    few cells in place. *)

type message
(** One message's branching context: how many parents it has and its
    candidate pairs, as codes. *)

val message : parents:int -> codes:int array -> count:int -> message
(** The candidates are the first [count] codes of [codes], as
    {!Rt_trace.Candidates.pair_codes} writes them. The array is read,
    not copied: it must not change while the message's hypotheses are
    in use. *)

val child : t -> message -> parent:int -> pair:int -> t option
(** {!generalize_message} in O(1) by the pair whose code is
    [codes.(pair)], [pair < count], as a lazy hypothesis that shares
    the parent's matrix. [parent] is the parent's index among the
    message's parents; with [pair] it makes the child usable by
    {!merge_in}. The parent must not be mutated while the child is in
    use. *)

val merge_in : message -> t -> t -> t
(** [merge_lub a b] for two hypotheses of the same message, each made by
    {!child} or [merge_in] with that message and not yet {!settle}d. The
    result is equal to [merge_lub a b] in matrix, weight, hashes and
    assumptions. When the parents one input lies above include the
    other's, the result {e is} that input, updated in place; [a] and [b]
    are consumed. *)

val settle : t -> unit
(** End a hypothesis's part in its message: materialize its matrix and
    drop the branching record, so it can be the next message's parent. *)

val join_codes : t -> int array -> int -> int
(** Bound 1 in closed form: [join_codes h codes count] turns [h] in
    place into what a message leaves of the set [{h}] at bound 1 —
    {!child} by every pair, each insert followed by the forced
    {!merge_in} — that is [h ⊔ J(C')], where C' are the pairs among the
    first [count] codes of [codes] ([s * n + r], as
    {!Rt_trace.Candidates.pair_codes} writes them) that [h] has not
    assumed. Its assumptions become [A ∪ {c}] when C' = [{c}] and stay
    [A] otherwise. Returns [|C'|]; when it is 0, [h] is unchanged and
    the set is empty. The codes must be distinct; every code gets
    {!child}'s range and [sender <> receiver] checks. No lazy child may
    share [h]'s matrix. *)

val weaken_violations : t -> violated:bool array array -> unit
(** End-of-period conditional-dependency test, in place: every definite
    cell [d(a,b)] such that some period seen so far executed [a] without
    [b] ([violated.(a).(b)]) is weakened minimally ([→ ↦ →?], [← ↦ ←?],
    [↔ ↦ ↔?]). Checking against {e all} seen periods (not only the
    current one) is what keeps correctness when a message observed late
    introduces a definite value contradicted by an early period — cf. the
    [←?] cells of the paper's final tables. *)

val weaken_violations_count : t -> violated:bool array array -> int
(** Same operation, returning the number of cells actually weakened —
    the learners' [weakenings] observability counter. *)

val clear_assumptions : t -> unit

val merge_lub : t -> t -> t
(** Pointwise least upper bound; assumptions are intersected, so the
    merged hypothesis only refuses a pair both parents used. Re-joining
    evidence for a pair is idempotent, so this keeps the heuristic sound
    while never starving a later message of candidates. *)

val equal : t -> t -> bool
(** Equality of the dependency functions (assumptions ignored, as in the
    paper's post-processing unification). *)

val compare : t -> t -> int

val compare_full : t -> t -> int
(** Like [compare] but also distinguishes the assumption sets; two
    hypotheses equal under [compare_full] have identical futures and can
    be unified mid-period. Incomparably fast in the common case thanks to
    a cached structural hash, but {e not} order-compatible with [compare]
    (it orders by hash first). *)

val hash : t -> int
(** Structural hash of the matrix (assumptions excluded), maintained
    incrementally. Equal hypotheses have equal hashes. *)

val a_hash : t -> int
(** Order-independent hash of the assumption set, maintained
    incrementally; 0 when no assumptions are recorded. [compare_full]
    orders by [(hash, a_hash)] before it compares matrices. *)

val leq : t -> t -> bool
(** [⊑_D] on the underlying dependency functions. *)

val pp : ?names:string array -> Format.formatter -> t -> unit
