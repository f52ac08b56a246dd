(** The heuristic's bounded working set (paper §3.2), imperative and
    array-backed.

    The seed implementation kept the set as a sorted immutable list:
    O(b) full-order comparisons per membership test, an O(b) length scan
    per insertion and O(b) consing per eviction. This version keeps

    - a dynamic array sorted {e descending} by the canonical total order
      (weight of Definition 8 first, then [Hypothesis.compare_full]), so
      the hot eviction — the paper's lightest pair — pops the last two
      slots in O(1), and insertion is an O(log b) binary search plus one
      [Array.blit];
    - no separate dedup structure: the canonical order is zero only on a
      duplicate, so the binary search that finds the insertion slot is
      also the membership test;
    - a tracked length (no [List.length] scans).

    Contents are a function of the {e set} of inserted hypotheses only —
    the sorted order is canonical, never insertion order (see DESIGN.md
    §9).

    The array machinery only pays for itself once the set is large:
    below {!crossover_bound} (the array-vs-list break-even measured in
    DESIGN.md §14.4) {!create} silently selects the seed's sorted
    singly-linked-list layout instead — same canonical order, same
    dedup decisions, same eviction victims, observably identical, just
    without the binary search and blits that dominate at small bounds.
    {!create_with} forces a representation, for tests and A/B
    benchmarks. *)

type t

val canonical : Hypothesis.t -> Hypothesis.t -> int
(** The canonical ascending total order of the working set: weight of
    Definition 8 first, ties under [Hypothesis.compare_full]. Zero only
    on true duplicates. *)

(** How to pick the two merge victims when the set overflows the bound
    (re-exported by {!Heuristic} as [merge_policy]). *)
type victim_policy =
  | Lightest_pair  (** the paper's rule: merge the two lowest-weight *)
  | Heaviest_pair  (** ablation: merge the two highest-weight *)
  | First_last     (** ablation: merge the lightest with the heaviest *)

val crossover_bound : int
(** The measured array-vs-list break-even bound (see DESIGN.md
    §14.4); {!create} uses the list representation
    strictly below it. *)

val create : bound:int -> t
(** Empty set; [bound] sizes the backing array ([bound + 1] slots: the
    set only ever overflows by the one hypothesis being inserted).
    Selects the representation from [bound] (see {!crossover_bound}). *)

val create_with : repr:[ `Array | `List ] -> bound:int -> t
(** {!create} with the representation forced. *)

val uses_list_repr : t -> bool
(** Which representation a set ended up with (for tests). *)

val length : t -> int

val clear : t -> unit
(** Empty the set, keeping the allocations for reuse. *)

val mem : t -> Hypothesis.t -> bool

val add : t -> Hypothesis.t -> bool
(** [add t h] inserts [h] unless an equal hypothesis is already present;
    [true] iff the set grew. One binary search under {!canonical} both
    finds the slot and, on a zero, detects the duplicate — this is the
    learner's per-child hot path. *)

val insert : t -> Hypothesis.t -> unit
(** {!add}, but inserting a duplicate is a programming error and raises
    [Invalid_argument]. *)

val extract_pair : t -> victim_policy -> Hypothesis.t * Hypothesis.t
(** Remove and return the policy's two merge victims, ordered as the
    merge expects them (lightest first for [Lightest_pair] and
    [First_last], heaviest first for [Heaviest_pair]). O(1) for the
    default [Lightest_pair]; the ablation policies pay one [Array.blit].
    @raise Invalid_argument on fewer than two elements. *)

val to_list : t -> Hypothesis.t list
(** Ascending canonical order (lightest first). *)

val to_array : t -> Hypothesis.t array
(** Ascending canonical order, freshly allocated. *)

val of_list : bound:int -> Hypothesis.t list -> t
(** Build a set from distinct hypotheses in any order (sorted via
    {!Rt_util.Binary_heap}); grows beyond [bound + 1] if needed. *)
