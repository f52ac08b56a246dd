(** Dependency functions [d : T × T → V] (Definition 5) over a task set
    indexed [0 .. n-1], with the pointwise partial order [⊑_D], pointwise
    least upper bound [⊔_D] and the weight of Definition 8.

    The diagonal [d(t, t)] is fixed to [Par]: a task has no dependency on
    itself. Off-diagonal entries are independent — the paper's matrices are
    {e not} antisymmetric (e.g. [d(t1,t3) = →?] can coexist with
    [d(t3,t1) = ←], meaning "t1 may determine t3" and "t3 definitely
    depends on t1").

    Values of this type are mutable matrices; the learner copies before
    branching. *)

type t

val create : int -> t
(** [create n] is the most specific hypothesis [d⊥]: everything [Par].
    Requires [n >= 1]. *)

val top : int -> t
(** The least specific hypothesis [d⊤]: every off-diagonal entry
    [Bi_maybe]. *)

val size : t -> int
(** Number of tasks [n]. *)

val get : t -> int -> int -> Depval.t
(** [get d a b] is [d(a, b)]. Indices must be in range. *)

val set : t -> int -> int -> Depval.t -> unit
(** In-place update. Setting a diagonal cell to anything but [Par] raises
    [Invalid_argument]. *)

val join_cell : t -> int -> int -> Depval.t -> bool
(** [join_cell d a b v] replaces [d(a,b)] by [d(a,b) ⊔ v]; returns [true]
    iff the cell changed. *)

val copy : t -> t

val cells : t -> Bytes.t
(** The backing row-major byte matrix, {e not} a copy: the byte at index
    [a * n + b] holds [Depval.index (d (a, b))]. Exposed for the
    learner's fused hot loops (merge = join + weight + hash in one pass
    over bytes, driven by {!Depval.join_ix_tbl}); treat as read-only
    everywhere else — writing through it bypasses the diagonal
    invariant. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order for use in sets/maps (lexicographic on cells). *)

val leq : t -> t -> bool
(** Pointwise [⊑_D]. *)

val join : t -> t -> t
(** Fresh pointwise [⊔_D]. Sizes must agree. *)

val meet : t -> t -> t
(** Fresh pointwise [⊓_D]. Sizes must agree. *)

val join_into : dst:t -> t -> unit
(** [join_into ~dst d] folds [d] into [dst] pointwise, in place. *)

val lub : t list -> t
(** Least upper bound of a non-empty list. *)

val lub_many : t array -> t
(** Batched least upper bound of a non-empty array: one fused unsafe
    byte-table pass per source matrix into a single fresh destination.
    Semantically [lub (Array.to_list ds)]; exists so whole-workset folds
    (the shard merge, the final model) pay one allocation instead of a
    list walk of pairwise kernels. Raises [Invalid_argument] on an empty
    array or a size mismatch. *)

val weaken_violations : t -> violated:bool array array -> int
(** In-place conditional-dependency pass (Section 4.3): for every ordered
    pair [(a, b)] with [a <> b] and [violated.(a).(b)], replace a definite
    cell value by its weakened ([…?]) counterpart. Returns the number of
    cells changed. [violated] must be [n × n]. Used by the shard fold to
    apply the union of per-shard violation matrices exactly once after
    joining; idempotent, and commutes with pointwise join in the sense
    [w (w x ⊔ d) = w (x ⊔ d)], which is what makes the single
    end-of-fold pass equal to the monolithic run's interleaved passes. *)

val weight : t -> int
(** Definition 8: sum over ordered pairs of [Depval.distance]. *)

val iter_pairs : (int -> int -> Depval.t -> unit) -> t -> unit
(** Iterate over all ordered pairs [a <> b]. *)

val fold_pairs : (int -> int -> Depval.t -> 'a -> 'a) -> t -> 'a -> 'a

val count : (Depval.t -> bool) -> t -> int
(** Number of off-diagonal cells satisfying the predicate. *)

val of_rows : Depval.t list list -> t
(** Build from a square matrix given as rows (as printed in the paper's
    tables). Raises [Invalid_argument] if not square or the diagonal is
    not [Par]. *)

val to_rows : t -> Depval.t list list

val to_string : ?names:string array -> t -> string
(** Matrix rendering in the style of the paper's tables: a header row of
    task names, then one row per task, every field padded to the widest
    name or value. [names] defaults to [t1 .. tn]; a task past the end
    of [names] is called [t<i>], its 0-based index. *)

val pp : ?names:string array -> Format.formatter -> t -> unit
(** Prints {!to_string}'s lines, each line break a
    [Format.pp_force_newline]. *)

val parse : string -> (t * string array, string) result
(** Parse the output of [to_string]: a header row of task names followed
    by one row per task. Returns the matrix and the task names. *)

val parse_exn : string -> t * string array
