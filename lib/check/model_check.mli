(** Semantic static analysis of learned artifacts (the [rtgen check]
    prong): saved models, answer sets and heuristic checkpoints are
    audited against the laws they must obey by construction — lattice
    algebra, schedulability of definite precedences within a period,
    post-processing hygiene — independently of the learner that
    produced them.

    Rule ids: RTC0xx lattice-law self-checks, RTC1xx per-model rules,
    RTC2xx answer-set/checkpoint rules (see {!Finding.rules}). *)

val check_laws : unit -> Finding.t list
(** Exhaustive audit of the {!Rt_lattice.Depval} algebra and its
    tabulated kernels: idempotence, commutativity, absorption,
    monotonicity of generalization steps ([join], [weaken], [covers]),
    partial-order laws, and agreement of the [*_ix_tbl] tables with
    the functions they tabulate. Empty on a healthy build. *)

(** {2 Models} *)

type model = {
  source : string;         (** file path, or a synthetic label *)
  names : string array;
  cells : Rt_lattice.Depval.t array array;  (** row-major [n×n] *)
  row_lines : int array;   (** 1-based source line per row; 0 = none *)
}

val parse_model : source:string -> string -> (model, string) result
(** Lenient reader for the [Depfun.to_string] matrix format: accepts
    matrices that violate the [Depfun] invariants (a broken diagonal is
    a finding, not a parse error). [Error] only for text that is not a
    matrix at all. *)

val load_model : string -> (model, string) result

val model_of_depfun :
  ?source:string -> ?names:string array -> Rt_lattice.Depfun.t -> model

val to_depfun : model -> Rt_lattice.Depfun.t option
(** [None] when the diagonal is not [Par] (such a model cannot be
    represented as a [Depfun]). *)

val size : model -> int

val check_model : model -> Finding.t list
(** Per-model rules: RTC101 diagonal, RTC102 unobservable [↔]
    (warning), RTC103 definite-precedence cycle, RTC104 mirror
    consistency (warning). *)

val check_against_trace : model -> Rt_trace.Trace.t -> Finding.t list
(** RTC105 task-set mismatch; RTC106 conformance — every definite cell
    must hold in every period of the trace, because end-of-period
    post-processing weakens exactly the contradicted cells. *)

val check_answer_set : model list -> Finding.t list
(** Cross-model rules on a set treated as one answer set: RTC201
    duplicates, RTC202 non-minimality. Models whose diagonal is broken
    are skipped here (they already carry an RTC101). *)

val check_checkpoint :
  source:string -> string -> (Finding.t list, string * Finding.t) result
(** Deserialize a {!Rt_learn.Heuristic} checkpoint image and audit
    every engine's working set with the per-model and answer-set rules;
    in a several-engine image a finding names hypothesis [i] of engine
    [e] [SOURCE[engine e][i]]. [Error] when the blob does
    not parse — truncated, torn or checksum-failed — carrying
    both the input-error message (the audit could not run, exit 2) and
    an RTC203 finding for the report. *)
