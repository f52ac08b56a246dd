(** A full execution trace: the instance set [I] of the learning problem.
    Periods are independent instances; their order is irrelevant to the
    learner but preserved for reporting. *)

type t = private {
  task_set : Rt_task.Task_set.t;
  periods : Period.t array;
}

val of_periods : task_set:Rt_task.Task_set.t -> Period.t list -> t
(** All periods must share [task_set]. *)

val infer_period : Event.t list -> int option
(** Estimate the period length of a flat absolute-time event stream from
    the recurrence of task start events: for every task with at least
    three activations, take the median gap between consecutive starts,
    then the median over tasks. [None] when no task recurs enough.
    Robust to release jitter and to tasks that skip periods (their gaps
    are near-multiples of the true period and the median discards
    them). *)

val periods : t -> Period.t list

val period_count : t -> int

val task_count : t -> int

val total_messages : t -> int

val total_events : t -> int

val executed_matrix : t -> bool array array
(** [executed_matrix t] is one row per period: which tasks executed. *)

val pp_summary : Format.formatter -> t -> unit
