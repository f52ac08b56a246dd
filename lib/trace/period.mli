(** One period of a trace — an {e instance} of the learning problem
    (paper Definition 1: "each instance is a period in that trace").

    A period is validated and held only as its digest: which tasks
    executed (a task executes at most once per period), their start/end
    times, and the message occurrences with paired rising/falling edges.
    The learner reads nothing else. A valid period's digest determines
    its events (one start and one end per executed task, one rise and
    one fall per frame), so {!events} rebuilds them for writers and
    tools (DESIGN.md §14.3.1). *)

type msg = {
  occ : int;      (** occurrence index within the period, 0-based *)
  bus_id : int;   (** frame identifier as seen on the bus *)
  rise : int;     (** timestamp of the rising edge *)
  fall : int;     (** timestamp of the falling edge *)
}

type t = private {
  index : int;
  task_set : Rt_task.Task_set.t;
  executed : bool array;     (** per task: both start and end seen *)
  executed_ix : int array;   (** indices of executed tasks, ascending *)
  start_time : int array;    (** -1 when the task did not execute *)
  end_time : int array;
  msgs : msg array;          (** in rising-edge order *)
}

type error =
  | Duplicate_start of int
  | Duplicate_end of int
  | End_without_start of int
  | Start_without_end of int
  | End_before_start of int
  | Fall_without_rise of int   (** bus id *)
  | Rise_without_fall of int
  | Unknown_task of int

val string_of_error : error -> string

val make : index:int -> task_set:Rt_task.Task_set.t -> Event.t list -> (t, error) result
(** Validates the events in {!Event.compare} order, whatever order they
    come in, and digests them. On a malformed period the error is the
    first one that order meets; rises still open at the end are
    reported after the scan, earliest rise first, then lowest bus id;
    then tasks that started but never ended, lowest index first. *)

val make_exn : index:int -> task_set:Rt_task.Task_set.t -> Event.t list -> t
(** @raise Invalid_argument on a malformed period. *)

(** Unboxed period assembly: the parser's per-line target. A builder
    holds a period's events as int columns in arrival order and is
    reused across periods. {!make} goes through one, so both agree on
    every period and every error. *)
module Builder : sig
  type period := t
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Forget the events; keep the capacity. *)

  val add : t -> time:int -> rank:int -> key:int -> unit
  (** Append one event: its time, {!Event.kind_rank} and
      {!Event.kind_key}. *)

  val finish :
    t -> index:int -> task_set:Rt_task.Task_set.t -> (period, error) result
  (** {!make} of the events added since the last {!clear}. A period
      that arrived in {!Event.compare} order is validated in one scan
      with no sort; otherwise an index permutation is sorted first. The
      builder is left as it was. *)

  val events : t -> Event.t list
  (** The events added since the last {!clear}, in arrival order. *)
end

val events : t -> Event.t list
(** The period's events, sorted with {!Event.compare}: equal to
    [List.sort Event.compare evs] when the period was made from
    [evs]. Rebuilt on every call. *)

val event_count : t -> int
(** [List.length (events p)], without building the list. *)

val filter_msgs : (msg -> bool) -> t -> t
(** The period without the frames that fail the test, renumbered in
    rising-edge order. Removing whole frames keeps a period valid. *)

val executed_tasks : t -> int list
(** Indices of tasks that executed, ascending. *)

val executed_count : t -> int

val msg_count : t -> int

val pp : Format.formatter -> t -> unit
