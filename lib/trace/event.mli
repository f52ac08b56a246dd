(** Timestamped trace events (paper §2.1): the start or end of a task, or
    the rising / falling edge of a message frame on the bus. Timestamps are
    integer microseconds from the start of the recording. Message events
    carry the bus identifier of the frame; the learner never uses it to
    identify senders or receivers — only to pair a rising edge with its
    falling edge within a period. *)

type kind =
  | Task_start of int  (** task index *)
  | Task_end of int
  | Msg_rise of int    (** bus (CAN) identifier *)
  | Msg_fall of int

type t = { time : int; kind : kind }

val compare : t -> t -> int
(** By time, then by a stable kind order (ends, then falls, then rises,
    before starts at equal times, which matches causality: a sender's end,
    the frame, then the receiver's start). *)

val rank_end : int
val rank_fall : int
val rank_rise : int
val rank_start : int
(** The equal-time order {!compare} uses, as ints: 0 end, 1 fall,
    2 rise, 3 start. Unboxed period builders store a kind as its rank
    and its {!kind_key}. *)

val kind_rank : kind -> int

val kind_key : kind -> int
(** The task index or bus id. *)

val kind_of_rank : int -> int -> kind
(** [kind_of_rank (kind_rank k) (kind_key k) = k].
    @raise Invalid_argument on a rank outside 0–3. *)

val task : t -> int option
(** The task index for task events, [None] for message events. *)

val msg_id : t -> int option

val to_string : Rt_task.Task_set.t -> t -> string

val pp : Rt_task.Task_set.t -> Format.formatter -> t -> unit
