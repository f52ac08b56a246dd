(** CAN bus model: a single shared serial medium with fixed-priority,
    non-preemptive arbitration — the frame with the lowest identifier wins
    arbitration among the queued frames; once transmission starts it runs
    to completion (Bosch CAN 2.0 behaviour at the granularity we need). *)

type frame = {
  can_id : int;   (** arbitration identifier, lower wins *)
  tx_time : int;  (** transmission duration in microseconds *)
  tag : int;      (** opaque client tag (the design edge index) *)
}

type t

val create : unit -> t

val submit : t -> frame -> unit
(** Queue a frame for arbitration. *)

val is_idle : t -> bool

val pending : t -> int
(** Number of frames waiting (not counting one in flight). *)

val try_start : t -> now:int -> (frame * int) option
(** If the bus is idle and frames are pending, start transmitting the
    highest-priority frame: returns it with its completion time
    [now + tx_time]. The caller must call [complete] at that time. *)

val complete : t -> frame
(** Finish the in-flight transmission.
    @raise Invalid_argument if the bus is idle. *)
