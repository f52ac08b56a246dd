(** Bounded FIFO — the strict-pipe discipline of the daemon's ingest
    side. A producer that overruns the capacity loses the {e push} (and
    the daemon sheds that stream); the consumer, the other streams and
    the daemon itself are unaffected. Nothing here blocks: the daemon is
    single-threaded by design, so overflow is a policy decision surfaced
    to the caller, not a wait. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> [ `Ok | `Overflow ]
(** [`Overflow] leaves the queue unchanged. *)

val pop : 'a t -> 'a option
