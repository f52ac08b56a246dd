(** Packed integer event storage: the zero-allocation ingest arena.

    Boxed {!Event.t} values cost three heap words per event (record +
    variant), which makes a million-event capture a GC workload before
    the learner sees a single period. This arena packs each event into
    one OCaml [int] —

    {v
      bits 62..61  kind tag   (0 start | 1 end | 2 rise | 3 fall)
      bits 60..41  identifier (task index or bus id, 20 bits)
      bits 40..0   timestamp  (microseconds, 41 bits ≈ 25 days)
    v}

    — stored in a C-layout [Bigarray] of native ints, so ingest appends
    are a bounds-checked store with no per-event allocation at all, and
    shard workers can read disjoint ranges of one shared arena without
    copying ([Bigarray] buffers are outside the OCaml heap, so reads
    from multiple domains are safe as long as the ranges are fixed
    before fan-out).

    [encode]/[decode] are exposed separately from the arena so the
    roundtrip law [decode (encode e) = e] can be property-tested over
    arbitrary event streams, including quarantined/repaired frames. *)

type t

val max_id : int
(** Largest encodable task index / bus identifier ([2^20 - 1]). *)

val max_time : int
(** Largest encodable timestamp ([2^41 - 1] microseconds). *)

val encode : Event.t -> int
(** Pack an event into one int. Raises [Invalid_argument] when the
    timestamp is negative or exceeds {!max_time}, or the identifier is
    negative or exceeds {!max_id}. *)

val decode : int -> Event.t
(** Unpack. Total on the image of [encode]: [decode (encode e) = e]. *)

val create : ?capacity:int -> unit -> t
(** Fresh empty arena. [capacity] is the initial backing-store size in
    events (default 4096); the arena doubles as needed. *)

val push : t -> Event.t -> unit
(** Append one event ([encode] + store; amortised O(1), no per-event
    heap allocation outside growth doublings). *)

val tag_start : int
val tag_end : int
val tag_rise : int
val tag_fall : int
(** The four kind tags, for callers using {!push_packed}. *)

val push_packed : t -> tag:int -> id:int -> time:int -> unit
(** Append from unboxed parts — the allocation-free ingest entry used by
    the mmap reader's scan loop, which never materialises an {!Event.t}.
    Same range checks as {!encode}; [tag] must be one of the four tag
    constants. *)

val length : t -> int
(** Number of events stored. *)

val get : t -> int -> Event.t
(** [get a i] decodes the [i]th event. Raises [Invalid_argument] when
    [i] is out of range. *)

val of_events : Event.t list -> t

val to_list : ?lo:int -> ?hi:int -> t -> Event.t list
(** Decode the range [\[lo, hi)] (defaults: the whole arena). *)
