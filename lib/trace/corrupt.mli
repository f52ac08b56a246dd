(** Deterministic fault injection for traces: the testing counterpart
    of the [`Recover] ingestion path. Real CAN captures exhibit a small
    set of recurring damage patterns; this module reproduces each of
    them, driven by {!Rt_util.Pcg32} so a corruption run is exactly
    reproducible from its seed (exposed as [rtgen inject]).

    A corrupted period may no longer validate as a {!Period.t} — that
    is the point — so the result is a {e raw} trace: the task set plus
    plain event lists, which {!to_string} renders in the rtgen-trace
    text format for the loader to chew on. *)

type kind =
  | Drop_edge          (** each event vanishes with probability [rate] *)
  | Duplicate_edge     (** each event is logged twice with probability [rate] *)
  | Swap_order         (** adjacent events swap timestamps with probability [rate] *)
  | Truncate_tail      (** a period loses its tail with probability [rate] *)
  | Clock_skew         (** with probability [rate] per period, all bus-event
                           timestamps shift by a constant in [±eps] against the
                           task events (two free-running logger clocks) *)
  | Splice_garbage     (** a bogus event is inserted per slot with probability [rate] *)
  | Reorder_within_eps (** each timestamp jitters by up to [eps] with probability [rate] *)

val all_kinds : kind list
(** In declaration order — also the order corruptions are applied. *)

val kind_to_string : kind -> string
(** The CLI spelling: ["drop_edge"], ["duplicate_edge"], ... *)

val kind_of_string : string -> kind option

type spec = {
  kinds : kind list;  (** which corruptions to apply, in {!all_kinds} order *)
  rate : float;       (** per-event / per-period probability, in [0, 1] *)
  eps : int;          (** jitter magnitude for [Reorder_within_eps], us *)
  seed : int;         (** PRNG seed; equal specs produce equal corruption *)
}

val default : spec
(** All kinds, rate 0.05, eps 50, seed 42. *)

type raw = {
  task_set : Rt_task.Task_set.t;
  raw_periods : (int * Event.t list) list;  (** (index, events), unvalidated *)
}

val apply : spec -> Trace.t -> raw
(** Corrupt every period. At [rate = 0.0] the output is event-for-event
    identical to the input (the property tests lean on this). *)

val to_string : raw -> string
(** Render in the rtgen-trace v1 text format ({!Trace_io}); the result
    may be rejected by a [`Strict] load — that is what [`Recover] mode
    is for. *)

val torn_write : at:int -> string -> string
(** The rendered trace truncated at byte offset [at] (clamped to the
    text length) — mid-line or mid-frame, exactly the artifact a writer
    killed between [write] and [fsync] leaves behind. Recover-mode
    ingestion must quarantine the torn tail and keep everything before
    it; [rtgen inject --torn-at] exposes this for the crash tests. *)

val save : string -> raw -> unit
(** Atomic write (tmp + rename), like {!Trace_io.save}. *)
