(** Zero-copy strict trace reader, kept as a reference implementation.

    This reader [mmap]s the file and scans the mapped bytes in place:
    keywords are compared against the buffer directly, timestamps and
    identifiers are parsed off the raw bytes, and events are appended
    to a packed {!Event_arena.t} without ever constructing an
    [Event.t]. Substrings are allocated only for task names (once per
    file) and error messages. The program itself no longer uses it:
    every learn streams through {!Stream_io}, whose tokeniser works in
    place the same way, and whole-trace commands use {!Trace_io.load}.
    It remains for benchmarks and parity tests.

    Parsing semantics are {e exactly} those of a strict-mode
    {!Stream_io} over {!Stream_io.lines_of_channel} — same accepted
    inputs, same error messages, same line numbers — which is enforced
    by parity tests. The one divergence: events whose timestamp or
    identifier exceed the packed encoding's range
    ({!Event_arena.max_time} / {!Event_arena.max_id}) are refused with
    a range error rather than stored boxed. Recover mode is out of
    scope — repair works on boxed periods anyway. *)

type t = private {
  trace : Trace.t;          (** the validated trace, as {!Trace_io.load} *)
  arena : Event_arena.t;    (** every event of [trace], packed, in file order *)
  marks : (int * int * int) array;
      (** one [(period_index, lo, hi)] per kept period: the arena range
          [\[lo, hi)] holding its events. *)
}

val load :
  ?obs:Rt_obs.Registry.t -> string ->
  (t * Quarantine.t, Stream_io.parse_error) result
(** Strict load from a file path. The quarantine report is the strict
    one ([kept] count only). With [obs], runs inside an
    ["ingest.parse"] span and publishes the same ["ingest.*"] counters
    as {!Trace_io.load}, so metrics sidecars are path-independent. *)

val is_range_error : Stream_io.parse_error -> bool
(** [true] for the packed-range refusal described above. *)
