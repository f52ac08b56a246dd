(** Value Change Dump (IEEE 1364) import/export: view a trace as
    waveforms in GTKWave or any EDA waveform viewer, and read such a
    dump back as a trace. One 1-bit signal per task (high while
    executing) and one per bus identifier (high while a frame with that
    identifier is on the wire). Timescale: 1 us.

    Period events carry period-relative timestamps; the waveform lays
    periods out end to end every [period_len] microseconds, and says so
    in a [$comment period_len N $end] header line. The default is the
    smallest power of ten that fits the largest event time. *)

val to_string : ?period_len:int -> Trace.t -> string

val save : ?period_len:int -> string -> Trace.t -> unit
(** Write to a file path, atomically (tmp + rename). *)

type parse_error = { line : int; message : string }
(** Structured position information, consistent with {!Trace_io}:
    [line] is 1-based; 0 means the error concerns the whole dump (e.g.
    a period that fails validation after slicing). *)

val of_string : ?period_len:int -> string -> (Trace.t * int, parse_error) result
(** Parse a VCD dump with [task_*] / [can_0x*] 1-bit signals (the shape
    {!to_string} produces) back into a trace, slicing the absolute
    timeline into periods of [period_len] microseconds and re-basing
    each period at 0. Without [period_len] the length is the dump's
    [period_len] comment, else inferred from task-start recurrence
    ({!Trace.infer_period}); a dump without either becomes a single
    period. Returns the trace and the period length used. *)

val load : ?period_len:int -> string -> (Trace.t * int, parse_error) result
(** Read from a file path. *)
