(** The [rtlint --deep] engine: whole-project, summary-based effect
    analysis layered over the per-file rules in {!Lint}.

    A per-file extraction pass infers function effect summaries
    (nondeterminism taints, writes/reads of top-level mutable state,
    call edges, lock/raise/loop-alloc flags, task-spawn sites and
    persistence-sink sites with one-hop argument dataflow); a link
    pass joins them by dotted-name resolution and closes effects over
    the call graph. Rule families (ids in {!Rt_check.Finding.rules}):

    - RTL101/RTL102 — top-level mutable state written/read from a
      closure submitted to [Domain_pool]/[Domain.spawn]/
      [Thread.create] without [Atomic] protection or a [Mutex] on the
      call path;
    - RTL201..RTL204 — wall-clock, [Hashtbl] iteration order,
      [Marshal], or polymorphic hash/compare flowing into a
      persistence sink ([Atomic_file], the store, a codec), anchored
      at the taint source with the sink as witness;
    - RTL301/RTL302 — [let]-bound channels/fds closed only on the
      normal path, or never closed at all (purely local, decided at
      extraction);
    - RTL998 — allow-comments consumed by no finding.

    Every run is one in-memory pass over the sources (extract, link,
    render); summaries are not persisted or cached between runs. *)

val analyze_sources :
  (string * string) list -> Rt_check.Finding.t list
(** [analyze_sources [(file, text); ...]] runs the full pipeline —
    extraction, link, the shallow {!Lint} rules, suppression
    application over the combined findings, and RTL998 — purely in
    memory. Findings are sorted. *)

type run = {
  r_findings : Rt_check.Finding.t list;
  r_files : int;  (** [.ml] files found, read and extracted *)
  r_table : string;  (** per-function effect table for [--summaries] *)
}

val analyze_paths : string list -> (run, string) result
(** Analyze every [.ml] under [paths] (same walk as
    {!Lint.ml_files_under}), reading and extracting each file once. *)
