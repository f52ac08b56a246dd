(** The persistence funnel: whole-file writes through a temporary plus
    a rename, and appends for append-only ledgers. A whole-file write
    goes to [path ^ ".tmp"], then is renamed over [path], so a reader
    (or a crash) never observes a truncated file: the rename is atomic
    on POSIX filesystems. That is what trace exports, learner
    checkpoints and store objects need to survive interruption.

    The fault model is process death. Nothing here calls [fsync], so
    a write the process finished survives the process, not a power
    loss or a kernel crash.

    This module is the single sanctioned owner of [open_out] /
    [Sys.rename] on persistence paths; rtlint rule RTL007 flags direct
    use anywhere else under [lib/] and [bin/] (outside [lib/store]). *)

val read : string -> string
(** [read path] is the whole content of [path], read in binary mode:
    the one whole-file reader, and what {!write} wrote. Raises
    [Sys_error] as the underlying syscalls do. *)

val write : string -> string -> unit
(** [write path content] atomically replaces [path] with [content].
    The temporary file is removed on failure. Raises [Sys_error] as the
    underlying syscalls do. Equivalent to [commit ~tmp:(stage path
    content) path]. *)

val stage : string -> string -> string
(** [stage path content] writes [content] to the temporary sibling
    [path ^ ".tmp"], closes it, and returns that temporary path without
    touching [path]. A crash between [stage] and [commit] leaves the
    destination exactly as it was. The temporary file is removed if the
    write itself fails. *)

val commit : tmp:string -> string -> unit
(** [commit ~tmp path] atomically renames a staged temporary over
    [path]. Removes [tmp] on failure and re-raises. *)

val abort : tmp:string -> unit
(** [abort ~tmp] discards a staged temporary, ignoring a missing file. *)

val append : string -> string -> unit
(** [append path content] appends [content] to the existing file
    [path] in one buffered write. Not atomic: a process that dies
    inside it can leave any prefix of [content] at the end of the file,
    so a reader of an append-only file must recognize and skip a torn
    tail (the store's ref ledgers end every record with a newline and
    ignore an unterminated last line). Raises [Sys_error] if [path]
    does not exist. *)

val mkdir_p : string -> (unit, string) result
(** [mkdir_p dir] creates [dir] and its missing parents (mode 0o755),
    like [mkdir -p]. [Error] names the path when a component is not a
    directory or cannot be created; an existing directory is [Ok]. *)

(** Deterministic write faults, for tests that prove crash consistency
    at every write. Arming counts each {!write}/{!stage} and each
    {!append} from then on; the [at]th one fails as [kind] says, and
    every later write, stage, commit or append fails too, touching
    nothing, as if the process had died at the fault. A failing
    operation raises [Sys_error]. Global to the process; not for use
    outside tests. *)
module Fault : sig
  type kind =
    | Fail          (** nothing of the operation reaches the disk *)
    | Prefix of int
    (** the first [k] bytes of the content reach the disk: of the
        temporary for a write (the destination is untouched), of the
        file's end for an append *)

  val arm : at:int -> kind -> unit
  (** Reset the count and arm a fault at operation [at] (>= 1). *)

  val disarm : unit -> unit
  (** Back to normal operation; also clears the count and the trip. *)

  val ops : unit -> int
  (** Operations counted since the last {!arm}: arming at [max_int]
      measures how many a run makes. *)

  val tripped : unit -> bool
  (** Whether the armed fault has fired. *)
end
