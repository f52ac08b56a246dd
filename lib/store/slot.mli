(** A whole-image persistence slot: a plain file, or a store ref.

    Checkpoint images (and anything else written as one atomic image)
    address their destination through a slot, so [learn --checkpoint],
    sharded or not, and rtgend per-stream checkpoints work identically
    over bare files and over store refs. The CLI syntax is: a spec
    containing ["//"] is [DIR//ref] (store-backed, the store is created
    on demand); anything else is a file path. *)

type t = File of string | Ref of Store.t * string

val of_string : string -> (t, string) result
(** Parse a slot spec. [DIR//ref] opens-or-creates the store at [DIR];
    a plain path becomes {!File}. *)

val describe : t -> string
(** Round-trips [of_string] for display in messages. *)

val exists : t -> bool
(** A file that exists, or a ref with at least one generation. *)

val load : t -> (string, string) result
(** Read the current image ([Ref] loads the latest generation,
    hash-verified). *)

val save :
  ?kind:Store.kind -> ?bound:int -> ?source:string -> ?created_at:int ->
  t -> string -> unit
(** Durably replace the slot's image. [File] is an atomic write; [Ref]
    commits a new generation (kind defaults to [Checkpoint]).
    Raises [Sys_error] on IO failure, as {!Rt_util.Atomic_file.write}
    does. *)

val discard : t -> unit
(** Remove the image: delete the file, or delete the ref (blobs remain
    until {!Store.gc}). Missing slots are ignored. *)
