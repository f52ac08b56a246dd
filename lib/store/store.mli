(** Content-addressed, versioned object store — the one persistence
    substrate for models, bound-1 companions, engine checkpoints, and
    answer sets, and the transport-free interchange for fleet merging.

    Layout under a root directory:

    {v
    DIR/store.meta            format marker ("rtgen-store v1")
    DIR/objects/aa/bbbb...    immutable blobs, named by the MD5 hex
                              digest of their bytes (2+30 split)
    DIR/refs/<name>.ref       text ledger: one generation per line,
                              newest last, each pointing at a blob
                              (the suffix lets "model" and "model/b1"
                              coexist)
    v}

    Blobs are immutable and deduplicated: writing the same bytes twice
    yields the same address and one file. Refs are append-only text
    ledgers, one newline-terminated line per commit, with one writer
    per ref; an unterminated last line is a commit cut short by a dying
    writer and reads as absent. A generation records the blob
    address plus metadata (kind, bound, source stream, parent
    addresses, created-at). [created_at] is injected by the caller —
    typically periods fed — never read from a wall clock, so store
    trees produced from the same trace are byte-comparable.

    Addresses as seen on the CLI use the form [DIR//ref],
    [DIR//ref@N], or [DIR//ref@latest]; see {!split_address}. *)

type t
(** An opened store rooted at some directory. *)

type kind = Model | Companion | Checkpoint | Answerset

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type meta = {
  kind : kind;
  bound : int option;        (** learning bound of the producer *)
  source : string option;    (** producing stream / trace label *)
  parents : string list;     (** blob addresses this object was derived from *)
  created_at : int;          (** injected logical time (e.g. periods fed) *)
}

type entry = {
  gen : int;                 (** generation number, 1-based, dense *)
  address : string;          (** 32-char lowercase hex blob address *)
  meta : meta;
}

val root : t -> string

val init : string -> (t, string) result
(** [init dir] creates a store at [dir] (creating directories as
    needed) or opens an existing one; fails if [dir] exists but is not
    a store. *)

val open_ : string -> (t, string) result
(** [open_ dir] opens an existing store; fails if the marker file is
    missing or foreign. *)

val address_of : string -> string
(** Content address (MD5 hex) a blob with these bytes would get. *)

val put_blob : t -> string -> (string, string) result
(** Write a blob, returning its address. Idempotent: existing blobs
    are left untouched. *)

val read_blob : t -> string -> (string, string) result
(** Read a blob by address, verifying the content hash — a corrupted
    object is an error, never silently returned. *)

val has_blob : t -> string -> bool

val commit :
  t -> ref_:string -> meta:meta -> string -> (entry, string) result
(** [commit t ~ref_ ~meta blob] writes the blob and appends a new
    generation to [ref_] (creating the ref at generation 1). The next
    generation number comes from the ledger's last line alone, so the
    cost does not grow with the ref's history. A torn last line makes
    the commit rewrite the ledger whole instead, without the fragment. *)

val generations : t -> string -> (entry list, string) result
(** All generations of a ref, oldest first. Unknown ref is an error. *)

val resolve : t -> string -> (entry, string) result
(** Resolve ["name"], ["name@latest"], or ["name@N"] to a generation. *)

val refs : t -> string list
(** All ref names, sorted. *)

val delete_ref : t -> string -> (unit, string) result

val gc : t -> (int * int, string) result
(** Delete blobs referenced by no generation of any ref. Returns
    [(kept, deleted)]. [Error], naming the ref, when any ref fails to
    load: then nothing is deleted.

    A staging file ([*.tmp] under [objects/]) is neither kept nor
    deleted: it belongs to a writer between its write and its rename.
    A blob that vanishes between the listing and its removal counts as
    deleted. gc takes no lock: a blob put after gc read the ledgers,
    whose ledger line lands after that, is deleted as unreferenced, so
    run gc while no commit is in flight. *)

val split_address : string -> (string * string) option
(** [split_address "DIR//ref@N"] is [Some ("DIR", "ref@N")]; [None]
    when the string contains no ["//"] separator (a plain file path).
    The first ["//"] splits; the store directory may not be empty. *)
