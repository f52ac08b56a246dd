(** Canonical serialized forms for store blobs.

    Four blob kinds share the store; each is self-describing from its
    first bytes so consumers ([rtgen check], [rtgen merge], audits)
    can dispatch without out-of-band typing:

    - model      — ["rtgen-model v1\n"] + the {!Rt_lattice.Depfun}
                   text matrix (names header + rows), the same text
                   [learn -o] writes, so store blobs and plain model
                   files stay byte-comparable.
    - companion  — ["rtgen-companion v1\n"] + the {e pre-weaken}
                   bound-1 summary matrix and the violation matrix;
                   this is the fleet-merge interchange: folding K of
                   these with the exchange-law fold reproduces the
                   monolithic bound-1 model byte-for-byte.
    - answerset  — ["rtgen-answerset v1\n"] + [%%]-separated model
                   matrices (the full hypothesis set of a run).
    - checkpoint — the raw engine checkpoint image (RTGENCKP binary
                   with its RTCKSUM1 trailer), stored verbatim.

    All encoders are deterministic: same input, same bytes, same
    content address. *)

module Df = Rt_lattice.Depfun

val model_to_blob : ?names:string array -> Df.t -> string
val model_of_blob : string -> (Df.t * string array, string) result

val companion_to_blob :
  ?names:string array -> summary:Df.t -> violations:bool array array ->
  unit -> string

val companion_of_blob :
  string -> (Df.t * bool array array * string array, string) result
(** Returns (pre-weaken bound-1 summary, violation matrix, names). *)

val answerset_to_blob : ?names:string array -> Df.t list -> string
val answerset_of_blob :
  string -> ((Df.t * string array) list, string) result

val checkpoint_to_blob : string -> string
(** Identity — checkpoints are already a canonical binary format. *)

val kind_of_blob : string -> Store.kind option
(** Sniff a blob's kind from its leading bytes. *)
