(** A fixed, named set of tasks. Tasks are dense integer indices
    [0 .. size - 1]; the names are only for reporting, matching the paper's
    [t1..t4] and [S, A..Q] conventions. *)

type t

val of_names : string array -> t
(** Names must be non-empty and pairwise distinct. *)

val numbered : int -> t
(** [numbered n] has names [t1 .. tn]. *)

val size : t -> int

val name : t -> int -> string
(** Raises [Invalid_argument] if out of range. *)

val names : t -> string array
(** A fresh copy of the name array. *)

val index : t -> string -> int option
(** Look a task up by name. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
