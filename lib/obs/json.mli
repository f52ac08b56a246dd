(** Minimal JSON values for the observability sinks — writing metrics and
    Chrome trace-event files, and reading a metrics file back for
    [rtgen report]. Not a general-purpose JSON library: non-ASCII
    [\u] escapes degrade to ['?'], and numbers are [Int] when they fit
    and [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing non-whitespace is an error. Error
    messages carry a byte offset. *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and missing keys. *)

val to_int : t -> int option
(** [Int], or an integral [Float]. *)

val to_string_opt : t -> string option

val to_list : t -> t list option

val to_obj : t -> (string * t) list option
