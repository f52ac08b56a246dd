(** A fixed pool of OCaml 5 domains with a chunked parallel map.

    Domains are expensive to spawn (~ms) while a sharded learn's rounds
    run per period (~µs-ms), so the workers are spawned once and reused; each
    parallel call hands out contiguous index chunks to whichever worker is
    free, and the caller participates as a worker itself. Results are
    written at their input index, so the output never depends on domain
    scheduling — parallel runs are bit-for-bit reproducible. *)

type t

val create : jobs:int -> t
(** A pool executing on [max 1 jobs] domains in total (the caller counts
    as one, so [jobs - 1] workers are spawned). The workers are shut down
    automatically at program exit; [shutdown] releases them earlier. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join all workers. The pool must not be used afterwards; idempotent. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr] computed on all domains of the
    pool. [f] must be safe to run concurrently with itself (a sharded
    session's round touches only its own engine pair per index). The
    first exception raised by [f], if any, is re-raised in the caller. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val run : t -> chunks:int -> (int -> unit) -> unit
(** [run pool ~chunks body] executes [body 0 .. body (chunks - 1)],
    distributing chunk indices over the pool. The low-level primitive
    behind [map]; exposed for sweeps that fill preallocated result
    slots themselves. *)
