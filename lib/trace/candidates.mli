(** Candidate sender/receiver inference (the sets [A_m] of paper §3.1).

    The bus reveals neither sender nor receiver of a frame. From timing
    alone, within a period:

    - any task that {e ended} no later than the rising edge could be the
      sender (the paper assumes messages are sent only when the sender
      finishes);
    - any task that {e started} no earlier than the falling edge could be
      the receiver (a task fires on arrival of its inputs).

    [slack] relaxes both comparisons by a tolerance in microseconds, for
    traces with timestamping jitter (ablation: candidate-window
    sensitivity). *)

val senders : ?slack:int -> ?window:int -> Period.t -> Period.msg -> int list
(** Tasks that could have sent the message, ascending index order. With
    [window] (>= 0), only tasks that ended within [window] microseconds
    {e before} the rising edge qualify (a data-freshness assumption that
    narrows [A_m]). *)

val receivers : ?slack:int -> ?window:int -> Period.t -> Period.msg -> int list
(** With [window] (>= 0), only tasks that started within [window]
    microseconds after the falling edge qualify (an immediate-activation
    assumption). *)

val pair_codes :
  ?slack:int -> ?window:int -> Period.t -> Period.msg -> int array -> int
(** [pair_codes p m codes] writes [A_m] into [codes] and returns its
    size [|A_m|]: every [(s, r)] with [s] among {!senders}, [r] among
    {!receivers} and [s <> r], as the code [s * n + r] ([n] the
    period's task count). As [r < n], the codes ascend in lexicographic
    [(s, r)] order. It allocates nothing. [codes] must hold [n * n]
    entries, which every period over [n] tasks fits. This is the one
    enumerator of [A_m]: {!pairs} decodes it, and every function here
    applies the same sender and receiver tests. *)

val pairs : ?slack:int -> ?window:int -> Period.t -> Period.msg -> (int * int) list
(** {!pair_codes} decoded into [(sender, receiver)] pairs, in the same
    order. *)

val admissible : ?slack:int -> ?window:int -> Period.t -> Period.msg -> bool
(** [pairs p m <> []], without allocating. A message without an
    admissible pair is a frame no task could have sent or received
    under the model of computation. A structurally valid period
    containing one (a spurious frame, or a real frame whose sender was
    lost) would collapse the learner's hypothesis set to ∅; recover-mode
    ingestion excises such frames. *)

val pair_count : ?slack:int -> ?window:int -> Period.t -> int
(** Total candidate pairs across all messages of the period — the
    branching factor the exact algorithm faces. *)
