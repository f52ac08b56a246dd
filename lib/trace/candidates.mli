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
    [window], only tasks that ended within [window] microseconds {e
    before} the rising edge qualify (a data-freshness assumption that
    narrows [A_m]). *)

val receivers : ?slack:int -> ?window:int -> Period.t -> Period.msg -> int list
(** With [window], only tasks that started within [window] microseconds
    after the falling edge qualify (an immediate-activation assumption). *)

val pairs :
  ?slack:int -> ?window:int -> ?hist:Rt_obs.Histogram.t ->
  Period.t -> Period.msg -> (int * int) list
(** All (sender, receiver) combinations with sender <> receiver, in
    lexicographic order. This is [A_m]. When [hist] is given the
    candidate-set size [|A_m|] is recorded into it — the learners pass
    their ["*.candidate_pairs"] histogram; the cost when absent is one
    branch. *)

val pair_codes :
  ?slack:int -> ?window:int -> Period.t -> Period.msg -> int array -> int
(** [pair_codes p m codes] writes {!pairs}[ p m] into [codes] as codes
    [s * n + r] ([n] the period's task count), in the same order, and
    returns how many it wrote. It allocates nothing. [codes] must hold
    [n * n] entries, which every period over [n] tasks fits. *)

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
