(** Automatic bound selection, the tuning knob the paper leaves to the
    user: run the heuristic at bounds [initial], [2 initial], [4
    initial], … until the least upper bound of the answer set is the
    same as the previous pass's, or [max_bound] is reached.

    Each pass is one {!Session} over a fresh line source, so a pass
    holds one period in memory, like every other learn, and pays one
    more parse of the input. Each pass also gets a fresh registry, so
    the selected pass's metrics describe that pass alone. *)

type step = {
  bound : int;          (** the heuristic bound this pass ran with *)
  lub_changed : bool;   (** did the LUB move against the previous pass? *)
  elapsed_s : float;    (** wall-clock time of this pass, parse included *)
  hypotheses : int;     (** answer-set size at this bound *)
}

type outcome = {
  session : Session.t;  (** the selected pass, drained and finalized *)
  snapshot : Rt_engine.Engine.snapshot option;
  (** its {!Session.finalize}; [None] iff no period reached an engine *)
  obs : Rt_obs.Registry.t option;  (** its registry *)
  bound : int;          (** its bound *)
  trajectory : step list;
  (** every pass in doubling order; the last is the selected one *)
}

val search :
  ?initial:int -> ?max_bound:int -> ?mode:Rt_trace.Stream_io.mode ->
  ?eps:int -> ?window:int -> ?obs:(unit -> Rt_obs.Registry.t) ->
  (unit -> Rt_trace.Stream_io.line_source) ->
  (outcome, Rt_trace.Stream_io.parse_error) result
(** [search open_] calls [open_] once per pass for the input's lines
    from the start. [initial] defaults to 1, [max_bound] to 256; [mode],
    [eps] and [window] are {!Session.create}'s; [obs] makes each pass's
    registry. A first pass without hypotheses (an inconsistent or empty
    input) counts as stable. A parse error ends the search.
    @raise Invalid_argument when [initial < 1]. *)
