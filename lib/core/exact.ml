module Df = Rt_lattice.Depfun
module Period = Rt_trace.Period
module Candidates = Rt_trace.Candidates

type stats = {
  periods_processed : int;
  max_set_size : int;
  created : int;
}

type outcome = {
  hypotheses : Df.t list;
  stats : stats;
}

exception Blowup of { period : int; set_size : int; limit : int }

exception Blowup_signal of int

(* Builds the next level; raises mid-construction when it exceeds [limit]
   so a combinatorial explosion cannot exhaust memory before the
   post-step size check would have caught it. *)
let step_message hs pairs ~created ~limit =
  let count = ref 0 in
  List.concat_map (fun h ->
      List.filter_map (fun (s, r) ->
          match Hypothesis.generalize_message h ~sender:s ~receiver:r with
          | Some h' ->
            incr created;
            incr count;
            if !count > limit then raise (Blowup_signal !count);
            Some h'
          | None -> None)
        pairs)
    hs

let end_of_period ?weakened ?removed hs ~violated =
  List.iter (fun h ->
      let n = Hypothesis.weaken_violations_count h ~violated in
      (match weakened with Some w -> w := !w + n | None -> ());
      Hypothesis.clear_assumptions h)
    hs;
  Postprocess.minimal_only ?removed (Postprocess.dedup ?removed hs)

type state = {
  limit : int;
  window : int option;
  on_period : (int -> Hypothesis.t list -> unit) option;
  violations : Violations.t;
  created : int ref;
  weakened : int ref;
  removed : int ref;
  mutable max_set : int;
  mutable periods : int;
  mutable msgs : int;
  mutable hs : Hypothesis.t list;
  obs : Rt_obs.Registry.t option;
  cand_hist : Rt_obs.Histogram.t option;
  set_gauge : Rt_obs.Registry.gauge option;
}

let init ?(limit = 200_000) ?window ?obs ?on_period ~ntasks () =
  if limit < 1 then invalid_arg "Exact.init: limit must be >= 1";
  if ntasks < 1 then invalid_arg "Exact.init: need at least one task";
  {
    limit;
    window;
    on_period;
    violations = Violations.create ntasks;
    created = ref 1;
    weakened = ref 0;
    removed = ref 0;
    max_set = 1;
    periods = 0;
    msgs = 0;
    hs = [ Hypothesis.bottom ntasks ];
    obs;
    cand_hist =
      Option.map (fun r -> Rt_obs.Registry.histogram r "exact.candidate_pairs")
        obs;
    set_gauge =
      Option.map (fun r -> Rt_obs.Registry.gauge r "exact.set_size") obs;
  }

let watch st period hs =
  let k = List.length hs in
  if k > st.max_set then st.max_set <- k;
  (match st.set_gauge with
   | Some g -> Rt_obs.Registry.set_gauge g k
   | None -> ());
  if k > st.limit then
    raise (Blowup { period; set_size = k; limit = st.limit })

let feed st (p : Period.t) =
  (match st.obs with
   | Some r -> Rt_obs.Registry.span_begin r "exact.period"
   | None -> ());
  let hs =
    Array.fold_left (fun hs m ->
        let pairs = Candidates.pairs ?window:st.window p m in
        (match st.cand_hist with
         | Some h -> Rt_obs.Histogram.record h (List.length pairs)
         | None -> ());
        let hs =
          match step_message hs pairs ~created:st.created ~limit:st.limit with
          | hs -> hs
          | exception Blowup_signal set_size ->
            raise (Blowup { period = p.index; set_size; limit = st.limit })
        in
        watch st p.index hs;
        Postprocess.dedup ~removed:st.removed hs)
      st.hs p.msgs
  in
  Violations.observe st.violations ~executed:p.executed;
  let hs =
    end_of_period ~weakened:st.weakened ~removed:st.removed hs
      ~violated:(Violations.matrix st.violations)
  in
  (match st.on_period with Some f -> f p.index hs | None -> ());
  st.hs <- hs;
  st.periods <- st.periods + 1;
  st.msgs <- st.msgs + Array.length p.msgs;
  (match st.obs with Some r -> Rt_obs.Registry.span_end r | None -> ())

let current st =
  List.map (fun h -> Df.copy (Hypothesis.depfun h)) st.hs

let stats st =
  { periods_processed = st.periods;
    max_set_size = st.max_set;
    created = !(st.created) }

let messages_processed st = st.msgs

(* Totals are pushed once here (overwriting), not incremented live, so
   the same numbers surface no matter how the state was driven — whole
   trace at once or one period at a time. *)
let publish st =
  match st.obs with
  | None -> ()
  | Some r ->
    let set = Rt_obs.Registry.set_counter r in
    set "exact.periods" st.periods;
    set "exact.created" !(st.created);
    set "exact.max_set_size" st.max_set;
    set "exact.weakenings" !(st.weakened);
    set "exact.dedup_removed" !(st.removed);
    set "exact.hypotheses" (List.length st.hs)

let snapshot st =
  publish st;
  { hypotheses = current st; stats = stats st }

let run ?limit ?window ?obs ?on_period trace =
  let st =
    init ?limit ?window ?obs ?on_period
      ~ntasks:(Rt_trace.Trace.task_count trace) ()
  in
  List.iter (feed st) (Rt_trace.Trace.periods trace);
  snapshot st

let converged o = match o.hypotheses with [ d ] -> Some d | [] | _ :: _ -> None
