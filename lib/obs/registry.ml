(* Metrics registry: named monotonic counters, gauges, log-bucket
   histograms and hierarchical spans, all owned by one [t]. Handles are
   fetched once at instrumentation-setup time; the per-event operations
   ([incr], [add], [set_gauge], [Histogram.record]) are plain mutations
   of preallocated cells — no allocation, no hashing, no branching on
   sink configuration. Sinks only run when a snapshot is taken.

   The registry is deliberately single-owner: the pipeline records all
   deterministic counters on the orchestrating domain (worker domains
   only compute, see Heuristic.step_message), so no atomics are needed
   and counter totals are reproducible across -j levels. *)

type counter = { c_name : string; mutable c_value : int }

type gauge = {
  g_name : string;
  mutable g_last : int;
  mutable g_max : int;
  mutable g_samples : int;
}

(* A completed span. [depth] is the stack depth at entry (0 = root);
   the Chrome trace-event sink conveys nesting by time containment on
   one track and carries the depth in the event's [args] for the
   viewers' detail pane. *)
type span = {
  s_name : string;
  s_depth : int;
  s_start_ns : int;
  s_dur_ns : int;
}

type t = {
  clock : unit -> int;
  origin_ns : int;
  mutable counters : counter list;   (* reverse registration order *)
  mutable gauges : gauge list;
  mutable hists : (string * Histogram.t) list;
  mutable stack : (string * int) list;  (* open spans: name, start ns *)
  mutable spans : span list;            (* completed, reverse order *)
}

(* Wall clock, monotonic-ized: the stdlib has no monotonic source, so we
   clamp gettimeofday to be non-decreasing per registry. Resolution is
   ~1us, ample for per-period spans. The clamp state is Atomic, not a
   ref: [now_ns] below is shared process-wide and gets called from
   Domain_pool workers (rtlint --deep RTL101), so the read-check-store
   must be a CAS loop or concurrent callers tear the clamp. *)
let default_clock () =
  let last = Atomic.make 0 in
  fun () ->
    (* rtlint: allow RTL201 observability timestamps are wall time by design; learned-artifact bytes derive created_at from periods fed, never from this clock *)
    let now = int_of_float (Unix.gettimeofday () *. 1e9) in
    let rec clamp () =
      let prev = Atomic.get last in
      if now <= prev then prev
      else if Atomic.compare_and_set last prev now then now
      else clamp ()
    in
    clamp ()

(* Process-wide monotonic time for callers that have no registry at
   hand (e.g. each pass of the bound search): never goes backwards even if NTP
   steps the wall clock. *)
let now_ns = default_clock ()

let create ?clock () =
  let clock = match clock with Some c -> c | None -> default_clock () in
  { clock; origin_ns = clock (); counters = []; gauges = []; hists = [];
    stack = []; spans = [] }

let elapsed_ns t = t.clock () - t.origin_ns

(* --- counters --- *)

let counter t name =
  match List.find_opt (fun c -> c.c_name = name) t.counters with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    t.counters <- c :: t.counters;
    c

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let counter_value c = c.c_value

let set_counter t name v = (counter t name).c_value <- v

(* --- gauges --- *)

let gauge t name =
  match List.find_opt (fun g -> g.g_name = name) t.gauges with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_last = 0; g_max = min_int; g_samples = 0 } in
    t.gauges <- g :: t.gauges;
    g

let set_gauge g v =
  g.g_last <- v;
  if v > g.g_max then g.g_max <- v;
  g.g_samples <- g.g_samples + 1

let set_gauge_named t name v = set_gauge (gauge t name) v

(* --- histograms --- *)

let histogram t name =
  match List.assoc_opt name t.hists with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    t.hists <- (name, h) :: t.hists;
    h

(* --- spans --- *)

let span_begin t name = t.stack <- (name, t.clock ()) :: t.stack

let span_end t =
  match t.stack with
  | [] -> invalid_arg "Registry.span_end: no open span"
  | (name, start) :: rest ->
    t.stack <- rest;
    t.spans <-
      { s_name = name; s_depth = List.length rest;
        s_start_ns = start - t.origin_ns;
        s_dur_ns = t.clock () - start }
      :: t.spans

let with_span t name f =
  span_begin t name;
  match f () with
  | v -> span_end t; v
  | exception e -> span_end t; raise e

let open_spans t = List.length t.stack

(* Chronological export for the profiler: start order, parents before
   the children they enclose (depth breaks start-time ties, which a
   coarse or fake clock produces routinely). *)
type raw_span = { name : string; depth : int; start_ns : int; dur_ns : int }

let raw_spans t =
  List.stable_sort
    (fun a b ->
      match Int.compare a.start_ns b.start_ns with
      | 0 -> Int.compare a.depth b.depth
      | c -> c)
    (List.rev_map
       (fun s ->
         { name = s.s_name; depth = s.s_depth; start_ns = s.s_start_ns;
           dur_ns = s.s_dur_ns })
       t.spans)

(* --- sinks --- *)

let schema_name = "rtgen-metrics"
let schema_version = 1

let by_name key l = List.sort (fun a b -> String.compare (key a) (key b)) l

(* Aggregate completed spans per name for the metrics document; the full
   timeline only goes to the trace-event sink. *)
type span_agg = {
  mutable a_count : int;
  mutable a_total : int;
  mutable a_min : int;
  mutable a_max : int;
}

let span_aggregates t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun s ->
      let a =
        match Hashtbl.find_opt tbl s.s_name with
        | Some a -> a
        | None ->
          let a = { a_count = 0; a_total = 0; a_min = max_int; a_max = 0 } in
          Hashtbl.add tbl s.s_name a;
          a
      in
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total + s.s_dur_ns;
      if s.s_dur_ns < a.a_min then a.a_min <- s.s_dur_ns;
      if s.s_dur_ns > a.a_max then a.a_max <- s.s_dur_ns)
    t.spans;
  (* rtlint: allow RTL202 by_name sorts the folded pairs before anything renders them *)
  by_name fst (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let histogram_json h =
  Json.Obj
    [ ("count", Json.Int (Histogram.count h));
      ("sum", Json.Int (Histogram.sum h));
      ("min", Json.Int (Histogram.min_value h));
      ("max", Json.Int (Histogram.max_value h));
      ("buckets",
       Json.List
         (List.map (fun (le, n) ->
              (* The open-ended last bucket prints as le = -1 rather than
                 a 19-digit sentinel. *)
              Json.Obj
                [ ("le", Json.Int (if le = max_int then -1 else le));
                  ("count", Json.Int n) ])
             (Histogram.nonempty_buckets h))) ]

(* The deterministic sections (counters, gauges, histograms) come before
   the timing-dependent ones (spans, elapsed_ns) so tooling and tests can
   compare reproducible prefixes textually. *)
let to_json t =
  Json.Obj
    [ ("schema", Json.String schema_name);
      ("version", Json.Int schema_version);
      ("counters",
       Json.Obj
         (List.map (fun c -> (c.c_name, Json.Int c.c_value))
            (by_name (fun c -> c.c_name) t.counters)));
      ("gauges",
       Json.Obj
         (List.map (fun g ->
              ( g.g_name,
                Json.Obj
                  [ ("last", Json.Int g.g_last);
                    ("max", Json.Int (if g.g_samples = 0 then 0 else g.g_max));
                    ("samples", Json.Int g.g_samples) ] ))
            (by_name (fun g -> g.g_name) t.gauges)));
      ("histograms",
       Json.Obj
         (List.map (fun (name, h) -> (name, histogram_json h))
            (by_name fst t.hists)));
      ("spans",
       Json.Obj
         (List.map (fun (name, a) ->
              ( name,
                Json.Obj
                  [ ("count", Json.Int a.a_count);
                    ("total_ns", Json.Int a.a_total);
                    ("min_ns", Json.Int (if a.a_count = 0 then 0 else a.a_min));
                    ("max_ns", Json.Int a.a_max) ] ))
            (span_aggregates t)));
      ("elapsed_ns", Json.Int (elapsed_ns t)) ]

(* Chrome trace_event sink: an array of complete ("X") events, one per
   span, timestamps in (fractional) microseconds relative to the
   registry origin. Everything runs on one logical track, so nesting is
   conveyed by time containment, which the viewers render as a flame
   graph. Load via chrome://tracing, Perfetto, or speedscope. *)
let trace_events_json t =
  let cat name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  Json.List
    (List.rev_map (fun s ->
         Json.Obj
           [ ("name", Json.String s.s_name);
             ("cat", Json.String (cat s.s_name));
             ("ph", Json.String "X");
             ("pid", Json.Int 1);
             ("tid", Json.Int 1);
             ("ts", Json.Float (float_of_int s.s_start_ns /. 1e3));
             ("dur", Json.Float (float_of_int s.s_dur_ns /. 1e3));
             ("args", Json.Obj [ ("depth", Json.Int s.s_depth) ]) ])
        t.spans)
