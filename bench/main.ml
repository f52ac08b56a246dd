(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DATE'07, §3.3-3.4) plus the ablations called out in
   DESIGN.md. Absolute times differ from the 2007 Pentium M; the shapes
   are what EXPERIMENTS.md records.

   Run with: dune exec bench/main.exe
   Set RTGEN_BENCH_FAST=1 to skip the slowest sweep entries.
   Set RTGEN_BENCH_JOBS=N (or pass --jobs N) to run the Table 1 bound
   sweep on a pool of N domains.
   Pass --json [PATH] (or set RTGEN_BENCH_JSON=1 / a path) to also write
   the Table 1 measurements to BENCH_heuristic.json / PATH. *)

module Table = Rt_util.Table
module Df = Rt_lattice.Depfun
module Gm = Rt_case.Gm_model

let fast_mode =
  match Sys.getenv_opt "RTGEN_BENCH_FAST" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let argv_value flag =
  let n = Array.length Sys.argv in
  let rec go i =
    if i >= n then None
    else if Sys.argv.(i) = flag && i + 1 < n then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let jobs =
  let of_string s = try max 1 (int_of_string (String.trim s)) with _ -> 1 in
  match argv_value "--jobs" with
  | Some s -> of_string s
  | None ->
    (match Sys.getenv_opt "RTGEN_BENCH_JOBS" with
     | Some s -> of_string s
     | None -> 1)

let json_path =
  let from_env =
    match Sys.getenv_opt "RTGEN_BENCH_JSON" with
    | Some ("" | "0" | "false" | "no") | None -> None
    | Some ("1" | "true" | "yes") -> Some "BENCH_heuristic.json"
    | Some path -> Some path
  in
  if Array.exists (fun a -> a = "--json") Sys.argv then
    (* An operand after [--json] (anything not starting with '-')
       overrides the default file name. *)
    match argv_value "--json" with
    | Some p when String.length p > 0 && p.[0] <> '-' -> Some p
    | Some _ | None -> Some (Option.value from_env ~default:"BENCH_heuristic.json")
  else from_env

let wall f =
  let t0 = Rt_obs.Registry.now_ns () in
  let r = f () in
  (r, float_of_int (Rt_obs.Registry.now_ns () - t0) /. 1e9)

(* The median of repeated timings, so one descheduled run cannot move
   a gated ratio. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

(* --- bechamel helpers: one Test.make per benched operation --- *)

let bechamel_estimates ~quota tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"bench" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name v acc ->
      match Analyze.OLS.estimates v with
      | Some [ ns ] -> (name, ns) :: acc
      | Some _ | None -> (name, Float.nan) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let print_bechamel ~quota tests =
  let rows =
    List.map (fun (name, ns) -> [ name; pp_ns ns ])
      (bechamel_estimates ~quota tests)
  in
  print_string (Table.render ~header:[ "benchmark"; "time/run" ] rows)

(* ------------------------------------------------------------------ *)
(* Table 1: heuristic runtime vs bound on the 18-task / 27-period /
   ~330-message reference trace.                                       *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [ (1, 0.220); (4, 0.471); (16, 1.202); (32, 2.573); (64, 5.899);
    (100, 12.608); (120, 16.294); (150, 19.048) ]

(* One Table 1 measurement: the production workset learner head-to-head
   against the preserved seed implementation ({!Rt_learn.Reference}) on
   the same bound. Also the payload of BENCH_heuristic.json. *)
type table1_row = {
  bound : int;
  workset_s : float;   (** wall time, new array-backed working set *)
  legacy_s : float;    (** wall time, seed sorted-list working set *)
  merges : int;
  survivors : int;
}

(* The smallest bound at which the O(log b) workset beats the seed's O(b)
   sorted list. Below it the asymmetry is expected, not a regression: the
   array working set pays fixed per-insertion overhead (heap bookkeeping,
   canonical-order maintenance) that only amortizes once b is large
   enough for the seed's linear scans to dominate. *)
let crossover_bound rows =
  List.find_map
    (fun r -> if r.workset_s < r.legacy_s then Some r.bound else None)
    (List.sort (fun a b -> Int.compare a.bound b.bound) rows)

let bench_table1 trace =
  section "Table 1: heuristic runtime vs bound (paper's only table)";
  Printf.printf "workload: %s\n"
    (Format.asprintf "%a" Rt_trace.Trace.pp_summary trace);
  if jobs > 1 then
    Printf.printf "bound sweep on %d domains (RTGEN_BENCH_JOBS)\n" jobs;
  let bounds = if fast_mode then [ 1; 4; 16; 32 ] else List.map fst paper_table1 in
  let measure bound =
    let o, dt = wall (fun () -> Rt_learn.Heuristic.run ~bound trace) in
    let ol, dtl = wall (fun () -> Rt_learn.Reference.run ~bound trace) in
    assert (List.for_all2 Df.equal o.Rt_learn.Heuristic.hypotheses
              ol.Rt_learn.Heuristic.hypotheses);
    { bound; workset_s = dt; legacy_s = dtl;
      merges = o.Rt_learn.Heuristic.stats.merges;
      survivors = List.length o.Rt_learn.Heuristic.hypotheses }
  in
  let data =
    (* Whole runs are independent, so the sweep parallelizes at the
       per-bound grain; per-bound wall times are still measured inside
       the worker. *)
    if jobs > 1 then begin
      let pool = Rt_util.Domain_pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
        (fun () -> Rt_util.Domain_pool.map_list pool measure bounds)
    end
    else List.map measure bounds
  in
  let rows =
    List.map (fun r ->
        let paper =
          match List.assoc_opt r.bound paper_table1 with
          | Some s -> Printf.sprintf "%.3f" s
          | None -> "-"
        in
        [ string_of_int r.bound; Printf.sprintf "%.3f" r.workset_s;
          Printf.sprintf "%.3f" r.legacy_s;
          Printf.sprintf "%.2fx" (r.legacy_s /. Float.max r.workset_s 1e-9);
          paper; string_of_int r.merges; string_of_int r.survivors ])
      data
  in
  print_string
    (Table.render
       ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right;
                 Table.Right; Table.Right; Table.Right ]
       ~header:[ "bound"; "workset (s)"; "seed list (s)"; "speedup";
                 "paper 2007 (s)"; "merges"; "|D*|" ]
       rows);
  print_endline
    "head-to-head: both columns share the byte-matrix kernels; the speedup\n\
     column isolates the working-set data structure (O(log b) array vs the\n\
     seed's O(b) sorted list). Results are asserted identical.";
  (match crossover_bound data with
   | Some b ->
     Printf.printf
       "crossover: workset wins from bound %d up; below it the seed list's\n\
        lower constant factors win (expected, see EXPERIMENTS.md).\n" b
   | None ->
     print_endline
       "crossover: the workset never beat the seed list in this sweep.");
  print_endline "shape check: runtime grows monotonically and low-polynomially in the bound.";
  (* The bechamel-sampled variant for the fast bounds. *)
  let open Bechamel in
  print_bechamel ~quota:0.5
    (List.map (fun bound ->
         Test.make
           ~name:(Printf.sprintf "table1/bound=%d" bound)
           (Staged.stage (fun () ->
                ignore (Rt_learn.Heuristic.run ~bound trace))))
       [ 1; 4 ]);
  data

(* ------------------------------------------------------------------ *)
(* Sharded head-to-head: the K-shard fold (DESIGN.md §14) against the
   monolithic heuristic run on the same bound.                          *)
(* ------------------------------------------------------------------ *)

type sharded_row = { k : int; sharded_s : float; samples : float list }

type sharded_data = {
  sh_bound : int;
  sh_jobs : int;
  monolithic_s : float;  (** median wall time, single-engine heuristic run *)
  mono_samples : float list;
  runs : sharded_row list;
}

let bench_sharded trace =
  section "Sharded learning: K-shard fold vs monolithic run (DESIGN.md sec. 14)";
  let bound = if fast_mode then 16 else 150 in
  (* The fold is exact at bound 1 for every K (the companion design of
     lib/shard); every sharded run is asserted byte-equal to it. *)
  let oracle =
    match (Rt_learn.Heuristic.run ~bound:1 trace).Rt_learn.Heuristic.hypotheses with
    | [ d ] -> d
    | _ -> failwith "sharded bench: reference trace must be consistent"
  in
  let pool =
    if jobs > 1 then Some (Rt_util.Domain_pool.create ~jobs) else None
  in
  (* Each run is the program's one sharded path: a session parsing the
     trace's text, its rounds of K periods fed on the pool, then folded. *)
  let text = Rt_trace.Trace_io.to_string trace in
  let learn k =
    let module S = Rt_shard.Session in
    let s, _ =
      S.create ?pool ~shards:k (Rt_engine.Engine.Heuristic { bound })
        (Rt_trace.Stream_io.lines_of_string text)
    in
    let rec drain () =
      match S.next s with
      | Ok (Some _) -> drain ()
      | Ok None -> S.fold s
      | Error e -> failwith ("sharded bench: " ^ e.message)
    in
    drain ()
  in
  let ks = [ 1; 2; 4; 8 ] in
  (* [repeats] rounds, each a monolithic run and then one sharded run
     per K, so a slow spell of a shared host lands on both sides of
     every ratio; each figure is the median of its [repeats] samples. *)
  let repeats = 5 in
  let round () =
    let _, mono = wall (fun () -> Rt_learn.Heuristic.run ~bound trace) in
    let sharded =
      List.map
        (fun k ->
           let model, dt = wall (fun () -> learn k) in
           (match model with
            | Some m when Df.equal m oracle -> ()
            | Some _ | None ->
              failwith "sharded bench: fold differs from monolithic d*(1)");
           dt)
        ks
    in
    (mono, sharded)
  in
  let rounds =
    Fun.protect
      ~finally:(fun () -> Option.iter Rt_util.Domain_pool.shutdown pool)
      (fun () -> List.init repeats (fun _ -> round ()))
  in
  let mono_samples = List.map fst rounds in
  let mono_s = median mono_samples in
  let runs =
    List.mapi
      (fun i k ->
         let samples = List.map (fun (_, sh) -> List.nth sh i) rounds in
         { k; sharded_s = median samples; samples })
      ks
  in
  print_string
    (Table.render
       ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "shards"; "sharded (s)"; "monolithic (s)"; "speedup" ]
       (List.map
          (fun r ->
             [ string_of_int r.k; Printf.sprintf "%.3f" r.sharded_s;
               Printf.sprintf "%.3f" mono_s;
               Printf.sprintf "%.2fx" (mono_s /. Float.max r.sharded_s 1e-9) ])
          runs));
  Printf.printf
    "bound %d, %d worker domain(s), median of %d interleaved runs each;\n\
     every fold asserted byte-equal to the monolithic bound-1 model. Each\n\
     shard also runs a bound-1 companion, so at jobs=1 the sweep measures\n\
     pure sharding overhead — wall-clock wins need RTGEN_BENCH_JOBS >= 2\n\
     (see EXPERIMENTS.md).\n"
    bound jobs repeats;
  { sh_bound = bound; sh_jobs = jobs; monolithic_s = mono_s; mono_samples;
    runs }

(* ------------------------------------------------------------------ *)
(* Observability: flight-recorder overhead on the engine's feed path.
   The recorder is designed to be near-free — one option branch when
   detached, four array writes plus the caller's detail string when
   attached — and this probe pins that: a bound-64 learn through
   Rt_engine.Engine with and without a recorder scope, back to back on
   the same host. check_bench.py gates the on/off quotient.            *)
(* ------------------------------------------------------------------ *)

type recorder_data = {
  rec_bound : int;
  rec_off_s : float;   (** engine feed, no recorder attached *)
  rec_on_s : float;    (** same feed with a flight scope attached *)
  rec_events : int;    (** events the attached recorder captured *)
}

let bench_recorder trace =
  section "Observability: flight-recorder overhead (engine feed, on vs off)";
  let bound = if fast_mode then 16 else 64 in
  let periods = Rt_trace.Trace.periods trace in
  let feed ?flight () =
    let eng =
      Rt_engine.Engine.create ?flight
        ~ntasks:(Rt_trace.Trace.task_count trace)
        (Rt_engine.Engine.Heuristic { bound })
    in
    List.iter (Rt_engine.Engine.feed eng) periods;
    Rt_engine.Engine.finalize eng
  in
  let off, off_s = wall (fun () -> feed ()) in
  let ring = Rt_obs.Flight.create ~capacity:4096 () in
  let scope = Rt_obs.Flight.scope ring "bench" in
  let on_, on_s = wall (fun () -> feed ~flight:scope ()) in
  (* Recording must be observation only. *)
  assert (List.for_all2 Df.equal off.Rt_engine.Engine.hypotheses
            on_.Rt_engine.Engine.hypotheses);
  let events = Rt_obs.Flight.recorded ring in
  assert (events = List.length periods);
  print_string
    (Table.render
       ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "bound"; "recorder off (s)"; "recorder on (s)"; "overhead" ]
       [ [ string_of_int bound; Printf.sprintf "%.3f" off_s;
           Printf.sprintf "%.3f" on_s;
           Printf.sprintf "%.3fx" (on_s /. Float.max off_s 1e-9) ] ]);
  Printf.printf
    "%d engine.period events captured; hypotheses asserted identical with\n\
     and without the recorder.\n"
    events;
  { rec_bound = bound; rec_off_s = off_s; rec_on_s = on_s;
    rec_events = events }

(* BENCH_heuristic.json: the Table 1 per-bound wall times, machine
   readable for tracking runs over time. Written by hand — the bench
   payload is flat and predates Rt_obs.Json. *)
let emit_json path trace rows sharded recorder =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"benchmark\": \"heuristic-table1\",\n";
  out "  \"workload\": %S,\n"
    (Format.asprintf "%a" Rt_trace.Trace.pp_summary trace);
  out "  \"jobs\": %d,\n" jobs;
  out "  \"fast_mode\": %b,\n" fast_mode;
  out "  \"crossover_bound\": %s,\n"
    (match crossover_bound rows with
     | Some b -> string_of_int b
     | None -> "null");
  let samples xs =
    String.concat ", " (List.map (Printf.sprintf "%.6f") xs)
  in
  out
    "  \"sharded\": { \"bound\": %d, \"jobs\": %d, \
     \"monolithic_seconds\": %.6f, \"monolithic_samples\": [ %s ], \
     \"runs\": [ %s ] },\n"
    sharded.sh_bound sharded.sh_jobs sharded.monolithic_s
    (samples sharded.mono_samples)
    (String.concat ", "
       (List.map
          (fun r ->
             Printf.sprintf
               "{ \"shards\": %d, \"seconds\": %.6f, \"samples\": [ %s ] }"
               r.k r.sharded_s (samples r.samples))
          sharded.runs));
  out
    "  \"recorder\": { \"bound\": %d, \"off_seconds\": %.6f, \
     \"on_seconds\": %.6f, \"events\": %d },\n"
    recorder.rec_bound recorder.rec_off_s recorder.rec_on_s
    recorder.rec_events;
  out "  \"bounds\": [\n";
  List.iteri (fun i r ->
      out
        "    { \"bound\": %d, \"workset_seconds\": %.6f, \
         \"legacy_seconds\": %.6f, \"merges\": %d, \"hypotheses\": %d }%s\n"
        r.bound r.workset_s r.legacy_s r.merges r.survivors
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  Rt_util.Atomic_file.write path (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* The same sweep through the Rt_obs sinks: both implementations' wall
   times as histograms plus the crossover gauge, in the schema `rtgen
   report` renders. Written next to the raw JSON ("*.metrics.json"). *)
let emit_metrics path rows sharded =
  let reg = Rt_obs.Registry.create () in
  let hw = Rt_obs.Registry.histogram reg "bench.workset_us" in
  let hl = Rt_obs.Registry.histogram reg "bench.legacy_us" in
  List.iter (fun r ->
      Rt_obs.Histogram.record hw (int_of_float (r.workset_s *. 1e6));
      Rt_obs.Histogram.record hl (int_of_float (r.legacy_s *. 1e6)))
    (List.sort (fun a b -> Int.compare a.bound b.bound) rows);
  Rt_obs.Registry.set_counter reg "bench.bounds_swept" (List.length rows);
  Rt_obs.Registry.set_counter reg "bench.jobs" sharded.sh_jobs;
  Rt_obs.Registry.set_counter reg "bench.shards"
    (List.fold_left (fun acc r -> max acc r.k) 0 sharded.runs);
  let hs = Rt_obs.Registry.histogram reg "bench.sharded_us" in
  List.iter
    (fun r -> Rt_obs.Histogram.record hs (int_of_float (r.sharded_s *. 1e6)))
    sharded.runs;
  (match crossover_bound rows with
   | Some b -> Rt_obs.Registry.set_gauge_named reg "bench.crossover_bound" b
   | None -> ());
  Rt_util.Atomic_file.write path
    (Rt_obs.Json.to_string ~pretty:true (Rt_obs.Registry.to_json reg));
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Table 1, exact row: "the precise but exponential algorithm ... took
   630.997 seconds and returned a single dependency function, which
   equaled the least upper bound of the dependency functions we obtained
   with heuristics".                                                    *)
(* ------------------------------------------------------------------ *)

let bench_exact_vs_heuristic () =
  section "Table 1 (exact row): exact vs heuristic";
  print_endline
    "The full 18-task trace is intractable for the undescribed-pruning-free\n\
     exact algorithm (see DESIGN.md); the exact/heuristic relation is\n\
     reproduced on instances where the exact version space fits in memory.";
  let instances =
    ("paper fig2 example", Rt_case.Paper_example.trace ())
    :: List.map (fun seed ->
        let d =
          Rt_task.Generator.generate
            { Rt_task.Generator.default with
              layers = 3; width_min = 1; width_max = 2;
              edge_density = 0.3; skip_density = 0.0 }
            ~seed
        in
        ( Printf.sprintf "random design (seed %d, %d tasks)" seed
            (Rt_task.Design.size d),
          Rt_sim.Simulator.run d
            { Rt_sim.Simulator.default_config with periods = 6; seed } ))
      [ 3; 8; 21 ]
  in
  let rows =
    List.filter_map (fun (name, trace) ->
        match wall (fun () -> Rt_learn.Exact.run ~limit:100_000 trace) with
        | exception Rt_learn.Exact.Blowup _ -> Some [ name; "blowup"; "-"; "-"; "-"; "-" ]
        | oe, te ->
          let oh, th = wall (fun () -> Rt_learn.Heuristic.run ~bound:1 trace) in
          let dominated =
            match oh.Rt_learn.Heuristic.hypotheses, oe.Rt_learn.Exact.hypotheses with
            | [ d1 ], (_ :: _ as de) -> Df.leq (Df.lub de) d1
            | [], [] -> true
            | _ -> false
          in
          Some
            [ name; Printf.sprintf "%.4f" te;
              string_of_int (List.length oe.Rt_learn.Exact.hypotheses);
              Printf.sprintf "%.4f" th;
              Printf.sprintf "%.1fx" (te /. Float.max th 1e-9);
              (if dominated then "yes" else "NO") ])
      instances
  in
  print_string
    (Table.render
       ~header:[ "instance"; "exact (s)"; "|D*|"; "bound-1 (s)"; "slowdown";
                 "lub(exact) below bound-1" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Figs. 1-4: the worked example of §3.3.                              *)
(* ------------------------------------------------------------------ *)

let bench_worked_example () =
  section "Figs. 1-4: §3.3 worked example (d11..d85, dLUB)";
  let trace = Rt_case.Paper_example.trace () in
  let oe = Rt_learn.Exact.run trace in
  let ok_final =
    List.length oe.hypotheses = 5
    && Df.equal (Df.lub oe.hypotheses) Rt_case.Paper_example.expected_lub
  in
  Printf.printf "exact reproduces the paper's 5 hypotheses and dLUB: %b\n"
    ok_final;
  let open Bechamel in
  print_bechamel ~quota:0.5
    [
      Test.make ~name:"fig2/exact"
        (Staged.stage (fun () -> ignore (Rt_learn.Exact.run trace)));
      Test.make ~name:"fig2/heuristic-bound1"
        (Staged.stage (fun () -> ignore (Rt_learn.Heuristic.run ~bound:1 trace)));
      Test.make ~name:"fig3/lattice-join-table"
        (Staged.stage (fun () ->
             List.iter (fun a ->
                 List.iter (fun b -> ignore (Rt_lattice.Depval.join a b))
                   Rt_lattice.Depval.all)
               Rt_lattice.Depval.all));
      Test.make ~name:"fig4/dot-render"
        (Staged.stage (fun () ->
             ignore
               (Rt_analysis.Dep_graph.to_dot Rt_case.Paper_example.expected_lub)));
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 5 + §3.4 properties: the case-study pipeline.                  *)
(* ------------------------------------------------------------------ *)

let bench_case_study trace =
  section "Fig. 5 + §3.4: case-study pipeline";
  let design = Gm.design () in
  let model =
    match (Rt_learn.Heuristic.run ~bound:1 trace).hypotheses with
    | [ d ] -> d
    | _ -> failwith "case study learning failed"
  in
  let path = Rt_analysis.Latency.critical_path design in
  let pess, inf, gain = Rt_analysis.Latency.improvement design ~dep:model ~path in
  let q = Gm.task "Q" and o = Gm.task "O" in
  print_string
    (Table.render ~header:[ "property (sec. 3.4)"; "paper"; "reproduced" ]
       [
         [ "A, B disjunction nodes"; "yes";
           (let disj = Rt_analysis.Classify.disjunction_nodes model in
            if List.mem (Gm.task "A") disj && List.mem (Gm.task "B") disj
            then "yes" else "NO") ];
         [ "H, P, Q conjunction nodes"; "yes";
           (let conj = Rt_analysis.Classify.conjunction_nodes model in
            if List.for_all (fun x -> List.mem (Gm.task x) conj) [ "H"; "P"; "Q" ]
            then "yes" else "NO") ];
         [ "d(A,L) = ->"; "yes";
           Rt_lattice.Depval.to_string (Df.get model (Gm.task "A") (Gm.task "L")) ];
         [ "d(B,M) = ->"; "yes";
           Rt_lattice.Depval.to_string (Df.get model (Gm.task "B") (Gm.task "M")) ];
         [ "implicit Q-O dependency"; "yes";
           Rt_lattice.Depval.to_string (Df.get model q o) ];
         [ "state-space reduction"; "qualitative";
           Printf.sprintf "%.0fx" (Rt_analysis.Reachability.reduction model) ];
         [ "critical-path latency gain"; "qualitative";
           Printf.sprintf "%d -> %dus (%.2fx)" pess inf gain ];
       ]);
  let open Bechamel in
  print_bechamel ~quota:0.5
    [
      Test.make ~name:"fig5/simulate-27-periods"
        (Staged.stage (fun () -> ignore (Gm.trace ())));
      Test.make ~name:"fig5/learn-bound1"
        (Staged.stage (fun () -> ignore (Rt_learn.Heuristic.run ~bound:1 trace)));
      Test.make ~name:"fig5/classify"
        (Staged.stage (fun () -> ignore (Rt_analysis.Classify.classify model)));
      Test.make ~name:"fig5/reachability-2^18"
        (Staged.stage (fun () ->
             ignore (Rt_analysis.Reachability.count_consistent model)));
      Test.make ~name:"fig5/latency-critical-path"
        (Staged.stage (fun () ->
             ignore (Rt_analysis.Latency.improvement design ~dep:model ~path)));
      Test.make ~name:"fig5/dot-render"
        (Staged.stage (fun () ->
             ignore (Rt_analysis.Dep_graph.to_dot ~names:Gm.names model)));
    ]

(* ------------------------------------------------------------------ *)
(* §4 complexity: O(m·b² + m·b·t²) scaling sweeps.                      *)
(* ------------------------------------------------------------------ *)

let bench_scaling () =
  section "§4 complexity: scaling in m (messages) and t (tasks), bound fixed";
  let bound = 16 in
  let rows_m =
    List.map (fun periods ->
        let trace = Gm.trace ~periods () in
        let _, dt = wall (fun () -> Rt_learn.Heuristic.run ~bound trace) in
        [ string_of_int periods;
          string_of_int (Rt_trace.Trace.total_messages trace);
          Printf.sprintf "%.3f" dt ])
      (if fast_mode then [ 9; 18 ] else [ 9; 18; 27; 54 ])
  in
  print_string
    (Table.render ~aligns:[ Table.Right; Table.Right; Table.Right ]
       ~header:[ "periods"; "messages m"; Printf.sprintf "time (s), b=%d" bound ]
       rows_m);
  print_endline "expected shape: roughly linear in m.";
  let rows_t =
    List.filter_map (fun ntasks ->
        let design = Rt_task.Generator.sized ~ntasks ~seed:5 in
        match
          Rt_sim.Simulator.run design
            { Rt_sim.Simulator.default_config with periods = 27; seed = 5 }
        with
        | exception Rt_sim.Simulator.Overrun _ -> None
        | trace ->
          let _, dt = wall (fun () -> Rt_learn.Heuristic.run ~bound trace) in
          Some
            [ string_of_int (Rt_task.Design.size design);
              string_of_int (Rt_trace.Trace.total_messages trace);
              Printf.sprintf "%.3f" dt ])
      (if fast_mode then [ 6; 12 ] else [ 6; 12; 18; 24 ])
  in
  print_string
    (Table.render ~aligns:[ Table.Right; Table.Right; Table.Right ]
       ~header:[ "tasks t"; "messages m"; Printf.sprintf "time (s), b=%d" bound ]
       rows_t);
  print_endline "expected shape: polynomial (t enters via candidate-set size ~ t^2)."

(* ------------------------------------------------------------------ *)
(* Ablation: matching via backtracking vs SAT encoding.                *)
(* ------------------------------------------------------------------ *)

let bench_matching trace =
  section "Ablation: matching function, backtracking vs DPLL-SAT encoding";
  let model =
    match (Rt_learn.Heuristic.run ~bound:1 trace).hypotheses with
    | [ d ] -> d
    | _ -> failwith "unreachable"
  in
  let periods = Rt_trace.Trace.periods trace in
  let agree =
    List.for_all (fun p ->
        Rt_learn.Matching.matches model p = Rt_sat.Match_encoding.matches_sat model p)
      periods
  in
  Printf.printf "both deciders agree on all %d periods: %b\n"
    (List.length periods) agree;
  let p0 = List.hd periods in
  let open Bechamel in
  print_bechamel ~quota:0.5
    [
      Test.make ~name:"matching/backtracking"
        (Staged.stage (fun () -> ignore (Rt_learn.Matching.matches model p0)));
      Test.make ~name:"matching/sat-encode+solve"
        (Staged.stage (fun () ->
             ignore (Rt_sat.Match_encoding.matches_sat model p0)));
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: merge policy under the bound.                             *)
(* ------------------------------------------------------------------ *)

let bench_merge_policy trace =
  section "Ablation: merge policy (paper merges the two lightest)";
  let policies =
    [ ("lightest-pair (paper)", Rt_learn.Heuristic.Lightest_pair);
      ("heaviest-pair", Rt_learn.Heuristic.Heaviest_pair);
      ("first+last", Rt_learn.Heuristic.First_last) ]
  in
  let rows =
    List.concat_map (fun bound ->
        List.map (fun (name, policy) ->
            let o, dt =
              wall (fun () -> Rt_learn.Heuristic.run ~policy ~bound trace)
            in
            let quality =
              match o.Rt_learn.Heuristic.hypotheses with
              | [] -> "inconsistent"
              | l -> string_of_int (Df.weight (Df.lub l))
            in
            [ string_of_int bound; name; Printf.sprintf "%.3f" dt;
              string_of_int o.Rt_learn.Heuristic.stats.merges; quality ])
          policies)
      [ 4; 16 ]
  in
  print_string
    (Table.render
       ~header:[ "bound"; "policy"; "time (s)"; "merges";
                 "lub weight (lower = more specific)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Ablation: candidate window sensitivity.                             *)
(* ------------------------------------------------------------------ *)

let bench_candidate_window trace =
  section "Ablation: candidate-window sensitivity (A_m inference)";
  let windows = [ Some 200; Some 500; Some 1000; None ] in
  let rows =
    List.map (fun window ->
        let pairs =
          List.fold_left (fun acc p ->
              acc + Rt_trace.Candidates.pair_count ?window p)
            0 (Rt_trace.Trace.periods trace)
        in
        let o, dt =
          wall (fun () -> Rt_learn.Heuristic.run ?window ~bound:1 trace)
        in
        let weight, sound =
          match o.Rt_learn.Heuristic.hypotheses with
          | [ d ] ->
            ( string_of_int (Df.weight d),
              if Rt_learn.Matching.matches_trace d trace then "yes" else "NO" )
          | [] -> ("inconsistent", "-")
          | _ -> ("?", "-")
        in
        [ (match window with None -> "unbounded" | Some w -> string_of_int w);
          string_of_int pairs; Printf.sprintf "%.3f" dt; weight; sound ])
      windows
  in
  print_string
    (Table.render
       ~header:[ "window (us)"; "candidate pairs"; "time (s)";
                 "model weight"; "matches trace (unbounded M)" ]
       rows);
  print_endline
    "narrow windows shrink A_m (faster, more specific models) but risk\n\
     excluding the true sender/receiver; 'inconsistent' marks that failure."

(* ------------------------------------------------------------------ *)
(* Tooling micro-benchmarks: online learning, period inference, trace
   exports.                                                             *)
(* ------------------------------------------------------------------ *)

let bench_tooling trace =
  section "Tooling: online feed, period inference, exports";
  let periods = Rt_trace.Trace.periods trace in
  let p0 = List.hd periods in
  let flat =
    List.concat_map (fun (p : Rt_trace.Period.t) ->
        List.map (fun (e : Rt_trace.Event.t) ->
            { e with Rt_trace.Event.time = e.time + (p.index * 20_000) })
          (Rt_trace.Period.events p))
      periods
  in
  let open Bechamel in
  print_bechamel ~quota:0.5
    [
      Test.make ~name:"online/feed-one-period-bound8"
        (Staged.stage (fun () ->
             let st = Rt_learn.Heuristic.init ~bound:8 ~ntasks:18 () in
             Rt_learn.Heuristic.feed st p0));
      Test.make ~name:"tooling/infer-period"
        (Staged.stage (fun () -> ignore (Rt_trace.Trace.infer_period flat)));
      Test.make ~name:"tooling/stats"
        (Staged.stage (fun () -> ignore (Rt_trace.Stats.of_trace trace)));
      Test.make ~name:"tooling/vcd-export"
        (Staged.stage (fun () -> ignore (Rt_trace.Vcd.to_string trace)));
      Test.make ~name:"tooling/gantt-svg"
        (Staged.stage (fun () -> ignore (Rt_trace.Gantt.to_svg p0)));
    ]

(* ------------------------------------------------------------------ *)
(* Robustness: corrupt / recover-parse / checkpoint hot paths.          *)
(* ------------------------------------------------------------------ *)

let bench_robustness trace =
  section "Robustness: fault injection, recover-mode ingestion, checkpoints";
  let spec = { Rt_trace.Corrupt.default with rate = 0.1; seed = 7 } in
  let corrupted = Rt_trace.Corrupt.to_string (Rt_trace.Corrupt.apply spec trace) in
  let clean = Rt_trace.Trace_io.to_string trace in
  let st = Rt_learn.Heuristic.init ~bound:16 ~ntasks:18 () in
  List.iter (Rt_learn.Heuristic.feed st) (Rt_trace.Trace.periods trace);
  let ckpt = Rt_learn.Heuristic.checkpoint [ st ] in
  Printf.printf "corrupted text: %d bytes; checkpoint: %d bytes\n%!"
    (String.length corrupted) (String.length ckpt);
  let open Bechamel in
  print_bechamel ~quota:0.5
    [
      Test.make ~name:"robust/inject-10pct"
        (Staged.stage (fun () ->
             ignore (Rt_trace.Corrupt.apply spec trace)));
      Test.make ~name:"robust/parse-strict-clean"
        (Staged.stage (fun () ->
             ignore (Rt_trace.Trace_io.of_string clean)));
      Test.make ~name:"robust/parse-recover-clean"
        (Staged.stage (fun () ->
             ignore (Rt_trace.Trace_io.of_string ~mode:`Recover clean)));
      Test.make ~name:"robust/parse-recover-10pct"
        (Staged.stage (fun () ->
             ignore
               (Rt_trace.Trace_io.of_string ~mode:`Recover ~eps:60 corrupted)));
      Test.make ~name:"robust/checkpoint-bound16"
        (Staged.stage (fun () -> ignore (Rt_learn.Heuristic.checkpoint [ st ])));
      Test.make ~name:"robust/resume-bound16"
        (Staged.stage (fun () ->
             ignore (Result.get_ok (Rt_learn.Heuristic.resume ckpt))));
    ];
  print_endline
    "recover-mode parsing on a clean trace should track strict parsing;\n\
     the gap on damaged input is the price of the repair pass."

(* ------------------------------------------------------------------ *)
(* Baseline: process-mining ordering inference vs the learner.         *)
(* ------------------------------------------------------------------ *)

let bench_baseline trace =
  section "Baseline: order miner vs version-space learner (design ground truth)";
  let fmt m = Format.asprintf "%a" Rt_mining.Order_miner.pp_metrics m in
  (* On the GM trace: the single conservative LUB model vs the miner. At
     bound 1 both degrade to co-execution implication + ordering, which
     is exactly why the version space's answer SET matters — shown on the
     exact-tractable instances below. *)
  let design = Gm.design () in
  let truth = Option.get (Rt_task.Design.ground_truth design) in
  let model =
    match (Rt_learn.Heuristic.run ~bound:1 trace).hypotheses with
    | [ d ] -> d
    | _ -> failwith "unreachable"
  in
  let mined, t_mined = wall (fun () -> Rt_mining.Order_miner.infer trace) in
  print_string
    (Table.render ~header:[ "method (GM trace)"; "time (s)"; "vs design ground truth" ]
       [
         [ "order miner (no messages)"; Printf.sprintf "%.4f" t_mined;
           fmt (Rt_mining.Order_miner.score ~predicted:mined ~truth) ];
         [ "learner LUB (bound 1)"; "see Table 1";
           fmt (Rt_mining.Order_miner.score ~predicted:model ~truth) ];
       ]);
  (* Where the version space pays off: its most specific hypotheses are
     individually far sharper than any single conservative model. *)
  let rows =
    List.filter_map (fun seed ->
        let d =
          Rt_task.Generator.generate
            { Rt_task.Generator.default with
              layers = 3; width_min = 1; width_max = 2;
              edge_density = 0.3; skip_density = 0.0 }
            ~seed
        in
        match Rt_task.Design.ground_truth d with
        | None -> None
        | Some truth ->
          let tr =
            Rt_sim.Simulator.run d
              { Rt_sim.Simulator.default_config with periods = 8; seed }
          in
          (match Rt_learn.Exact.run ~limit:100_000 tr with
           | exception Rt_learn.Exact.Blowup _ -> None
           | oe when oe.hypotheses = [] -> None
           | oe ->
             let mined = Rt_mining.Order_miner.infer tr in
             let score p = Rt_mining.Order_miner.score ~predicted:p ~truth in
             let best =
               List.fold_left (fun acc h ->
                   let s = score h in
                   match acc with
                   | Some (_, s') when s'.Rt_mining.Order_miner.definite_precision
                                       >= s.Rt_mining.Order_miner.definite_precision -> acc
                   | _ -> Some (h, s))
                 None oe.hypotheses
             in
             let lub = Df.lub oe.hypotheses in
             (match best with
              | None -> None
              | Some (_, sbest) ->
                Some
                  [ Printf.sprintf "seed %d (%d tasks, |D*|=%d)" seed
                      (Rt_task.Design.size d) (List.length oe.hypotheses);
                    Printf.sprintf "%.2f" (score mined).definite_precision;
                    Printf.sprintf "%.2f" (score lub).definite_precision;
                    Printf.sprintf "%.2f" sbest.Rt_mining.Order_miner.definite_precision ])))
      [ 3; 8; 21; 33 ]
  in
  print_string
    (Table.render
       ~header:[ "instance"; "miner precision"; "learner-LUB precision";
                 "best exact hypothesis" ]
       rows);
  print_endline
    "definite-edge precision vs design ground truth; the exact answer set\n\
     contains hypotheses that dominate what any single ordering-based model\n\
     can achieve."

(* ------------------------------------------------------------------ *)
(* Static analysis: how long a whole-tree rtlint pass costs, so CI's
   lint gate has a tracked budget.                                     *)
(* ------------------------------------------------------------------ *)

(* The bench binary runs from _build/default/bench; walk up to the
   checkout root (the directory holding dune-project) to find the
   sources rtlint audits. *)
let source_root () =
  let rec up dir n =
    if n = 0 then None
    else if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 6

let bench_lint () =
  section "Static analysis: rtlint over lib/ bin/ bench/";
  match source_root () with
  | None -> print_endline "dune-project not found above cwd; skipped"
  | Some root ->
    let paths =
      List.map (Filename.concat root) [ "lib"; "bin"; "bench" ]
      |> List.filter Sys.file_exists
    in
    let res, dt = wall (fun () -> Rt_lint.Lint.lint_paths paths) in
    (match res with
     | Error msg -> Printf.printf "rtlint failed: %s\n" msg
     | Ok findings ->
       Printf.printf "linted %s in %.3f s: %d finding(s)\n"
         (String.concat " " (List.map Filename.basename paths))
         dt (List.length findings))

let () =
  Printf.printf "rtgen benchmark harness%s\n"
    (if fast_mode then " (RTGEN_BENCH_FAST=1: reduced sweeps)" else "");
  let trace = Gm.trace () in
  let table1_rows = bench_table1 trace in
  let sharded = bench_sharded trace in
  let recorder = bench_recorder trace in
  Option.iter (fun path ->
      emit_json path trace table1_rows sharded recorder;
      emit_metrics
        (Filename.remove_extension path ^ ".metrics.json")
        table1_rows sharded)
    json_path;
  bench_exact_vs_heuristic ();
  bench_worked_example ();
  bench_case_study trace;
  bench_scaling ();
  bench_matching trace;
  bench_merge_policy trace;
  bench_candidate_window trace;
  bench_tooling trace;
  bench_robustness trace;
  bench_baseline trace;
  bench_lint ();
  print_newline ()
