(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DATE'07, §3.3-3.4) plus the ablations called out in
   DESIGN.md. Absolute times differ from the 2007 Pentium M; the shapes
   are what EXPERIMENTS.md records.

   Run with: dune exec bench/main.exe
   Set RTGEN_BENCH_FAST=1 to skip the slowest sweep entries.
   Set RTGEN_BENCH_JOBS=N to also run the sharded section on a pool of
   N domains (the gated rows all run on one).
   Set RTGEN_BENCH_JSON=1 (or a path) to also write the gated rows to
   BENCH_heuristic.json (or that path); scripts/check_bench.py gates
   them. *)

module Table = Rt_util.Table
module Df = Rt_lattice.Depfun
module Gm = Rt_case.Gm_model

let fast_mode =
  match Sys.getenv_opt "RTGEN_BENCH_FAST" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let jobs =
  match Sys.getenv_opt "RTGEN_BENCH_JOBS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None ->
       Printf.eprintf "bench: RTGEN_BENCH_JOBS=%S is not an integer >= 1\n" s;
       exit 2)

let json_path =
  match Sys.getenv_opt "RTGEN_BENCH_JSON" with
  | Some ("" | "0" | "false" | "no") | None -> None
  | Some ("1" | "true" | "yes") -> Some "BENCH_heuristic.json"
  | Some path -> Some path

let wall f =
  let t0 = Rt_obs.Registry.now_ns () in
  let r = f () in
  (r, float_of_int (Rt_obs.Registry.now_ns () - t0) /. 1e9)

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
(* The gated rows: Table 1 (Heuristic against Reference at each bound),
   the sharded head-to-head (each K against the monolithic run) and the
   flight recorder (attached against detached). check_bench.py gates
   each row's median per-round ratio against the committed baseline's. *)
(* ------------------------------------------------------------------ *)

(* A gated row is the ratio of two timings taken on one host, and a
   shared host has slow spells that last seconds and slow some code
   more than other code. So the rows are sampled in [rounds] rounds,
   each of which times every thunk of every row once: each row's
   samples are spread over the whole measurement, and its two sides sit
   next to each other in every round. A thunk is called once before the
   rounds; the time of that call sets how many calls make up one
   sample, so that no sample is shorter than [min_sample_s] (timer and
   scheduler noise swamp a shorter one). Every sample starts on a
   collected heap, so no thunk pays for the previous one's garbage. A
   sample is seconds per call. [interleave rows] returns, per row and
   per thunk, one sample per round. *)
let rounds = 7

let min_sample_s = 0.1

let interleave rows =
  let calls =
    List.map
      (List.map (fun f ->
           Gc.full_major ();
           let (), dt = wall f in
           max 1 (int_of_float (Float.ceil (min_sample_s /. Float.max dt 1e-6)))))
      rows
  in
  let sample f n =
    Gc.full_major ();
    let (), dt = wall (fun () -> for _ = 1 to n do f () done) in
    dt /. float_of_int n
  in
  (* Odd rounds time each row's thunks in reverse order, so that no
     side of a ratio always runs first. *)
  let round i =
    List.map2
      (fun row ns ->
         if i mod 2 = 0 then List.map2 sample row ns
         else List.rev (List.map2 sample (List.rev row) (List.rev ns)))
      rows calls
  in
  let per_round = List.init rounds round in
  List.mapi
    (fun r row ->
       List.mapi
         (fun t _ -> List.map (fun round -> List.nth (List.nth round r) t) per_round)
         row)
    rows

let paper_table1 =
  [ (1, 0.220); (4, 0.471); (16, 1.202); (32, 2.573); (64, 5.899);
    (100, 12.608); (120, 16.294); (150, 19.048) ]

(* One Table 1 row: the production learner against the seed's
   implementation ({!Rt_learn.Reference}, the tests' oracle) at one
   bound. Reference's code does not change, so it is the host-speed
   yardstick the gate divides by. *)
type table1_row = {
  bound : int;
  heuristic : float list;  (** Heuristic.run, seconds per call, per round *)
  reference : float list;  (** Reference.run, the same rounds *)
  merges : int;
  survivors : int;
}

(* The smallest bound at which Heuristic's median beats Reference's. *)
let crossover_bound rows =
  List.find_map
    (fun r ->
       if median r.heuristic < median r.reference then Some r.bound else None)
    rows

type sharded_data = {
  sh_bound : int;
  mono : float list;  (** single-engine Heuristic.run, per round *)
  runs : ((int * int) * float list) list;
      (** (worker domains, K) and its samples, the same rounds *)
}

type recorder_data = {
  rec_bound : int;
  off : float list;  (** engine feed, no recorder attached *)
  on_ : float list;  (** same feed with a flight scope attached *)
  events : int;  (** events one attached feed records *)
}

let bench_gated trace =
  (* Table 1: every call's answer set is asserted equal to Heuristic's. *)
  let table1 =
    List.map
      (fun bound ->
         let o = Rt_learn.Heuristic.run ~bound trace in
         let same (o' : Rt_learn.Heuristic.outcome) =
           assert (List.for_all2 Df.equal o.hypotheses o'.hypotheses)
         in
         ( bound, o,
           [ (fun () -> same (Rt_learn.Heuristic.run ~bound trace));
             (fun () -> same (Rt_learn.Reference.run ~bound trace)) ] ))
      (if fast_mode then [ 1; 4; 16; 32 ] else List.map fst paper_table1)
  in
  (* Sharded: the fold is exact at bound 1 for every K (the companion
     design of lib/shard), so every fold is asserted byte-equal to it.
     Each run is the program's one sharded path: a session parsing the
     trace's text, its rounds of K periods fed on the pool, then
     folded. Every K runs on one domain, and again on RTGEN_BENCH_JOBS
     domains when that is more than one. *)
  let sh_bound = if fast_mode then 16 else 150 in
  let oracle =
    match (Rt_learn.Heuristic.run ~bound:1 trace).Rt_learn.Heuristic.hypotheses with
    | [ d ] -> d
    | _ -> failwith "sharded bench: reference trace must be consistent"
  in
  let text = Rt_trace.Trace_io.to_string trace in
  let learn (jobs, k) () =
    let module S = Rt_shard.Session in
    (* The pool lives for one run only, as in [learn --shards]: idle
       domains would still join every minor collection of the
       single-domain rows timed between sharded runs. *)
    let pool =
      if jobs > 1 then Some (Rt_util.Domain_pool.create ~jobs) else None
    in
    let s, _ =
      S.create ?pool ~shards:k (Rt_engine.Engine.Heuristic { bound = sh_bound })
        (Rt_trace.Stream_io.lines_of_string text)
    in
    let rec drain () =
      match S.next s with
      | Ok (Some _) -> drain ()
      | Ok None -> S.fold s
      | Error e -> failwith ("sharded bench: " ^ e.message)
    in
    match
      Fun.protect
        ~finally:(fun () -> Option.iter Rt_util.Domain_pool.shutdown pool)
        drain
    with
    | Some m when Df.equal m oracle -> ()
    | Some _ | None -> failwith "sharded bench: fold differs from monolithic d*(1)"
  in
  let configs =
    List.concat_map
      (fun j -> List.map (fun k -> (j, k)) [ 1; 2; 4; 8 ])
      (List.sort_uniq Int.compare [ 1; jobs ])
  in
  (* Recorder: a bound-64 learn through Rt_engine.Engine with and
     without a flight scope. Recording must be observation only. *)
  let rec_bound = if fast_mode then 16 else 64 in
  let periods = Rt_trace.Trace.periods trace in
  let feed ?flight () =
    let eng =
      Rt_engine.Engine.create ?flight
        ~ntasks:(Rt_trace.Trace.task_count trace)
        (Rt_engine.Engine.Heuristic { bound = rec_bound })
    in
    List.iter (Rt_engine.Engine.feed eng) periods;
    Rt_engine.Engine.finalize eng
  in
  let detached = feed () in
  let attached () =
    let ring = Rt_obs.Flight.create ~capacity:4096 () in
    let o = feed ~flight:(Rt_obs.Flight.scope ring "bench") () in
    assert (List.for_all2 Df.equal detached.hypotheses o.hypotheses);
    assert (Rt_obs.Flight.recorded ring = List.length periods)
  in
  match
    interleave
      (((fun () -> ignore (Rt_learn.Heuristic.run ~bound:sh_bound trace))
        :: List.map learn configs)
       :: [ (fun () -> ignore (feed ())); attached ]
       :: List.map (fun (_, _, fs) -> fs) table1)
  with
  | (mono :: runs) :: [ off; on_ ] :: t1 ->
    ( List.map2
        (fun (bound, (o : Rt_learn.Heuristic.outcome), _) sides ->
           match sides with
           | [ heuristic; reference ] ->
             { bound; heuristic; reference;
               merges = o.stats.merges;
               survivors = List.length o.hypotheses }
           | _ -> assert false)
        table1 t1,
      { sh_bound; mono; runs = List.combine configs runs },
      { rec_bound; off; on_; events = List.length periods } )
  | _ -> assert false

let print_table1 trace rows =
  section "Table 1: heuristic runtime vs bound (paper's only table)";
  Printf.printf "workload: %s\n"
    (Format.asprintf "%a" Rt_trace.Trace.pp_summary trace);
  print_string
    (Table.render
       ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right;
                 Table.Right; Table.Right; Table.Right ]
       ~header:[ "bound"; "heuristic (s)"; "reference (s)"; "speedup";
                 "paper 2007 (s)"; "merges"; "|D*|" ]
       (List.map
          (fun r ->
             let h = median r.heuristic and l = median r.reference in
             [ string_of_int r.bound; Printf.sprintf "%.3f" h;
               Printf.sprintf "%.3f" l;
               Printf.sprintf "%.2fx" (l /. Float.max h 1e-9);
               (match List.assoc_opt r.bound paper_table1 with
                | Some s -> Printf.sprintf "%.3f" s
                | None -> "-");
               string_of_int r.merges; string_of_int r.survivors ])
          rows));
  Printf.printf
    "median of %d interleaved samples per column. heuristic is the\n\
     production learner; reference is the seed's implementation, kept as\n\
     the tests' oracle. They differ in the working set, delta-encoded\n\
     children and the bound-1 closed form, so the speedup is no single\n\
     structure's win: it is the host-speed yardstick check_bench.py gates\n\
     against. Answer sets are asserted identical.\n"
    rounds;
  (match crossover_bound rows with
   | Some b when b > (List.hd rows).bound ->
     Printf.printf
       "crossover: heuristic wins from bound %d up; reference won below it.\n" b
   | Some _ -> ()
   | None ->
     print_endline "crossover: heuristic never beat reference in this sweep.");
  print_endline "shape check: runtime grows monotonically and low-polynomially in the bound."

let print_sharded sh =
  section "Sharded learning: K-shard fold vs monolithic run (DESIGN.md sec. 14)";
  let mono_s = median sh.mono in
  List.iter
    (fun j ->
       print_string
         (Table.render
            ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
            ~header:[ "shards"; "sharded (s)"; "monolithic (s)"; "speedup" ]
            (List.filter_map
               (fun ((j', k), s) ->
                  let sharded_s = median s in
                  if j' <> j then None
                  else
                    Some
                      [ string_of_int k; Printf.sprintf "%.3f" sharded_s;
                        Printf.sprintf "%.3f" mono_s;
                        Printf.sprintf "%.2fx"
                          (mono_s /. Float.max sharded_s 1e-9) ])
               sh.runs));
       Printf.printf
         "bound %d, %d worker domain(s), median of %d interleaved runs each.\n"
         sh.sh_bound j rounds)
    (List.sort_uniq Int.compare (List.map (fun ((j, _), _) -> j) sh.runs));
  print_endline
    "every fold asserted byte-equal to the monolithic bound-1 model. Each\n\
     shard also runs a bound-1 companion, so on one domain the sweep\n\
     measures pure sharding overhead, which check_bench.py gates;\n\
     wall-clock wins need RTGEN_BENCH_JOBS >= 2 (see EXPERIMENTS.md)."

let print_recorder r =
  section "Observability: flight-recorder overhead (engine feed, on vs off)";
  let off_s = median r.off and on_s = median r.on_ in
  print_string
    (Table.render
       ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "bound"; "recorder off (s)"; "recorder on (s)"; "overhead" ]
       [ [ string_of_int r.rec_bound; Printf.sprintf "%.3f" off_s;
           Printf.sprintf "%.3f" on_s;
           Printf.sprintf "%.3fx" (on_s /. Float.max off_s 1e-9) ] ]);
  Printf.printf
    "median of %d interleaved samples each; %d engine.period events per\n\
     attached feed; hypotheses asserted identical with and without the\n\
     recorder.\n"
    rounds r.events

(* BENCH_heuristic.json: every gated row's samples, one per round, in
   the shape scripts/check_bench.py reads. *)
let emit_json path trace rows sharded recorder =
  let open Rt_obs.Json in
  let samples xs = List (List.map (fun x -> Float x) xs) in
  let doc =
    Obj
      [ ("benchmark", String "heuristic-table1");
        ("workload",
         String (Format.asprintf "%a" Rt_trace.Trace.pp_summary trace));
        ("cpus", Int (Domain.recommended_domain_count ()));
        ("fast_mode", Bool fast_mode);
        ("crossover_bound",
         match crossover_bound rows with Some b -> Int b | None -> Null);
        ("table1",
         List
           (List.map
              (fun r ->
                 Obj
                   [ ("bound", Int r.bound);
                     ("heuristic_samples", samples r.heuristic);
                     ("reference_samples", samples r.reference);
                     ("merges", Int r.merges);
                     ("hypotheses", Int r.survivors) ])
              rows));
        ("sharded",
         Obj
           [ ("bound", Int sharded.sh_bound);
             ("monolithic_samples", samples sharded.mono);
             ("runs",
              List
                (List.map
                   (fun ((j, k), s) ->
                      Obj
                        [ ("shards", Int k); ("jobs", Int j);
                          ("samples", samples s) ])
                   sharded.runs)) ]);
        ("recorder",
         Obj
           [ ("bound", Int recorder.rec_bound);
             ("events", Int recorder.events);
             ("off_samples", samples recorder.off);
             ("on_samples", samples recorder.on_) ]) ]
  in
  Rt_util.Atomic_file.write path (to_string ~pretty:true doc ^ "\n");
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

let () =
  Printf.printf "rtgen benchmark harness%s\n"
    (if fast_mode then " (RTGEN_BENCH_FAST=1: reduced sweeps)" else "");
  let trace = Gm.trace () in
  let table1, sharded, recorder = bench_gated trace in
  print_table1 trace table1;
  print_sharded sharded;
  print_recorder recorder;
  Option.iter (fun path -> emit_json path trace table1 sharded recorder)
    json_path;
  bench_exact_vs_heuristic ();
  bench_worked_example ();
  bench_case_study trace;
  bench_scaling ();
  bench_matching trace;
  bench_merge_policy trace;
  bench_candidate_window trace;
  bench_baseline trace;
  print_newline ()
