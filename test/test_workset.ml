(* The PR-1 rewrite contract: the array-backed {!Rt_learn.Workset} and
   the learner on top of it must be observably indistinguishable from the
   seed's sorted-list implementation (kept verbatim as
   {!Rt_learn.Reference}) — same dedup decisions, same eviction victims,
   same merge counts, same final D* — for every merge policy and bound.
   The perf work is only legitimate because these properties hold. *)

module W = Rt_learn.Workset
module Hy = Rt_learn.Hypothesis
module H = Rt_learn.Heuristic
module R = Rt_learn.Reference
module Df = Rt_lattice.Depfun

let hyp : Hy.t Alcotest.testable =
  Alcotest.testable (Hy.pp ?names:None) (fun a b -> Hy.compare_full a b = 0)

(* Distinct fixtures: each [generalize_message] step joins a Fwd and a
   Bwd cell, so the weight grows by 2 per fresh pair. *)
let mk n pairs =
  List.fold_left
    (fun h (s, r) ->
       if s = r then h
       else
         match Hy.generalize_message h ~sender:s ~receiver:r with
         | Some h' -> h'
         | None -> h)
    (Hy.bottom n) pairs

let h1 = mk 5 [ (0, 1) ]                    (* weight 2 *)
let h2 = mk 5 [ (0, 1); (2, 3) ]            (* weight 4 *)
let h3 = mk 5 [ (0, 1); (2, 3); (1, 4) ]    (* weight 6 *)

let filled () =
  let t = W.create ~bound:10 in
  List.iter (W.insert t) [ h2; h3; h1 ];
  t

let test_sorted_ascending () =
  let t = filled () in
  Alcotest.(check int) "length" 3 (W.length t);
  Alcotest.(check (list hyp)) "to_list lightest first" [ h1; h2; h3 ]
    (W.to_list t);
  Alcotest.(check (array hyp)) "to_array agrees" [| h1; h2; h3 |]
    (W.to_array t)

let test_dedup () =
  let t = filled () in
  Alcotest.(check bool) "mem" true (W.mem t h2);
  Alcotest.(check bool) "add duplicate refused" false (W.add t h2);
  Alcotest.(check int) "length unchanged" 3 (W.length t);
  Alcotest.check_raises "insert duplicate raises"
    (Invalid_argument "Workset.insert: duplicate hypothesis")
    (fun () -> W.insert t h2);
  Alcotest.(check bool) "fresh element accepted" true
    (W.add t (mk 5 [ (3, 4) ]))

let test_extract_lightest () =
  let t = filled () in
  let a, b = W.extract_pair t W.Lightest_pair in
  Alcotest.(check hyp) "lightest first" h1 a;
  Alcotest.(check hyp) "second lightest" h2 b;
  Alcotest.(check (list hyp)) "rest" [ h3 ] (W.to_list t);
  Alcotest.(check bool) "victims dropped from index" false (W.mem t h1)

let test_extract_heaviest () =
  let t = filled () in
  let a, b = W.extract_pair t W.Heaviest_pair in
  Alcotest.(check hyp) "heaviest first" h3 a;
  Alcotest.(check hyp) "second heaviest" h2 b;
  Alcotest.(check (list hyp)) "rest" [ h1 ] (W.to_list t)

let test_extract_first_last () =
  let t = filled () in
  let a, b = W.extract_pair t W.First_last in
  Alcotest.(check hyp) "lightest" h1 a;
  Alcotest.(check hyp) "heaviest" h3 b;
  Alcotest.(check (list hyp)) "rest" [ h2 ] (W.to_list t)

let test_extract_underflow () =
  let t = W.create ~bound:4 in
  W.insert t h1;
  Alcotest.check_raises "needs two elements"
    (Invalid_argument "Workset.extract_pair: fewer than 2 elements")
    (fun () -> ignore (W.extract_pair t W.Lightest_pair))

let test_clear_reuse () =
  let t = filled () in
  W.clear t;
  Alcotest.(check int) "emptied" 0 (W.length t);
  Alcotest.(check bool) "index emptied" false (W.mem t h1);
  W.insert t h3;
  Alcotest.(check (list hyp)) "reusable" [ h3 ] (W.to_list t)

let test_of_list () =
  let t = W.of_list ~bound:4 [ h3; h1; h2 ] in
  Alcotest.(check (list hyp)) "canonically sorted" [ h1; h2; h3 ] (W.to_list t);
  Alcotest.(check bool) "indexed" true (W.mem t h2)

(* Inserting any bag of generated hypotheses leaves exactly the
   first-occurrence representatives, in canonical order. *)
let qc_canonical_order =
  Test_support.qcheck_case "to_list = sort canonical (dedup kept)" ~count:200
    QCheck.(small_list (small_list (pair (int_range 0 4) (int_range 0 4))))
    (fun pairlists ->
       let hs = List.map (mk 5) pairlists in
       let t = W.create ~bound:1000 in
       let kept = List.filter (W.add t) hs in
       W.to_list t = List.sort W.canonical kept)

(* --- representation auto-selection (the measured crossover) --- *)

let test_crossover_selection () =
  Alcotest.(check bool) "crossover bound is positive" true
    (W.crossover_bound > 1);
  Alcotest.(check bool) "small bound -> seed list" true
    (W.uses_list_repr (W.create ~bound:1));
  Alcotest.(check bool) "just below crossover -> seed list" true
    (W.uses_list_repr (W.create ~bound:(W.crossover_bound - 1)));
  Alcotest.(check bool) "at crossover -> array" false
    (W.uses_list_repr (W.create ~bound:W.crossover_bound));
  Alcotest.(check bool) "large bound -> array" false
    (W.uses_list_repr (W.create ~bound:150));
  Alcotest.(check bool) "forced list stays list" true
    (W.uses_list_repr (W.create_with ~repr:`List ~bound:150));
  Alcotest.(check bool) "forced array stays array" false
    (W.uses_list_repr (W.create_with ~repr:`Array ~bound:1))

(* Both representations, driven through the same insert/extract
   sequence, must agree on every observation — the auto-selection can
   never change results, only constants. *)
let qc_repr_equivalence =
  Test_support.qcheck_case "list repr = array repr, op for op" ~count:100
    QCheck.(
      pair
        (small_list (small_list (pair (int_range 0 4) (int_range 0 4))))
        (int_range 0 2))
    (fun (pairlists, pol_ix) ->
       let policy =
         [| W.Lightest_pair; W.Heaviest_pair; W.First_last |].(pol_ix)
       in
       let drive repr =
         let t = W.create_with ~repr ~bound:1000 in
         let kept = List.map (fun h -> W.add t h) (List.map (mk 5) pairlists) in
         let extracted =
           if W.length t >= 2 then Some (W.extract_pair t policy) else None
         in
         (kept, extracted, W.to_list t, W.length t)
       in
       drive `List = drive `Array)

(* Hypotheses that tie on weight, [hash] and [a_hash] without being
   equal: both hashes are linear sums over cells and pairs (DESIGN.md
   §19.4), so two generalizations of one parent by the pairs
   [(s1, r1), (s2, r2)] and by the swapped [(s1, r2), (s2, r1)] sum the
   same cell positions and the same pair mixes. When the parent's
   matrix already holds all four pairs, the two are equal matrices that
   differ only in their assumptions; otherwise the matrices differ too.
   Each parent is a generalization of bottom with its assumptions
   cleared, and every pair set is applied in both orders, so duplicates
   come from distinct values as well as from re-offers. *)
let tied_pool rs =
  let n = 4 + Random.State.int rs 2 in
  let task () = Random.State.int rs n in
  let gen h pairs =
    List.fold_left
      (fun h (s, r) ->
         match h with
         | Some h when s <> r -> Hy.generalize_message h ~sender:s ~receiver:r
         | _ -> None)
      (Some h) pairs
  in
  let pool = ref [] in
  for _ = 1 to 6 do
    let s1 = task () and s2 = task () and r1 = task () and r2 = task () in
    let swapped = [ (s1, r2); (s2, r1) ] and straight = [ (s1, r1); (s2, r2) ] in
    (* Half the parents already hold all four pairs. *)
    let p =
      mk n
        ((if Random.State.bool rs then straight @ swapped else [])
         @ List.init (Random.State.int rs 4) (fun _ -> (task (), task ())))
    in
    Hy.clear_assumptions p;
    List.iter
      (fun pairs -> Option.iter (fun h -> pool := h :: !pool) (gen p pairs))
      [ straight; List.rev straight; swapped; List.rev swapped; [ (s1, r1) ] ]
  done;
  Array.of_list !pool

(* Distinct hypotheses that the dedup must keep apart although weight
   and both hashes tie. *)
let tied a b =
  Hy.weight a = Hy.weight b && Hy.hash a = Hy.hash b
  && Hy.a_hash a = Hy.a_hash b && Hy.compare_full a b <> 0

(* The tied pairs of a pool, split by whether their matrices are equal. *)
let ties pool =
  let same_matrix = ref 0 and other_matrix = ref 0 in
  Array.iteri
    (fun i a ->
       for j = i + 1 to Array.length pool - 1 do
         if tied a pool.(j) then
           if Hy.equal a pool.(j) then incr same_matrix else incr other_matrix
       done)
    pool;
  (!same_matrix, !other_matrix)

type op = Add of int | Mem of int | Extract of W.victim_policy | Clear

let random_ops rs pool =
  List.init (20 + Random.State.int rs 60) (fun _ ->
      match Random.State.int rs 20 with
      | 0 -> Clear
      | 1 | 2 | 3 ->
        Extract [| W.Lightest_pair; W.Heaviest_pair; W.First_last |].(Random.State.int rs 3)
      | 4 | 5 | 6 -> Mem (Random.State.int rs (Array.length pool))
      | _ -> Add (Random.State.int rs (Array.length pool)))

(* One interleaved sequence of [add] (re-offering earlier elements),
   [mem], [extract_pair] under every policy and [clear], applied to both
   representations: after every operation the results, [to_list] and
   [length] must agree. *)
let same_run pool ops =
  let l = W.create_with ~repr:`List ~bound:8
  and a = W.create_with ~repr:`Array ~bound:8 in
  let agree t u =
    W.length t = W.length u && List.equal ( == ) (W.to_list t) (W.to_list u)
  in
  List.for_all
    (fun op ->
       let result =
         match op with
         | Add i -> W.add l pool.(i) = W.add a pool.(i)
         | Mem i -> W.mem l pool.(i) = W.mem a pool.(i)
         | Extract policy ->
           W.length l < 2
           || (let x, y = W.extract_pair l policy in
               let x', y' = W.extract_pair a policy in
               x == x' && y == y')
         | Clear -> W.clear l; W.clear a; true
       in
       result && agree l a)
    ops

let qc_dedup_under_ties =
  Test_support.qcheck_case "list repr = array repr under hash ties, op for op"
    ~count:300 ~long_factor:20 QCheck.(int_range 0 1_000_000)
    (fun seed ->
       let rs = Random.State.make [| seed |] in
       let pool = tied_pool rs in
       same_run pool (random_ops rs pool))

(* The law above is vacuous unless its pools really hold both kinds of
   tie, and its runs really offer a tied, distinct hypothesis to a set
   that holds its twin. *)
let test_ties_generated () =
  let same = ref 0 and other = ref 0 and offered = ref 0 in
  for seed = 0 to 99 do
    let rs = Random.State.make [| seed |] in
    let pool = tied_pool rs in
    let s, o = ties pool in
    same := !same + s;
    other := !other + o;
    let t = W.create_with ~repr:`List ~bound:8 in
    List.iter
      (function
        | Add i ->
          if List.exists (tied pool.(i)) (W.to_list t) then incr offered;
          ignore (W.add t pool.(i))
        | Mem _ -> ()
        | Extract policy -> if W.length t >= 2 then ignore (W.extract_pair t policy)
        | Clear -> W.clear t)
      (random_ops rs pool)
  done;
  Alcotest.(check bool) "equal matrices, other assumptions" true (!same > 0);
  Alcotest.(check bool) "other matrices" true (!other > 0);
  Alcotest.(check bool) "tied twin offered to a set holding it" true (!offered > 0)

(* --- the headline property: learner equivalence with the seed --- *)

let policies = [| H.Lightest_pair; H.Heaviest_pair; H.First_last |]

let same_outcome (a : H.outcome) (b : H.outcome) =
  List.length a.hypotheses = List.length b.hypotheses
  && List.for_all2 Df.equal a.hypotheses b.hypotheses
  && a.stats = b.stats

let qc_equivalence =
  Test_support.qcheck_case
    "heuristic(workset) = reference(seed list): D*, victims, stats" ~count:60
    QCheck.(triple (int_range 0 11) (int_range 0 2) (int_range 1 24))
    (fun (seed, pol_ix, bound) ->
       let trace =
         Test_support.simulate ~periods:6 ~seed (Test_support.small_design seed)
       in
       let policy = policies.(pol_ix) in
       same_outcome
         (H.run ~policy ~bound trace)
         (R.run ~policy ~bound trace))

(* Fixed-seed smoke of the same property on every policy at a bound that
   forces heavy merging, so a qcheck distribution quirk can never skip
   the interesting regime. *)
let test_equivalence_all_policies () =
  let trace = Test_support.simulate ~periods:8 ~seed:5 (Test_support.small_design 5) in
  Array.iter (fun policy ->
      List.iter (fun bound ->
          Alcotest.(check bool) "same outcome" true
            (same_outcome
               (H.run ~policy ~bound trace)
               (R.run ~policy ~bound trace)))
        [ 1; 2; 3; 8; 64 ])
    policies

(* Messages with more candidate pairs than one machine word holds, at
   bounds above 256 parents too: a trace of 18 tasks that run one after
   another, with a message between two of them, so everything before a
   message can send it and everything after can receive it (72–81 pairs
   in the first period). Some tasks skip the second period, so weakening
   has work. *)
let wide_trace seed =
  let rs = Random.State.make [| seed |] in
  let t = 18 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "# rtgen-trace v1\ntasks";
  for i = 0 to t - 1 do Printf.bprintf b " t%d" i done;
  Buffer.add_char b '\n';
  for period = 0 to 1 do
    Printf.bprintf b "period %d\n" period;
    let order = Array.init t Fun.id in
    for i = t - 1 downto 1 do
      let j = Random.State.int rs (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    let cut1 = 7 + Random.State.int rs 2 and cut2 = 9 + Random.State.int rs 2 in
    Array.iteri
      (fun pos task ->
         let at = pos * 10 in
         if period = 0 || Random.State.int rs 6 > 0 then
           Printf.bprintf b "%d start t%d\n%d end t%d\n" (at + 1) task (at + 5)
             task;
         if pos = cut1 || pos = cut2 then
           Printf.bprintf b "%d rise 0x%x\n%d fall 0x%x\n" (at + 6) (0x10 + pos)
             (at + 8) (0x10 + pos))
      order
  done;
  Rt_trace.Trace_io.of_string_exn (Buffer.contents b)

let qc_equivalence_wide =
  Test_support.qcheck_case
    "heuristic = reference: > 62 candidate pairs, bounds past 256" ~count:12
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 0 5))
    (fun (seed, pol_ix, bound_ix) ->
       let trace = wide_trace seed in
       let policy = policies.(pol_ix) in
       let bound = [| 1; 8; 64; 150; 257; 300 |].(bound_ix) in
       let wide (p : Rt_trace.Period.t) =
         Array.exists
           (fun m -> List.length (Rt_trace.Candidates.pairs p m) > 62)
           p.msgs
       in
       List.exists wide (Rt_trace.Trace.periods trace)
       && same_outcome (H.run ~policy ~bound trace) (R.run ~policy ~bound trace))

(* --- bound 1 in closed form against the general path --- *)

(* A random trace: tasks run at random times and messages fall
   anywhere, so some messages have no candidate pair, or only pairs
   already assumed, and the trace turns inconsistent mid-way. *)
let random_trace seed =
  let rs = Random.State.make [| seed |] in
  let n = 3 + Random.State.int rs 4 in
  let b = Buffer.create 1024 in
  Buffer.add_string b "# rtgen-trace v1\ntasks";
  for i = 0 to n - 1 do Printf.bprintf b " t%d" i done;
  Buffer.add_char b '\n';
  for period = 0 to 1 + Random.State.int rs 5 do
    Printf.bprintf b "period %d\n" period;
    let events = ref [] in
    for i = 0 to n - 1 do
      if Random.State.int rs 5 > 0 then begin
        let at = Random.State.int rs 100 in
        events :=
          (at, Printf.sprintf "start t%d" i)
          :: (at + 1 + Random.State.int rs 20, Printf.sprintf "end t%d" i)
          :: !events
      end
    done;
    for k = 0 to Random.State.int rs 4 do
      let at = Random.State.int rs 120 in
      events :=
        (at, Printf.sprintf "rise 0x%x" (0x10 + k))
        :: (at + 1 + Random.State.int rs 4, Printf.sprintf "fall 0x%x" (0x10 + k))
        :: !events
    done;
    List.iter
      (fun (at, ev) -> Printf.bprintf b "%d %s\n" (period * 1000 + at) ev)
      (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !events)
  done;
  Result.to_option
    (Result.map fst (Rt_trace.Trace_io.of_string (Buffer.contents b)))

(* The closed form's counters, message by message: with the one parent
   alive, [branches += |C|], [created += |C'|] and
   [merges += |C'| - 1]; a lone admitted pair joins the assumptions; an
   empty C' leaves the set empty for good. [lone] and [multi] count the
   messages of each kind. *)
type expected = {
  mutable alive : bool;
  mutable branches : int;
  mutable created : int;
  mutable merges : int;
  mutable lone : int;
  mutable multi : int;
}

let fresh () =
  { alive = true; branches = 0; created = 1; merges = 0; lone = 0; multi = 0 }

let expect_period ?window e (p : Rt_trace.Period.t) =
  let assumed = ref [] in
  Array.iter
    (fun m ->
       if e.alive then begin
         let c = Rt_trace.Candidates.pairs ?window p m in
         let c' = List.filter (fun x -> not (List.mem x !assumed)) c in
         e.branches <- e.branches + List.length c;
         e.created <- e.created + List.length c';
         match c' with
         | [] -> e.alive <- false
         | [ x ] ->
           e.lone <- e.lone + 1;
           assumed := x :: !assumed
         | _ ->
           e.multi <- e.multi + 1;
           e.merges <- e.merges + List.length c' - 1
       end)
    p.msgs

let qc_closed_form =
  Test_support.qcheck_case
    "bound 1: closed form = general path = reference, counters by message"
    ~count:150
    QCheck.(
      quad (int_range 0 100_000) (int_range 0 2) (option (int_range 0 60))
        (pair bool (int_range 0 8)))
    (fun (seed, pol_ix, window, (simulated, cut)) ->
       let trace =
         if simulated then
           Some
             (Test_support.simulate ~periods:6 ~seed
                (Test_support.small_design (seed mod 12)))
         else random_trace seed
       in
       QCheck.assume (trace <> None);
       let trace = Option.get trace in
       let policy = policies.(pol_ix) in
       let ntasks = Rt_trace.Trace.task_count trace in
       let periods = Rt_trace.Trace.periods trace in
       let closed = H.init ~policy ?window ~bound:1 ~ntasks () in
       let general =
         H.init ~policy ?window ~closed_form:false ~bound:1 ~ntasks ()
       in
       let e = fresh () in
       let cut = cut mod List.length periods in
       let ok = ref true in
       let check b = if not b then ok := false in
       let resumed = ref None in
       List.iteri
         (fun i p ->
            if i = cut then begin
              let ck = H.checkpoint [ closed ] in
              check (String.equal ck (H.checkpoint [ general ]));
              resumed := Some (List.hd (fst (Result.get_ok (H.resume ck))))
            end;
            H.feed closed p;
            H.feed general p;
            Option.iter (fun st -> H.feed st p) !resumed;
            expect_period ?window e p;
            let c = H.counters closed and st = H.stats closed in
            check
              (String.equal (H.checkpoint [ closed ]) (H.checkpoint [ general ])
               && c.H.branches = e.branches
               && st.H.created = e.created
               && st.H.merges = e.merges
               && c.H.evictions = 2 * e.merges
               && c.H.dedup_hits = 0
               && c.H.end_dedup = 0
               && c.H.nonminimal = 0
               && (H.current closed <> []) = e.alive))
         periods;
       let final = H.checkpoint [ closed ] in
       Option.iter
         (fun st -> check (String.equal (H.checkpoint [ st ]) final))
         !resumed;
       !ok
       && same_outcome (H.run ~policy ?window ~bound:1 trace)
            (R.run ~policy ?window ~bound:1 trace))

(* The distribution must reach every regime the closed form has:
   inconsistent runs, messages with several admitted pairs, and lone
   pairs that join the assumptions. *)
let test_closed_form_regimes () =
  let dead = ref 0 and multi = ref 0 and lone = ref 0 in
  for seed = 0 to 199 do
    match random_trace seed with
    | None -> ()
    | Some trace ->
      let e = fresh () in
      List.iter (expect_period e) (Rt_trace.Trace.periods trace);
      if not e.alive then incr dead;
      multi := !multi + e.multi;
      lone := !lone + e.lone
  done;
  Alcotest.(check bool) "inconsistent traces" true (!dead > 0);
  Alcotest.(check bool) "several admitted pairs" true (!multi > 0);
  Alcotest.(check bool) "lone admitted pairs" true (!lone > 0)

(* A bound-1 period joins every message in place on the state's one
   matrix, from codes in a state-owned buffer: what it allocates is the
   assumption list of a message with one admitted pair, not a list,
   record or matrix per message (64 B/period here, where a join that
   built a list, a record and a matrix copy per message took 3651).
   Minor words count deterministically, so the bound is exact, not a
   timing. *)
let test_closed_form_alloc_per_period () =
  (* The long-trace benchmark's design: four tasks, generator seed 3.
     Some of its messages admit one pair, so the gate covers that path. *)
  let design =
    Rt_task.Generator.generate
      { Rt_task.Generator.default with layers = 2; width_min = 2; width_max = 3 }
      ~seed:3
  in
  let trace = Test_support.simulate ~periods:2_000 ~seed:3 design in
  let periods = Array.of_list (Rt_trace.Trace.periods trace) in
  let st = H.init ~bound:1 ~ntasks:(Rt_trace.Trace.task_count trace) () in
  let before = Gc.minor_words () in
  for i = 0 to Array.length periods - 1 do
    H.feed st periods.(i)
  done;
  let per_period =
    (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8)
    /. float_of_int (Array.length periods)
  in
  Alcotest.(check int) "every period" 2_000 (H.stats st).H.periods_processed;
  Alcotest.(check bool) "still consistent" true (H.current st <> []);
  if per_period > 127.0 then
    Alcotest.failf "%.1f B/period allocated learning at bound 1 (bound 127)"
      per_period

(* --- working set insert and merge at bound > 1 --- *)

(* A bound-150 learn of the GM trace's first four periods, as the
   paper's Table 1 row runs it: fan-out, insertion, dedup and merges of
   167k children. The run allocates 52.8 minor words per child, where a
   hash index beside the sorted array took 81.2; a cons per insertion
   alone adds about 5. Minor words count deterministically once a
   collection has flushed them, so the budget is exact, not a timing. *)
let test_insert_merge_alloc_per_child () =
  let trace = Rt_case.Gm_model.trace ~periods:4 () in
  let st = H.init ~bound:150 ~ntasks:(Rt_trace.Trace.task_count trace) () in
  Gc.minor ();
  let before = Gc.minor_words () in
  List.iter (H.feed st) (Rt_trace.Trace.periods trace);
  Gc.minor ();
  let per_child =
    (Gc.minor_words () -. before) /. float_of_int (H.stats st).H.created
  in
  Alcotest.(check int) "children" 167_339 (H.stats st).H.created;
  if per_child > 54.0 then
    Alcotest.failf "%.2f minor words per child at bound 150 (budget 54)"
      per_child

(* --- cover merges against the eager operations --- *)

(* One random message: up to 80 parents and up to 90 candidate pairs, so
   both bit sets span several words. A pool of in-message hypotheses is
   grown by [Hy.child] and consumed by [Hy.merge_in]; next to each entry
   runs its shadow, the same value built eagerly by [generalize_message]
   and [merge_lub], and its cover, the parents it lies above. Every merge
   must equal its shadow's in matrix bytes, weight, both hashes and
   assumptions, run in place exactly when one cover contains the other,
   and leave the parents untouched. Returns the number of merges of
   nested (strictly contained), equal and incomparable covers. *)
let cover_run seed =
  let rs = Random.State.make [| seed |] in
  let n = 4 + Random.State.int rs 7 in
  let pairs =
    List.init n (fun s -> List.init n (fun r -> (s, r)))
    |> List.concat
    |> List.filter (fun (s, r) -> s <> r && Random.State.int rs 5 > 0)
    |> Array.of_list
  in
  let np = 1 + Random.State.int rs 80 in
  let random_pairs () =
    List.init (Random.State.int rs 4) (fun _ ->
        (Random.State.int rs n, Random.State.int rs n))
  in
  let parents = Array.init np (fun _ -> mk n (random_pairs ())) in
  let before = Array.map (fun h -> Bytes.copy (Df.cells (Hy.depfun h))) parents in
  let m = Hy.message ~parents:np ~pairs in
  let pool = ref [] and nested = ref 0 and equal = ref 0 and apart = ref 0 in
  let same a b =
    Bytes.equal (Df.cells (Hy.depfun a)) (Df.cells (Hy.depfun b))
    && Hy.weight a = Hy.weight b
    && Hy.hash a = Hy.hash b
    && Hy.a_hash a = Hy.a_hash b
    && Hy.assumptions a = Hy.assumptions b
  in
  let take () =
    let i = Random.State.int rs (List.length !pool) in
    let x = List.nth !pool i in
    pool := List.filteri (fun j _ -> j <> i) !pool;
    x
  in
  let ok = ref true in
  for _ = 1 to 120 do
    if List.length !pool < 2 || Random.State.bool rs then begin
      if Array.length pairs > 0 then begin
        let i = Random.State.int rs np and k = Random.State.int rs (Array.length pairs) in
        let s, r = pairs.(k) in
        match
          ( Hy.child parents.(i) ~parent:i ~pair:k ~sender:s ~receiver:r,
            Hy.generalize_message parents.(i) ~sender:s ~receiver:r )
        with
        | Some h, Some sh -> pool := (h, sh, [ i ]) :: !pool
        | None, None -> ()
        | Some _, None | None, Some _ -> ok := false
      end
    end
    else begin
      let a, sa, ca = take () in
      let b, sb, cb = take () in
      let sub x y = List.for_all (fun p -> List.mem p y) x in
      let inplace = sub cb ca || sub ca cb in
      if sub cb ca && sub ca cb then incr equal
      else if inplace then incr nested
      else incr apart;
      let h = Hy.merge_in m a b and sh = Hy.merge_lub sa sb in
      if not (same h sh && inplace = (h == a || h == b)) then ok := false;
      pool := (h, sh, List.sort_uniq Int.compare (ca @ cb)) :: !pool
    end
  done;
  let untouched =
    Array.for_all2 (fun h c -> Bytes.equal (Df.cells (Hy.depfun h)) c) parents before
  in
  (!ok && untouched, (!nested, !equal, !apart))

let qc_cover_merge =
  Test_support.qcheck_case "merge_in = merge_lub, in place iff covers nest"
    ~count:200 QCheck.(int_range 0 100_000)
    (fun seed -> fst (cover_run seed))

let test_cover_paths_exercised () =
  let n, e, a =
    List.fold_left
      (fun (n, e, a) seed ->
         let _, (n', e', a') = cover_run seed in
         (n + n', e + e', a + a'))
      (0, 0, 0) (List.init 40 Fun.id)
  in
  Alcotest.(check bool) "nested covers merged" true (n > 0);
  Alcotest.(check bool) "equal covers merged" true (e > 0);
  Alcotest.(check bool) "incomparable covers merged" true (a > 0)

(* Whole runs on pool domains (as a sharded session feeds its pairs)
   must be invisible in the result: lazy children share matrices only
   within one run. *)
let test_pool_domains_deterministic () =
  let trace = Test_support.simulate ~periods:6 ~seed:7 (Test_support.small_design 7) in
  let serial = H.run ~bound:8 trace in
  let pool = Rt_util.Domain_pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
    (fun () ->
       Array.iter
         (fun parallel ->
            Alcotest.(check bool) "pool run identical" true
              (same_outcome serial parallel))
         (Rt_util.Domain_pool.map pool (fun () -> H.run ~bound:8 trace)
            (Array.make 3 ())))

(* Bound-1 engines on several domains at once, as a sharded session
   runs them: each keeps its candidate codes in its own state, so each
   ends on the checkpoint it reaches alone. The traces differ in their
   task counts, so a buffer shared between the engines would mix codes
   of different matrices. Being a race, that fails most runs on two
   free cores, not every run. *)
let test_closed_form_pool_domains () =
  let traces =
    Array.init 3 (fun i ->
        Test_support.simulate ~periods:5_000 ~seed:(11 + i)
          (Test_support.small_design (i + 4)))
  in
  let learn trace =
    let st =
      H.init ~bound:1 ~ntasks:(Rt_trace.Trace.task_count trace) ()
    in
    List.iter (H.feed st) (Rt_trace.Trace.periods trace);
    H.checkpoint [ st ]
  in
  let serial = Array.map learn traces in
  let pool = Rt_util.Domain_pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
    (fun () ->
       for _ = 1 to 5 do
         Array.iteri
           (fun i ck ->
              Alcotest.(check bool) "pooled bound-1 run identical" true
                (String.equal serial.(i) ck))
           (Rt_util.Domain_pool.map pool learn traces)
       done)

let () =
  Alcotest.run "workset"
    [
      ( "structure",
        [
          Alcotest.test_case "sorted ascending" `Quick test_sorted_ascending;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "extract lightest pair" `Quick test_extract_lightest;
          Alcotest.test_case "extract heaviest pair" `Quick test_extract_heaviest;
          Alcotest.test_case "extract first+last" `Quick test_extract_first_last;
          Alcotest.test_case "extract underflow" `Quick test_extract_underflow;
          Alcotest.test_case "clear and reuse" `Quick test_clear_reuse;
          Alcotest.test_case "of_list" `Quick test_of_list;
          qc_canonical_order;
        ] );
      ( "representation",
        [
          Alcotest.test_case "crossover auto-selection" `Quick
            test_crossover_selection;
          qc_repr_equivalence;
          qc_dedup_under_ties;
          Alcotest.test_case "ties generated" `Quick test_ties_generated;
        ] );
      ( "equivalence",
        [
          qc_equivalence;
          Alcotest.test_case "all policies, merge-heavy bounds" `Quick
            test_equivalence_all_policies;
          Alcotest.test_case "runs on pool domains deterministic" `Quick
            test_pool_domains_deterministic;
          qc_equivalence_wide;
        ] );
      ( "closed form",
        [
          qc_closed_form;
          Alcotest.test_case "inconsistent, multi-pair and lone messages"
            `Quick test_closed_form_regimes;
          Alcotest.test_case "alloc per period" `Quick
            test_closed_form_alloc_per_period;
          Alcotest.test_case "engines on pool domains" `Quick
            test_closed_form_pool_domains;
        ] );
      ( "insert merge",
        [
          Alcotest.test_case "alloc per child at bound 150" `Quick
            test_insert_merge_alloc_per_child;
        ] );
      ( "cover merge",
        [
          qc_cover_merge;
          Alcotest.test_case "nested, equal and incomparable covers" `Quick
            test_cover_paths_exercised;
        ] );
    ]
