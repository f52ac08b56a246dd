(* The rtlint engine, rule by rule: each RTL id fires on a minimal
   snippet and stays silent on the idiomatic alternative; suppression
   comments silence exactly one site and demand a reason. *)

module F = Rt_check.Finding
module Lint = Rt_lint.Lint

let lint ?(file = "lib/core/snippet.ml") src = Lint.lint_source ~file src

let rules fs = List.sort_uniq String.compare (List.map (fun (f : F.t) -> f.rule) fs)

let check_rules name expected src =
  Alcotest.(check (list string)) name expected (rules (lint src))

let test_poly_hash () =
  check_rules "Hashtbl.hash flagged" [ "RTL001" ]
    "let f x = Hashtbl.hash x";
  check_rules "seeded too" [ "RTL001" ]
    "let f x = Hashtbl.seeded_hash 7 x";
  check_rules "monomorphic hash fine" []
    "let f h = Rt_core.Hypothesis.hash h"

let test_poly_compare () =
  check_rules "bare compare flagged" [ "RTL002" ]
    "let xs = List.sort compare [3; 1]";
  check_rules "Stdlib.compare flagged" [ "RTL002" ]
    "let c = Stdlib.compare a b";
  check_rules "Int.compare fine" []
    "let xs = List.sort Int.compare [3; 1]";
  (* A file that rebinds [compare] uses its own, monomorphic one. *)
  check_rules "local rebinding disables the bare form" []
    "let compare a b = Int.compare a b\nlet xs = List.sort compare [3; 1]"

let test_depval_equality () =
  check_rules "= against a lattice constructor" [ "RTL002" ]
    "let p v = v = Dv.Par";
  check_rules "<> too" [ "RTL002" ]
    "let p v = v <> Rt_lattice.Depval.Fwd_maybe";
  check_rules "integer comparison of indices fine" []
    "let p v = v <> Dv.index Dv.Par";
  check_rules "Depval.equal fine" []
    "let p v = Dv.equal v Dv.Par"

let test_wall_clock () =
  check_rules "gettimeofday flagged" [ "RTL003" ]
    "let t0 = Unix.gettimeofday ()";
  check_rules "Sys.time flagged" [ "RTL003" ]
    "let t0 = Sys.time ()";
  check_rules "Random.self_init flagged" [ "RTL003" ]
    "let () = Random.self_init ()";
  Alcotest.(check (list string)) "allowed in lib/obs" []
    (rules
       (Lint.lint_source ~file:"lib/obs/registry.ml"
          "let t0 = Unix.gettimeofday ()"));
  Alcotest.(check (list string)) "allowed in the simulator" []
    (rules
       (Lint.lint_source ~file:"lib/sim/simulator.ml"
          "let t0 = Unix.gettimeofday ()"))

let test_pool_mutation () =
  check_rules "captured ref mutated in pool closure" [ "RTL004" ]
    "let n = ref 0\n\
     let run pool xs = Rt_util.Domain_pool.map pool (fun x -> incr n; x) xs";
  check_rules "captured array mutated" [ "RTL004" ]
    "let a = Array.make 4 0\n\
     let run pool xs = Domain_pool.map pool (fun i -> a.(i) <- i; i) xs";
  check_rules "locally allocated state fine" []
    "let run pool xs =\n\
    \  Rt_util.Domain_pool.map pool\n\
    \    (fun x -> let b = Bytes.create 4 in Bytes.set b 0 'a'; b) xs";
  check_rules "mutation outside a pool call fine" []
    "let n = ref 0\nlet bump () = incr n";
  (* Module aliases to Domain_pool are resolved. *)
  check_rules "aliased pool module" [ "RTL004" ]
    "module Pool = Rt_util.Domain_pool\n\
     let n = ref 0\n\
     let run pool xs = Pool.map pool (fun x -> n := x; x) xs"

let test_depval_wildcard () =
  check_rules "wildcard over the lattice" [ "RTL005" ]
    "let def = function Dv.Fwd | Dv.Bi -> true | _ -> false";
  check_rules "catch-all variable too" [ "RTL005" ]
    "let f v = match v with Dv.Par -> 0 | other -> ignore other; 1";
  check_rules "exhaustive match fine" []
    "let def = function\n\
    \  | Dv.Fwd | Dv.Bi -> true\n\
    \  | Dv.Par | Dv.Bwd | Dv.Fwd_maybe | Dv.Bwd_maybe | Dv.Bi_maybe -> false";
  check_rules "wildcard over strings fine" []
    "let f = function \"a\" -> 1 | _ -> 0"

let test_hot_loop_alloc () =
  let hot = "lib/trace/mmap_io.ml" in
  let check name expected src =
    Alcotest.(check (list string)) name expected
      (rules (Lint.lint_source ~file:hot src))
  in
  check "record in a while body" [ "RTL006" ]
    "let scan n =\n\
    \  let i = ref 0 in\n\
    \  while !i < n do acc := { time = !i; kind = 0 } :: !acc; incr i done";
  check "tuple in a for body" [ "RTL006" ]
    "let scan n =\n\
    \  for i = 0 to n - 1 do marks := (i, i * 2) :: !marks done";
  check "scalar refs fine"
    []
    "let scan n =\n\
    \  let i = ref 0 and t = ref 0 in\n\
    \  while !i < n do t := !t + !i; incr i done";
  (* Error paths box their payload once per failed load, not per event. *)
  check "raise in the loop exempt" []
    "let scan n =\n\
    \  for i = 0 to n - 1 do\n\
    \    if bad i then fail i (Printf.sprintf \"bad %d\" i)\n\
    \  done";
  (* The period builder's validation scan is held to the same rule. *)
  Alcotest.(check (list string)) "period builder scan" [ "RTL006" ]
    (rules
       (Lint.lint_source ~file:"lib/trace/period.ml"
          "let finish b =\n\
          \  for k = 0 to b.len - 1 do\n\
          \    b.msgs <- { occ = k; bus_id = b.key.(k) } :: b.msgs\n\
          \  done"));
  (* So is the line parser's tokeniser. *)
  Alcotest.(check (list string)) "line parser scan" [ "RTL006" ]
    (rules
       (Lint.lint_source ~file:"lib/trace/stream_io.ml"
          "let consume_line buf lo hi =\n\
          \  let p = ref lo in\n\
          \  while !p < hi do toks := (!p, !p + 1) :: !toks; incr p done"));
  (* The rule is scoped to the ingest hot files. *)
  check_rules "same loop elsewhere is fine" []
    "let scan n =\n\
    \  for i = 0 to n - 1 do marks := (i, i * 2) :: !marks done";
  check "suppression with a reason silences" []
    "let scan n =\n\
    \  for i = 0 to n - 1 do\n\
    \    (* rtlint: allow RTL006 runs once per file header *)\n\
    \    marks := (i, i * 2) :: !marks\n\
    \  done"

let test_persist_writes () =
  check_rules "open_out flagged" [ "RTL007" ]
    "let save path s = let oc = open_out path in output_string oc s";
  check_rules "open_out_bin flagged" [ "RTL007" ]
    "let save path s = let oc = open_out_bin path in output_string oc s";
  check_rules "open_out_gen flagged" [ "RTL007" ]
    "let oc = open_out_gen [ Open_append ] 0o644 \"x\"";
  check_rules "Sys.rename flagged" [ "RTL007" ]
    "let publish tmp path = Sys.rename tmp path";
  check_rules "atomic write is the sanctioned route" []
    "let save path s = Rt_util.Atomic_file.write path s";
  check_rules "funnel append is sanctioned too" []
    "let log path s = Rt_util.Atomic_file.append path s";
  (* The funnel itself and the store own the raw syscalls. *)
  Alcotest.(check (list string)) "atomic_file.ml exempt" []
    (rules
       (Lint.lint_source ~file:"lib/util/atomic_file.ml"
          "let w p s = let oc = open_out p in output_string oc s"));
  Alcotest.(check (list string)) "lib/store exempt" []
    (rules
       (Lint.lint_source ~file:"lib/store/store.ml"
          "let publish tmp path = Sys.rename tmp path"));
  check_rules "justified suppression silences" []
    "(* rtlint: allow RTL007 appends forever, atomicity has no meaning *)\n\
     let oc = open_out_gen [ Open_append ] 0o644 \"log\""

let test_suppression () =
  check_rules "justified suppression silences" []
    "(* rtlint: allow RTL003 bench harness timing, not model input *)\n\
     let t0 = Unix.gettimeofday ()";
  check_rules "same-line suppression" []
    "let t0 = Unix.gettimeofday () (* rtlint: allow RTL003 harness only *)";
  check_rules "reasonless suppression becomes RTL000" [ "RTL000" ]
    "(* rtlint: allow RTL003 *)\nlet t0 = Unix.gettimeofday ()";
  check_rules "wrong rule id does not silence" [ "RTL003" ]
    "(* rtlint: allow RTL001 wrong id *)\nlet t0 = Unix.gettimeofday ()"

let test_parse_error () =
  check_rules "unparseable source" [ "RTL999" ] "let let let"

(* --- deep (interprocedural) analysis: the rtlint --deep engine --- *)

module Deep = Rt_lint.Deep

(* [analyze_sources] also runs the shallow per-file rules over each
   file; the deep families all have ids >= RTL100 (and the shallow
   parse sentinel RTL999 never coexists with deep findings on a file
   that parsed), so filtering to that range isolates what the deep
   pass added. *)
let deep_rules sources =
  Deep.analyze_sources sources
  |> List.filter_map (fun (f : F.t) ->
         if f.rule >= "RTL100" && f.rule <> "RTL999" then Some f.rule
         else None)
  |> List.sort_uniq String.compare

let check_deep name expected sources =
  Alcotest.(check (list string)) name expected (deep_rules sources)

let racy_state = "let hits = ref 0\nlet bump n = hits := !hits + n"

let racy_worker =
  "let crunch pool xs =\n\
  \  Rt_util.Domain_pool.map pool (fun n -> State.bump n; n) xs"

let test_deep_race_write () =
  check_deep "cross-module write from a pool closure" [ "RTL101" ]
    [ ("lib/x/state.ml", racy_state); ("lib/x/worker.ml", racy_worker) ];
  check_deep "named worker function, two hops" [ "RTL101" ]
    [ ("lib/x/state.ml", racy_state);
      ("lib/x/worker.ml",
       "let work n = State.bump n; n\n\
        let crunch pool xs = Rt_util.Domain_pool.map pool work xs") ];
  check_deep "Atomic state is silent" []
    [ ("lib/x/state.ml",
       "let hits = Atomic.make 0\n\
        let bump n = Atomic.set hits (Atomic.get hits + n)");
      ("lib/x/worker.ml", racy_worker) ];
  check_deep "Mutex on the call path is silent" []
    [ ("lib/x/state.ml",
       "let hits = ref 0\n\
        let m = Mutex.create ()\n\
        let bump n = Mutex.lock m; hits := !hits + n; Mutex.unlock m");
      ("lib/x/worker.ml", racy_worker) ];
  check_deep "same mutation outside any spawn is silent" []
    [ ("lib/x/state.ml", racy_state);
      ("lib/x/worker.ml", "let run xs = List.map State.bump xs") ]

let test_deep_race_read () =
  let state =
    "let cfg : (string, int) Hashtbl.t = Hashtbl.create 8\n\
     let set k v = Hashtbl.replace cfg k v"
  in
  let reader =
    "let crunch pool xs =\n\
    \  Rt_util.Domain_pool.map pool (fun x -> Hashtbl.length State.cfg + x) xs"
  in
  check_deep "read under -j while other code writes" [ "RTL102" ]
    [ ("lib/x/state.ml", state); ("lib/x/worker.ml", reader) ];
  check_deep "no writer anywhere: concurrent reads are safe" []
    [ ("lib/x/state.ml",
       "let cfg : (string, int) Hashtbl.t = Hashtbl.create 8");
      ("lib/x/worker.ml", reader) ]

let test_deep_clock_taint () =
  check_deep "wall clock into persisted bytes" [ "RTL201" ]
    [ ("lib/x/save.ml",
       "let stamp file =\n\
       \  let t = Unix.gettimeofday () in\n\
       \  Rt_util.Atomic_file.write file (string_of_float t)") ];
  check_deep "clock helper feeding a sink in the caller" [ "RTL201" ]
    [ ("lib/x/save.ml",
       "let now () = Unix.gettimeofday ()\n\
        let stamp file =\n\
       \  Rt_util.Atomic_file.write file (string_of_float (now ()))") ];
  check_deep "wall clock appended to a ledger" [ "RTL201" ]
    [ ("lib/x/save.ml",
       "let stamp file =\n\
       \  let t = Unix.gettimeofday () in\n\
       \  Rt_util.Atomic_file.append file (string_of_float t)") ];
  check_deep "clock that never reaches a sink" []
    [ ("lib/x/save.ml",
       "let t0 = Unix.gettimeofday ()\n\
        let age () = Unix.gettimeofday () -. t0") ];
  check_deep "deep findings are suppressible at the source line" []
    [ ("lib/x/save.ml",
       "let stamp file =\n\
       \  (* rtlint: allow RTL003 harness only *)\n\
       \  (* rtlint: allow RTL201 logical stamp, not model input *)\n\
       \  let t = Unix.gettimeofday () in\n\
       \  Rt_util.Atomic_file.write file (string_of_float t)") ]

let test_deep_hash_order () =
  check_deep "Hashtbl.fold into persisted bytes" [ "RTL202" ]
    [ ("lib/x/save.ml",
       "let tbl : (string, int) Hashtbl.t = Hashtbl.create 8\n\
        let dump file =\n\
       \  let pairs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in\n\
       \  Rt_util.Atomic_file.write file\n\
       \    (String.concat \"\\n\" (List.map fst pairs))") ];
  check_deep "fold in a helper, sink in the caller" [ "RTL202" ]
    [ ("lib/x/save.ml",
       "let tbl : (string, int) Hashtbl.t = Hashtbl.create 8\n\
        let pairs () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n\
        let dump file =\n\
       \  Rt_util.Atomic_file.write file\n\
       \    (String.concat \"\\n\" (List.map fst (pairs ())))") ];
  check_deep "fold that stays in memory" []
    [ ("lib/x/save.ml",
       "let tbl : (string, int) Hashtbl.t = Hashtbl.create 8\n\
        let total () = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0") ]

let test_deep_marshal () =
  check_deep "Marshal bytes persisted" [ "RTL203" ]
    [ ("lib/x/save.ml",
       "let freeze file v =\n\
       \  Rt_util.Atomic_file.write file (Marshal.to_string v [])") ];
  check_deep "Marshal size probe stays in memory" []
    [ ("lib/x/save.ml",
       "let cost v = String.length (Marshal.to_string v [])") ]

let test_deep_poly_hash_taint () =
  check_deep "polymorphic hash persisted" [ "RTL204" ]
    [ ("lib/x/save.ml",
       "let fingerprint file v =\n\
       \  let h = Hashtbl.hash v in\n\
       \  Rt_util.Atomic_file.write file (string_of_int h)") ];
  check_deep "polymorphic hash kept in memory" []
    [ ("lib/x/save.ml", "let bucket v n = Hashtbl.hash v mod n") ]

let test_deep_resources () =
  check_deep "close on the normal path only" [ "RTL301" ]
    [ ("lib/x/io.ml",
       "let first_line path =\n\
       \  let ic = open_in path in\n\
       \  let line = input_line ic in\n\
       \  close_in ic;\n\
       \  line") ];
  check_deep "never closed at all" [ "RTL302" ]
    [ ("lib/x/io.ml",
       "let head path =\n\
       \  let ic = open_in_bin path in\n\
       \  input_char ic") ];
  check_deep "Fun.protect is the sanctioned shape" []
    [ ("lib/x/io.ml",
       "let first_line path =\n\
       \  let ic = open_in path in\n\
       \  Fun.protect\n\
       \    ~finally:(fun () -> close_in_noerr ic)\n\
       \    (fun () -> input_line ic)") ];
  check_deep "close in an exception handler counts as protected" []
    [ ("lib/x/io.ml",
       "let first_line path =\n\
       \  let ic = open_in path in\n\
       \  try\n\
       \    let line = input_line ic in\n\
       \    close_in ic;\n\
       \    line\n\
       \  with e -> close_in_noerr ic; raise e") ];
  check_deep "handle returned to the caller is their problem" []
    [ ("lib/x/io.ml", "let open_log path = open_in path") ]

let test_deep_stale_suppression () =
  check_deep "allow-comment matching no finding" [ "RTL998" ]
    [ ("lib/x/quiet.ml",
       "(* rtlint: allow RTL003 this call is long gone *)\n\
        let t0 = 42") ];
  check_deep "consumed allow-comment is not stale" []
    [ ("lib/x/quiet.ml",
       "(* rtlint: allow RTL003 bench harness timing, not model input *)\n\
        let t0 = Unix.gettimeofday ()") ]

(* --- analyze_paths: the on-disk walk, one cold pass per run --- *)

let tmpdir () =
  let d = Filename.temp_file "rtlint_deep" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let ok_exn = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let violating_src =
  "let stamp file =\n\
  \  let t = Unix.gettimeofday () in\n\
  \  Rt_util.Atomic_file.write file (string_of_float t)\n"

let test_deep_walk () =
  let dir = tmpdir () in
  let src = Filename.concat dir "lib" in
  Unix.mkdir src 0o755;
  let file = Filename.concat src "clockly.ml" in
  write_file file violating_src;
  let r1 = ok_exn (Deep.analyze_paths [ src ]) in
  Alcotest.(check int) "walk finds the file" 1 r1.Deep.r_files;
  Alcotest.(check bool) "finds the clock taint" true
    (List.exists (fun (f : F.t) -> f.rule = "RTL201") r1.Deep.r_findings);
  (* every run reads the bytes on disk: an edit clears the finding *)
  write_file file "let answer = 42\n";
  let r2 = ok_exn (Deep.analyze_paths [ src ]) in
  Alcotest.(check bool) "finding gone after the edit" true
    (not (List.exists (fun (f : F.t) -> f.rule = "RTL201") r2.Deep.r_findings))

let test_positions_and_severity () =
  match lint "let a = 1\nlet t0 = Sys.time ()" with
  | [ f ] ->
    Alcotest.(check string) "rule" "RTL003" f.F.rule;
    Alcotest.(check bool) "error severity" true (f.F.severity = F.Error);
    (match f.F.pos with
     | Some p -> Alcotest.(check int) "line" 2 p.F.line
     | None -> Alcotest.fail "no position")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "RTL001 poly hash" `Quick test_poly_hash;
          Alcotest.test_case "RTL002 poly compare" `Quick test_poly_compare;
          Alcotest.test_case "RTL002 lattice equality" `Quick
            test_depval_equality;
          Alcotest.test_case "RTL003 wall clock" `Quick test_wall_clock;
          Alcotest.test_case "RTL004 pool mutation" `Quick test_pool_mutation;
          Alcotest.test_case "RTL005 depval wildcard" `Quick
            test_depval_wildcard;
          Alcotest.test_case "RTL006 hot-loop alloc" `Quick
            test_hot_loop_alloc;
          Alcotest.test_case "RTL007 raw persistence writes" `Quick
            test_persist_writes;
          Alcotest.test_case "RTL999 parse error" `Quick test_parse_error;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "suppressions" `Quick test_suppression;
          Alcotest.test_case "positions and severity" `Quick
            test_positions_and_severity;
        ] );
      ( "deep",
        [
          Alcotest.test_case "RTL101 pool-race write" `Quick
            test_deep_race_write;
          Alcotest.test_case "RTL102 pool-race read" `Quick
            test_deep_race_read;
          Alcotest.test_case "RTL201 clock taint" `Quick test_deep_clock_taint;
          Alcotest.test_case "RTL202 hash order" `Quick test_deep_hash_order;
          Alcotest.test_case "RTL203 marshal" `Quick test_deep_marshal;
          Alcotest.test_case "RTL204 poly-hash taint" `Quick
            test_deep_poly_hash_taint;
          Alcotest.test_case "RTL301/302 resources" `Quick test_deep_resources;
          Alcotest.test_case "RTL998 stale suppression" `Quick
            test_deep_stale_suppression;
          Alcotest.test_case "analyze_paths walk" `Quick test_deep_walk;
        ] );
    ]
