(* Integration tests of the rtgen binary: the full simulate -> learn ->
   check pipeline as a user would run it. The test dune rule declares the
   executable as a dependency, so it is available relative to the test's
   working directory. *)

(* Under `dune runtest` the working directory is _build/default/test; under
   `dune exec test/test_cli.exe` it is the project root. *)
let rtgen =
  let candidates =
    [ "../bin/rtgen.exe"; "_build/default/bin/rtgen.exe"; "bin/rtgen.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "rtgen.exe not found; run `dune build` first"

let rtlint =
  let candidates =
    [ "../tool/rtlint.exe"; "_build/default/tool/rtlint.exe"; "tool/rtlint.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "rtlint.exe not found; run `dune build` first"

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("rtgen_test_" ^ name)

let read_file p =
  let ic = open_in p in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out p in
  output_string oc s;
  close_out oc

(* Run and return the exact exit code plus captured stdout. The
   documented code convention (0 ok / 1 findings / 2 input error /
   3 internal error) is part of the contract under test. *)
let run_code ?(bin = rtgen) args =
  let out = tmp "stdout" in
  let cmd = Printf.sprintf "%s %s > %s 2> %s" bin args out (tmp "stderr") in
  let code = Sys.command cmd in
  (code, read_file out)

let run ?(expect_fail = false) args =
  let out = tmp "stdout" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" rtgen args out (tmp "stderr")
  in
  let code = Sys.command cmd in
  if expect_fail then
    Alcotest.(check bool) ("non-zero exit: " ^ args) true (code <> 0)
  else Alcotest.(check int) ("exit code: " ^ args) 0 code;
  let ic = open_in out in
  let content =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  content

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let trace_file = tmp "gm.trace"
let model_file = tmp "gm.model"

let test_simulate () =
  let _ = run (Printf.sprintf "simulate --case-study --periods 6 --seed 2007 -o %s" trace_file) in
  Alcotest.(check bool) "trace file exists" true (Sys.file_exists trace_file);
  let out = run "simulate --tasks 6 --periods 2" in
  Alcotest.(check bool) "stdout trace" true (contains ~needle:"# rtgen-trace v1" out)

let test_simulate_dot () =
  let out = run "simulate --tasks 6 --dot" in
  Alcotest.(check bool) "dot graph" true (contains ~needle:"digraph design" out)

let test_learn () =
  let out = run (Printf.sprintf "learn %s --bound 1 -o %s" trace_file model_file) in
  Alcotest.(check bool) "prints matrix" true (contains ~needle:"least upper bound" out);
  Alcotest.(check bool) "model saved" true (Sys.file_exists model_file)

let test_learn_dot () =
  let out = run (Printf.sprintf "learn %s --bound 1 --dot" trace_file) in
  Alcotest.(check bool) "dot deps" true (contains ~needle:"digraph dependencies" out)

let test_query_pass () =
  let code, out =
    run_code
      (Printf.sprintf "query %s \"d(A,L) = -> & conjunction(Q)\" --model %s"
         trace_file model_file)
  in
  Alcotest.(check int) "holding property exits 0" 0 code;
  Alcotest.(check bool) "both ok" true (contains ~needle:"[ok]" out);
  Alcotest.(check bool) "no failures" false (contains ~needle:"[FAIL]" out)

let test_query_fail () =
  let code, _ =
    run_code
      (Printf.sprintf "query %s \"d(A,L) = ||\" --model %s" trace_file
         model_file)
  in
  Alcotest.(check int) "violated property exits 1" 1 code

let test_query_bad () =
  let code, _ =
    run_code
      (Printf.sprintf "query %s \"frobnicate(A)\" --model %s" trace_file
         model_file)
  in
  Alcotest.(check int) "unparseable property exits 2" 2 code

let test_analyze () =
  let out = run (Printf.sprintf "analyze %s --bound 1" trace_file) in
  Alcotest.(check bool) "classification" true
    (contains ~needle:"node classification" out);
  Alcotest.(check bool) "state space" true (contains ~needle:"state space" out)

let test_stats () =
  let out = run (Printf.sprintf "stats %s" trace_file) in
  Alcotest.(check bool) "bus line" true (contains ~needle:"bus:" out)

let test_vcd () =
  let out = run (Printf.sprintf "vcd %s" trace_file) in
  Alcotest.(check bool) "vcd header" true (contains ~needle:"$timescale" out)

let test_gantt () =
  let out = run (Printf.sprintf "gantt %s --period 1" trace_file) in
  Alcotest.(check bool) "svg" true (contains ~needle:"<svg" out);
  ignore
    (run ~expect_fail:true (Printf.sprintf "gantt %s --period 99" trace_file))

let test_example () =
  let out = run "example" in
  Alcotest.(check bool) "5 hypotheses" true
    (contains ~needle:"5 most specific hypotheses" out)

let test_anonymize () =
  let out = run (Printf.sprintf "anonymize %s" trace_file) in
  Alcotest.(check bool) "anonymized trace" true
    (contains ~needle:"# rtgen-trace v1" out);
  (* Original GM task names must be gone. *)
  Alcotest.(check bool) "no 'tasks S A B'" false
    (contains ~needle:"tasks S A B" out)

let test_missing_file () =
  ignore (run ~expect_fail:true "learn /nonexistent/file.trace")

(* --- static analysis: rtgen check + rtlint exit codes and rule ids --- *)

let bad_diag_text = "    A    B\nA   ->   ->\nB   <-   ||\n"

let test_model_check_learned () =
  let code, _ = run_code (Printf.sprintf "check %s" model_file) in
  Alcotest.(check int) "learned model audits clean" 0 code;
  let code, _ =
    run_code (Printf.sprintf "check %s --trace %s" model_file trace_file)
  in
  Alcotest.(check int) "conforms to its own trace" 0 code

let test_model_check_broken () =
  let bad = tmp "bad_diag.model" in
  write_file bad bad_diag_text;
  let code, out = run_code (Printf.sprintf "check %s" bad) in
  Alcotest.(check int) "broken model exits 1" 1 code;
  Alcotest.(check bool) "rule id on stdout" true (contains ~needle:"RTC101" out);
  let code, out = run_code (Printf.sprintf "check %s --format json" bad) in
  Alcotest.(check int) "json rendering keeps exit 1" 1 code;
  Alcotest.(check bool) "json findings doc" true
    (contains ~needle:"rtgen-findings" out)

let test_model_check_answer_set () =
  let a = tmp "dup_cli_a.model" and b = tmp "dup_cli_b.model" in
  let text = "    A    B\nA   ||   ->?\nB   <-?  ||\n" in
  write_file a text;
  write_file b text;
  let code, out = run_code (Printf.sprintf "check %s %s" a b) in
  Alcotest.(check int) "duplicate hypotheses exit 1" 1 code;
  Alcotest.(check bool) "RTC201 reported" true (contains ~needle:"RTC201" out)

let test_model_check_missing () =
  let code, _ = run_code "check /nonexistent/m.model" in
  Alcotest.(check int) "missing model exits 2" 2 code;
  let code, _ = run_code "check" in
  Alcotest.(check int) "nothing to check exits 2" 2 code

let test_model_check_checkpoint () =
  let ckpt = tmp "audit.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --stop-after 2"
            trace_file ckpt));
  let code, _ = run_code (Printf.sprintf "check --checkpoint %s" ckpt) in
  Alcotest.(check int) "mid-run checkpoint audits clean" 0 code;
  Sys.remove ckpt;
  let garbage = tmp "garbage.ckpt" in
  write_file garbage "not a checkpoint at all";
  let code, _ = run_code (Printf.sprintf "check --checkpoint %s" garbage) in
  Alcotest.(check int) "garbage checkpoint exits 2" 2 code;
  (* A sharded learn's image holds every engine: 3 pairs of 2. *)
  ignore
    (run (Printf.sprintf
            "learn %s --bound 4 --shards 3 --checkpoint %s --stop-after 5"
            trace_file ckpt));
  let code, _ = run_code (Printf.sprintf "check --checkpoint %s" ckpt) in
  Alcotest.(check int) "six-engine image audits clean" 0 code;
  let image = read_file ckpt in
  Sys.remove ckpt;
  let damaged what data =
    write_file garbage data;
    let code, out = run_code (Printf.sprintf "check --checkpoint %s" garbage) in
    Alcotest.(check int) (what ^ " image exits 2") 2 code;
    Alcotest.(check bool) (what ^ " image is RTC203") true
      (contains ~needle:"RTC203" out)
  in
  damaged "truncated" (String.sub image 0 (String.length image - 7));
  let flipped = Bytes.of_string image in
  let mid = String.length image / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  damaged "bit-flipped" (Bytes.to_string flipped)

let test_model_check_all_learn_paths () =
  (* Models produced by every learn path must satisfy the auditor:
     batch (already covered), streamed, and checkpoint-resumed. *)
  let streamed = tmp "streamed.model" in
  ignore
    (run (Printf.sprintf "learn --stream %s --bound 4 -o %s" trace_file
            streamed));
  let code, _ =
    run_code (Printf.sprintf "check %s --trace %s" streamed trace_file)
  in
  Alcotest.(check int) "streamed model audits clean" 0 code;
  let ckpt = tmp "resume_chain.ckpt" and resumed = tmp "resumed.model" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --stop-after 2"
            trace_file ckpt));
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s -o %s" trace_file
            ckpt resumed));
  let code, _ =
    run_code (Printf.sprintf "check %s --trace %s" resumed trace_file)
  in
  Alcotest.(check int) "checkpoint-resumed model audits clean" 0 code

let test_model_check_sarif () =
  let bad = tmp "bad_diag.model" and sarif = tmp "check.sarif" in
  write_file bad bad_diag_text;
  let code, _ = run_code (Printf.sprintf "check %s --sarif %s" bad sarif) in
  Alcotest.(check int) "sarif side channel keeps exit 1" 1 code;
  Alcotest.(check bool) "sarif log written" true
    (contains ~needle:"\"2.1.0\"" (read_file sarif))

let test_rtlint_cli () =
  let dirty = tmp "rtlint_dirty.ml" in
  write_file dirty
    "let t0 = Unix.gettimeofday ()\nlet c = Stdlib.compare 1 2\n";
  let code, out = run_code ~bin:rtlint dirty in
  Alcotest.(check int) "violations exit 1" 1 code;
  Alcotest.(check bool) "RTL003 reported" true (contains ~needle:"RTL003" out);
  Alcotest.(check bool) "RTL002 reported" true (contains ~needle:"RTL002" out);
  let clean = tmp "rtlint_clean.ml" in
  write_file clean "let xs = List.sort Int.compare [ 2; 1 ]\n";
  let code, _ = run_code ~bin:rtlint clean in
  Alcotest.(check int) "clean file exits 0" 0 code;
  let code, _ = run_code ~bin:rtlint "/nonexistent/dir" in
  Alcotest.(check int) "missing path exits 2" 2 code;
  let code, out =
    run_code ~bin:rtlint (Printf.sprintf "%s --format json" dirty)
  in
  Alcotest.(check int) "json rendering keeps exit 1" 1 code;
  Alcotest.(check bool) "json findings doc" true
    (contains ~needle:"rtgen-findings" out)

let test_rtlint_own_tree_clean () =
  (* The sources this binary was built from must lint clean; the tree
     root is two levels up from the test cwd (_build/default/test). *)
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "dune-project"))
      [ "../.."; "." ]
  in
  match root with
  | None -> () (* exotic cwd; the CI job covers this path *)
  | Some root ->
    (* Depending on what has been built, not every source dir is
       materialized next to the test; lint whichever are. *)
    let paths =
      List.map (Filename.concat root) [ "lib"; "bin"; "bench" ]
      |> List.filter Sys.file_exists
    in
    Alcotest.(check bool) "at least lib present" true (paths <> []);
    let code, _ = run_code ~bin:rtlint (String.concat " " paths) in
    Alcotest.(check int) "own sources lint clean" 0 code

(* --- fault injection / recovery / checkpointing --- *)

let corrupted_file = tmp "gm_corrupted.trace"

let test_inject () =
  let out =
    run (Printf.sprintf "inject %s --rate 0.1 --seed 7 -o %s" trace_file
           corrupted_file)
  in
  ignore out;
  Alcotest.(check bool) "corrupted trace written" true
    (Sys.file_exists corrupted_file);
  (* Same seed, same damage. *)
  let again = run (Printf.sprintf "inject %s --rate 0.1 --seed 7" trace_file) in
  Alcotest.(check string) "reproducible" (read_file corrupted_file) again;
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "inject %s --rate 1.5" trace_file));
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "inject %s --kinds not_a_kind" trace_file))

let test_learn_strict_vs_recover () =
  (* Strict mode must reject the damage... *)
  ignore (run ~expect_fail:true (Printf.sprintf "learn %s" corrupted_file));
  (* ...recover mode must complete and report the quarantine on stderr. *)
  let out =
    run (Printf.sprintf "learn %s --mode recover --eps 60 --bound 4"
           corrupted_file)
  in
  Alcotest.(check bool) "prints a model" true
    (contains ~needle:"least upper bound" out);
  Alcotest.(check bool) "quarantine summary on stderr" true
    (contains ~needle:"quarantine:" (read_file (tmp "stderr")))

let test_analyze_recover_confidence () =
  let out =
    run (Printf.sprintf "analyze %s --mode recover --eps 60 --bound 4"
           corrupted_file)
  in
  Alcotest.(check bool) "ingestion section" true
    (contains ~needle:"== ingestion ==" out);
  Alcotest.(check bool) "confidence reported" true
    (contains ~needle:"confidence" out)

let test_checkpoint_kill_resume () =
  let ckpt = tmp "gm.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  (* Emulate a kill after 2 of 6 periods. *)
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --stop-after 2"
            trace_file ckpt));
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ckpt);
  let resumed =
    run (Printf.sprintf "learn %s --bound 4 --checkpoint %s" trace_file ckpt)
  in
  Alcotest.(check bool) "resume announced" true
    (contains ~needle:"resumed" (read_file (tmp "stderr")));
  let uninterrupted = run (Printf.sprintf "learn %s --bound 4" trace_file) in
  Alcotest.(check string) "resumed model = uninterrupted model"
    uninterrupted resumed;
  Alcotest.(check bool) "checkpoint removed on success" false
    (Sys.file_exists ckpt)

(* --stop-after stops so a later run can resume; without a checkpoint
   there is nothing to resume from, so it is refused, not ignored. *)
let test_stop_after_needs_checkpoint () =
  let out = tmp "stop_after.model" in
  if Sys.file_exists out then Sys.remove out;
  let code, _ =
    run_code (Printf.sprintf "learn %s --bound 4 --stop-after 2 -o %s"
                trace_file out)
  in
  Alcotest.(check int) "--stop-after without --checkpoint exits 2" 2 code;
  Alcotest.(check bool) "no model written" false (Sys.file_exists out);
  Alcotest.(check bool) "names the missing flag" true
    (contains ~needle:"--checkpoint" (read_file (tmp "stderr")))

(* Counts below their range are command-line misuse (cmdliner's 124),
   never an internal error (3) raised deep inside a run. *)
let test_out_of_range_options_refused () =
  let ckpt = tmp "range.ckpt" in
  List.iter (fun args ->
      let code, _ = run_code args in
      Alcotest.(check int) ("refused as misuse: " ^ args) 124 code)
    [ Printf.sprintf "learn %s --progress 0" trace_file;
      Printf.sprintf "learn %s --checkpoint %s --every 0" trace_file ckpt;
      Printf.sprintf "learn %s -b 0" trace_file;
      Printf.sprintf "analyze %s -b 0" trace_file;
      Printf.sprintf "learn %s --shards 2 -b 0" trace_file;
      Printf.sprintf "learn %s --shards 0" trace_file;
      Printf.sprintf "gantt %s --period=-1" trace_file;
      "simulate --periods 0";
      Printf.sprintf "watch %s --max-periods 0" trace_file;
      Printf.sprintf "learn %s --window=-1" trace_file;
      Printf.sprintf "learn %s --mode recover --eps=-5" trace_file;
      Printf.sprintf "analyze %s --window=-1" trace_file;
      Printf.sprintf "stats %s --eps=-1" trace_file ];
  Alcotest.(check bool) "no checkpoint written" false (Sys.file_exists ckpt);
  (* serve must refuse before it follows a single stream; the timeout
     keeps a regression from hanging the suite. *)
  let spool = tmp "range_spool" and out = tmp "range_out" in
  ignore (Sys.command (Printf.sprintf "rm -rf %s %s" spool out));
  ignore
    (run (Printf.sprintf "simulate --fleet 1 --spool %s --periods 4" spool));
  List.iter
    (fun args ->
       let code, _ =
         run_code ~bin:("timeout 30 " ^ rtgen)
           (Printf.sprintf "serve --spool %s --out %s %s" spool out args)
       in
       (* timeout's own exit code is 124 too: a refusal also never
          starts the daemon *)
       Alcotest.(check int) ("serve refused as misuse: " ^ args) 124 code;
       Alcotest.(check bool) "daemon never started" false
         (contains ~needle:"rtgend:" (read_file (tmp "stderr")));
       Alcotest.(check bool) "no stream followed" false (Sys.file_exists out))
    [ "--checkpoint-every 0 --drain-after-total 3";
      "--queue-capacity 0 --drain-after-total 3";
      "--flight-capacity 0 --drain-after-total 3";
      "--max-streams 0 --drain-after-total 5";
      "--window=-1 --drain-after-total 3";
      "--eps=-1 --drain-after-total 3" ]

let test_checkpoint_wrong_trace_refused () =
  let ckpt = tmp "gm_wrong.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --stop-after 1"
            trace_file ckpt));
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "learn %s --bound 4 --checkpoint %s" corrupted_file
          ckpt));
  Sys.remove ckpt

(* The counters section of a metrics file — the part that must be
   deterministic across -j levels, checkpoint resumes, and batch vs
   streamed ingestion (histograms and spans cover only the resumed
   segment's work and timing). The registry orders it before the
   timing-dependent sections precisely to allow this textual cut. *)
let counters_section path =
  let text = read_file path in
  let find needle from =
    let nh = String.length text and nn = String.length needle in
    let rec go i =
      if i + nn > nh then Alcotest.failf "%s: no %S section" path needle
      else if String.sub text i nn = needle then i
      else go (i + 1)
    in
    go from
  in
  let a = find "\"counters\"" 0 in
  String.sub text a (find "\"gauges\"" a - a)

(* --- streaming engine surfaces --- *)

let test_learn_stream_equals_batch () =
  let batch = run (Printf.sprintf "learn %s --bound 4" trace_file) in
  let streamed = run (Printf.sprintf "learn --stream %s --bound 4" trace_file) in
  Alcotest.(check string) "streamed model = batch model" batch streamed;
  (* And the same through a pipe: stdin is spelled "-". *)
  let piped =
    run (Printf.sprintf "learn --stream --bound 4 - < %s" trace_file)
  in
  Alcotest.(check string) "stdin model = batch model" batch piped

let test_learn_stream_conflicts () =
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "learn --stream %s --checkpoint %s" trace_file
          (tmp "never.ckpt")));
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "learn --stream --auto %s" trace_file));
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "learn --auto --exact %s" trace_file));
  (* --auto learns at several bounds; a checkpoint it would never write
     is refused as misuse rather than silently ignored *)
  let code, out =
    run_code
      (Printf.sprintf "learn --auto %s --checkpoint %s" trace_file
         (tmp "auto_never.ckpt"))
  in
  Alcotest.(check int) "learn --auto --checkpoint: input error" 2 code;
  Alcotest.(check string) "learn --auto --checkpoint: no model" "" out;
  (* --auto reads its input once per bound, which stdin cannot give. *)
  let code, out = run_code (Printf.sprintf "learn --auto - < %s" trace_file) in
  Alcotest.(check int) "learn --auto -: input error" 2 code;
  Alcotest.(check string) "learn --auto -: no model" "" out;
  (* --auto prints no per-period progress; asking for it is misuse *)
  let code, out =
    run_code (Printf.sprintf "learn --auto --progress 1 %s" trace_file)
  in
  Alcotest.(check int) "learn --auto --progress: input error" 2 code;
  Alcotest.(check string) "learn --auto --progress: no model" "" out

(* --auto streams each pass like every other learn: over a 40k-period
   trace it runs in a 16 MB data segment, where loading the whole trace
   (as --auto once did) needs more than 24 MB and aborts. *)
let test_learn_auto_memory () =
  let long = tmp "auto_long.trace" in
  ignore (run (Printf.sprintf "simulate --tasks 4 --periods 40000 -o %s" long));
  let code =
    Sys.command
      (Printf.sprintf "ulimit -d 16384 && %s learn --auto %s > %s 2> %s" rtgen
         long (tmp "stdout") (tmp "stderr"))
  in
  Sys.remove long;
  Alcotest.(check int) "learn --auto in 16 MB: exit code" 0 code;
  Alcotest.(check bool) "a bound was selected" true
    (contains ~needle:"selected bound" (read_file (tmp "stdout")))

(* --- sharded learning surfaces --- *)

(* The sharding contract: the folded model is the exact bound-1 model
   for every K, so model files and stdout are byte-identical across
   shard counts and match the non-sharded bound-1 run's saved model. *)
let test_learn_shards_equal_across_k () =
  let base = tmp "gm_shard_base.model" in
  ignore (run (Printf.sprintf "learn %s --bound 1 -o %s" trace_file base));
  let base_bytes = read_file base in
  let out1 = run (Printf.sprintf "learn %s --bound 6 --shards 1" trace_file) in
  Alcotest.(check bool) "folded header" true
    (contains ~needle:"folded model (exact at bound 1):" out1);
  List.iter
    (fun k ->
       let m = tmp (Printf.sprintf "gm_shard_%d.model" k) in
       let out =
         run (Printf.sprintf "learn %s --bound 6 --shards %d -o %s -j 2"
                trace_file k m)
       in
       Alcotest.(check string)
         (Printf.sprintf "K=%d model file = non-sharded bound-1 model" k)
         base_bytes (read_file m);
       Alcotest.(check string)
         (Printf.sprintf "K=%d stdout = K=1 stdout" k)
         out1 out)
    [ 2; 4; 8 ];
  (* Per-shard accounting goes to stderr, not the comparable stdout. *)
  Alcotest.(check bool) "per-shard accounting on stderr" true
    (contains ~needle:"shard 0:" (read_file (tmp "stderr")))

(* None of the per-shard and companion sidecar files of the earlier
   one-file-per-engine layout. *)
let no_sidecars what ckpt =
  List.iter
    (fun side ->
       Alcotest.(check bool) (what ^ ": no " ^ side) false
         (Sys.file_exists (ckpt ^ side)))
    [ ".b1"; ".shard0"; ".shard0.b1"; ".shard1"; ".shard2" ]

let test_learn_shards_checkpoint_resume () =
  let ckpt = tmp "gm_shard.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  ignore
    (run (Printf.sprintf
            "learn %s --bound 4 --shards 3 --checkpoint %s --stop-after 2"
            trace_file ckpt));
  Alcotest.(check bool) "one checkpoint image written" true
    (Sys.file_exists ckpt);
  no_sidecars "mid-run" ckpt;
  let resumed =
    run (Printf.sprintf "learn %s --bound 4 --shards 3 --checkpoint %s"
           trace_file ckpt)
  in
  let uninterrupted =
    run (Printf.sprintf "learn %s --bound 4 --shards 3" trace_file)
  in
  Alcotest.(check string) "resumed fold = uninterrupted fold"
    uninterrupted resumed;
  Alcotest.(check bool) "checkpoint removed on success" false
    (Sys.file_exists ckpt);
  no_sidecars "after success" ckpt

let test_learn_shards_metrics () =
  let m = tmp "gm_shard_metrics.json" in
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --shards 3 -j 2 --metrics %s"
            trace_file m));
  let text = read_file m in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (needle ^ " recorded") true
         (contains ~needle:(Printf.sprintf "%S" needle) text))
    [ "shard.shards"; "shard.periods"; "shard.messages"; "shard.jobs";
      "shard.worker_us" ]

(* Each save is one image written inside one "checkpoint.write" span,
   sharded or not: 6 periods saved every 2 make 3 spans. *)
let test_checkpoint_write_span () =
  List.iter
    (fun shards ->
       let ckpt = tmp "span.ckpt" and m = tmp "span_metrics.json" in
       if Sys.file_exists ckpt then Sys.remove ckpt;
       ignore
         (run (Printf.sprintf
                 "learn %s --bound 4 %s --checkpoint %s --every 2 --metrics %s"
                 trace_file shards ckpt m));
       let text = read_file m in
       let rec find i =
         if String.sub text i 18 = "\"checkpoint.write\"" then i
         else find (i + 1)
       in
       let at = find 0 in
       Alcotest.(check bool) (shards ^ ": one span per save") true
         (contains ~needle:"\"count\": 3,"
            (String.sub text at (min 60 (String.length text - at)))))
    [ ""; "--shards 3" ]

let test_learn_shards_conflicts () =
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "learn --shards 2 --exact %s" trace_file));
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "learn --shards 2 --auto %s" trace_file))

let test_learn_auto_trajectory () =
  let out = run (Printf.sprintf "learn --auto %s" trace_file) in
  Alcotest.(check bool) "trajectory header" true
    (contains ~needle:"auto bound search:" out);
  Alcotest.(check bool) "bound 1 pass shown" true
    (contains ~needle:"bound 1:" out);
  Alcotest.(check bool) "selection reported" true
    (contains ~needle:"selected bound" out);
  Alcotest.(check bool) "model printed" true
    (contains ~needle:"least upper bound" out)

(* --auto's metrics describe the selected pass alone: one engine.feed_ns
   sample per period it fed, as scripts/check_metrics.py requires. *)
let test_learn_auto_metrics () =
  let m = tmp "auto_metrics.json" in
  ignore (run (Printf.sprintf "learn --auto %s --metrics %s" trace_file m));
  let doc = Result.get_ok (Rt_obs.Json.of_string (read_file m)) in
  let get path =
    match
      Option.bind
        (List.fold_left
           (fun j k -> Option.bind j (Rt_obs.Json.member k))
           (Some doc) path)
        Rt_obs.Json.to_int
    with
    | Some n -> n
    | None -> Alcotest.failf "no %s" (String.concat "." path)
  in
  let periods = get [ "counters"; "engine.periods" ] in
  Alcotest.(check int) "engine.periods" 6 periods;
  Alcotest.(check int) "learn.periods" periods
    (get [ "counters"; "learn.periods" ]);
  Alcotest.(check int) "engine.feed_ns samples" periods
    (get [ "histograms"; "engine.feed_ns"; "count" ])

(* Every page of help renders: a bad markup escape in a doc string
   prints a "cmdliner error" beside the page. Subcommands are read off
   each page's COMMANDS section: an entry starts after a blank line,
   indented 7 columns (a wrapped synopsis continues at 7 columns too,
   but not after a blank line). *)
let test_help_renders () =
  let subcommands page =
    let rec skip = function
      | [] -> []
      | "COMMANDS" :: rest -> rest
      | _ :: rest -> skip rest
    in
    let rec take blank = function
      | "" :: rest -> take true rest
      | l :: rest when l.[0] = ' ' ->
        if blank && String.length l > 7 && l.[7] <> ' ' then
          List.hd (String.split_on_char ' ' (String.trim l)) :: take false rest
        else take false rest
      | _ -> []
    in
    take true (skip (String.split_on_char '\n' page))
  in
  let pages = ref 0 in
  let rec visit cmd =
    incr pages;
    let code, page = run_code (cmd ^ " --help=plain") in
    Alcotest.(check int) ("rtgen" ^ cmd ^ " --help: exit code") 0 code;
    Alcotest.(check bool) ("rtgen" ^ cmd ^ " --help: no cmdliner error") false
      (contains ~needle:"cmdliner error" (page ^ read_file (tmp "stderr")));
    List.iter (fun sub -> visit (cmd ^ " " ^ sub)) (subcommands page)
  in
  visit "";
  Alcotest.(check bool) "every command and store subcommand visited" true
    (!pages >= 25)

let test_watch_reports_drift () =
  let out = run (Printf.sprintf "watch %s --bound 1" trace_file) in
  Alcotest.(check bool) "first period reported" true
    (contains ~needle:"period 1: 1 hypothesis(es), converged" out);
  Alcotest.(check bool) "drift noticed" true
    (contains ~needle:"drift: previously converged model invalidated" out)

(* Recover mode: each period the parser drops is noted once on stderr,
   with its reason, and the following periods are still learned. *)
let test_watch_notes_drops () =
  let f = tmp "watch_drops.trace" in
  write_file f
    "period 0\nperiod 1\ntasks a b\nperiod 2\n1 start a\n2 end a\n\
     period 3\n1 start a\n2 end a\n3 rise 0x1\n4 fall 0x1\n5 start b\n\
     6 end b\n";
  let out = run (Printf.sprintf "watch %s --mode recover --bound 1" f) in
  Alcotest.(check bool) "later periods learned" true
    (contains ~needle:"period 3:" out);
  Alcotest.(check string) "one notice per drop"
    "period 0 dropped: before tasks line\n" (read_file (tmp "stderr"))

let test_watch_max_periods_stdin () =
  let out =
    run (Printf.sprintf "watch - --bound 1 --max-periods 2 < %s" trace_file)
  in
  Alcotest.(check bool) "stops at period 2" true
    (contains ~needle:"period 2:" out);
  Alcotest.(check bool) "never reaches period 3" false
    (contains ~needle:"period 3:" out)

let test_watch_follow_growing_file () =
  (* tail -f semantics: start on a half-written capture, append the rest
     while the watcher polls, and it must pick the new periods up. *)
  let growing = tmp "growing.trace" in
  let full = read_file trace_file in
  let cut =
    (* Split at the "period 3" line so 3 whole periods are visible. *)
    let needle = "period 3\n" in
    let rec find i =
      if i + String.length needle > String.length full then
        Alcotest.fail "trace too short for the follow test"
      else if String.sub full i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let oc = open_out growing in
  output_string oc (String.sub full 0 cut);
  close_out oc;
  let out_file = tmp "watch_follow.out" in
  let cmd =
    Printf.sprintf
      "( sleep 0.4; tail -c +%d %s >> %s ) & \
       %s watch %s --follow --poll 0.05 --bound 1 --max-periods 5 > %s 2>&1"
      (cut + 1) trace_file growing rtgen growing out_file
  in
  Alcotest.(check int) "watch -f exits once satisfied" 0 (Sys.command cmd);
  let out = read_file out_file in
  Alcotest.(check bool) "saw an early period" true
    (contains ~needle:"period 1:" out);
  Alcotest.(check bool) "saw appended periods" true
    (contains ~needle:"period 5:" out)

(* --- observability --- *)

let test_learn_metrics_and_report () =
  let metrics = tmp "gm_metrics.json" in
  let events = tmp "gm_events.json" in
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --metrics %s --trace-events %s \
                          --progress 2"
            trace_file metrics events));
  Alcotest.(check bool) "progress on stderr" true
    (contains ~needle:"progress:" (read_file (tmp "stderr")));
  let m = read_file metrics in
  Alcotest.(check bool) "schema stamped" true
    (contains ~needle:"\"schema\": \"rtgen-metrics\"" m);
  Alcotest.(check bool) "merge counter present" true
    (contains ~needle:"\"learn.merges\"" m);
  Alcotest.(check bool) "engine section present" true
    (contains ~needle:"\"engine.periods\"" m);
  Alcotest.(check bool) "merges non-zero" false
    (contains ~needle:"\"learn.merges\": 0" m);
  Alcotest.(check bool) "weakenings non-zero" false
    (contains ~needle:"\"learn.weakenings\": 0" m);
  let ev = read_file events in
  Alcotest.(check bool) "complete events" true
    (contains ~needle:"\"ph\": \"X\"" ev);
  Alcotest.(check bool) "learn span present" true
    (contains ~needle:"\"learn.period\"" ev);
  Alcotest.(check bool) "parse span present" true
    (contains ~needle:"\"ingest.parse\"" ev
     && contains ~needle:"\"ingest.parse\"" m);
  let report = run (Printf.sprintf "report %s" metrics) in
  Alcotest.(check bool) "per-phase sections" true
    (contains ~needle:"== learn ==" report
     && contains ~needle:"== ingest ==" report);
  ignore (run ~expect_fail:true (Printf.sprintf "report %s" trace_file))

let test_metrics_deterministic_across_jobs () =
  let m1 = tmp "gm_metrics_j1.json" and m4 = tmp "gm_metrics_j4.json" in
  ignore
    (run (Printf.sprintf "learn %s --bound 4 -j 1 --metrics %s" trace_file m1));
  ignore
    (run (Printf.sprintf "learn %s --bound 4 -j 4 --metrics %s" trace_file m4));
  Alcotest.(check string) "counters identical across -j"
    (counters_section m1) (counters_section m4)

let test_metrics_deterministic_across_resume () =
  let ckpt = tmp "gm_metrics.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  let m_full = tmp "gm_metrics_full.json" in
  let m_resumed = tmp "gm_metrics_resumed.json" in
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --metrics %s" trace_file m_full));
  ignore
    (run (Printf.sprintf
            "learn %s --bound 4 --checkpoint %s --stop-after 2 --metrics %s"
            trace_file ckpt (tmp "gm_metrics_partial.json")));
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --metrics %s"
            trace_file ckpt m_resumed));
  Alcotest.(check string) "counters identical after kill+resume"
    (counters_section m_full) (counters_section m_resumed);
  (* How many periods the resumed run skipped is a gauge beside them. *)
  Alcotest.(check bool) "resumed periods gauge" true
    (contains
       ~needle:"\"checkpoint.resumed_periods\": {\n      \"last\": 2,"
       (read_file m_resumed))

let test_learn_profile_byte_equal () =
  let base = tmp "gm_prof_base.model" and prof = tmp "gm_prof.model" in
  let folded = tmp "gm_prof.folded" in
  ignore (run (Printf.sprintf "learn %s --bound 4 -o %s" trace_file base));
  let plain = run (Printf.sprintf "learn %s --bound 4" trace_file) in
  let profiled =
    run (Printf.sprintf "learn %s --bound 4 --profile --folded %s -o %s"
           trace_file folded prof)
  in
  (* profiling is observation only: model file and stdout are unchanged *)
  Alcotest.(check string) "profiled model byte-equal" (read_file base)
    (read_file prof);
  Alcotest.(check string) "profiled stdout unchanged" plain profiled;
  let table = read_file (tmp "stderr") in
  Alcotest.(check bool) "hotspot table on stderr" true
    (contains ~needle:"excl%" table && contains ~needle:"learn.period" table
     && contains ~needle:"ingest.parse" table);
  List.iter
    (fun layer ->
       Alcotest.(check bool) (layer ^ " in the hotspot table") true
         (contains ~needle:layer table))
    [ "learn.messages"; "learn.weaken"; "learn.postprocess" ];
  let stacks = read_file folded in
  Alcotest.(check bool) "folded stacks mention the root span" true
    (contains ~needle:"learn.period" stacks);
  (* every folded line is "path <exclusive_ns>" *)
  List.iter
    (fun l ->
      if l <> "" then
        match String.rindex_opt l ' ' with
        | None -> Alcotest.failf "bad folded line: %S" l
        | Some i ->
          (match
             int_of_string_opt
               (String.sub l (i + 1) (String.length l - i - 1))
           with
           | Some ns when ns >= 0 -> ()
           | _ -> Alcotest.failf "bad folded value: %S" l))
    (String.split_on_char '\n' stacks)

let test_report_prometheus () =
  let metrics = tmp "gm_prom_metrics.json" in
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --metrics %s" trace_file metrics));
  let out = run (Printf.sprintf "report %s --prometheus" metrics) in
  Alcotest.(check bool) "counter family" true
    (contains ~needle:"# TYPE rtgen_learn_merges_total counter" out);
  Alcotest.(check bool) "cumulative histogram ends at +Inf" true
    (contains ~needle:"le=\"+Inf\"" out);
  Alcotest.(check bool) "span counters" true
    (contains ~needle:"rtgen_learn_period_spans_total" out);
  (* a trace file is not a metrics document *)
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "report %s --prometheus" trace_file));
  (* --prometheus already picks the query *)
  let code, _ =
    run_code (Printf.sprintf "report %s --prometheus --query status" metrics)
  in
  Alcotest.(check int) "conflicting --query exits 2" 2 code

let test_watch_flight_recorder () =
  let fl = tmp "watch_flight.json" in
  if Sys.file_exists fl then Sys.remove fl;
  ignore (run (Printf.sprintf "watch %s --bound 1 --flight %s" trace_file fl));
  let text = read_file fl in
  Alcotest.(check bool) "flight dump written" true
    (contains ~needle:"rtgen-flight" text);
  Alcotest.(check bool) "drift routed through the recorder" true
    (contains ~needle:"watch.drift" text)

let test_stats_recover () =
  (* On damaged input, --recover must surface the quarantine account on
     stdout (plain stats would just refuse the file). *)
  ignore (run ~expect_fail:true (Printf.sprintf "stats %s" corrupted_file));
  let out =
    run (Printf.sprintf "stats %s --recover --eps 60" corrupted_file)
  in
  Alcotest.(check bool) "quarantine section" true
    (contains ~needle:"== quarantine ==" out);
  Alcotest.(check bool) "confidence line" true
    (contains ~needle:"confidence:" out);
  Alcotest.(check bool) "quarantine not on stderr" false
    (contains ~needle:"quarantine:" (read_file (tmp "stderr")))

(* --- the serving daemon --- *)

let period_count file =
  let lines = String.split_on_char '\n' (read_file file) in
  List.length
    (List.filter
       (fun l -> String.length l >= 6 && String.sub l 0 6 = "period")
       lines)

(* A spool of [fleet] vehicle traces plus the reference models that
   [rtgen serve] must reproduce byte-for-byte. Returns the drain
   threshold: total periods minus one per stream, because a followed
   file (no EOF until drain) holds its final period back until the
   parser sees the end of input. *)
let make_fleet_spool name fleet =
  let spool = tmp (name ^ "_spool") and refs = tmp (name ^ "_refs") in
  ignore (Sys.command (Printf.sprintf "rm -rf %s %s" spool refs));
  ignore
    (run (Printf.sprintf "simulate --fleet %d --spool %s --periods 8 --seed 23"
            fleet spool));
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" refs));
  let total = ref 0 in
  for i = 0 to fleet - 1 do
    let id = Printf.sprintf "vehicle%02d" i in
    let trace = Filename.concat spool (id ^ ".trace") in
    Alcotest.(check bool) (id ^ " trace exists") true (Sys.file_exists trace);
    total := !total + period_count trace;
    ignore
      (run (Printf.sprintf "learn --stream %s --mode recover --bound 4 -o %s"
              trace (Filename.concat refs (id ^ ".model"))))
  done;
  (spool, refs, !total - fleet)

let check_fleet_models name refs out fleet =
  for i = 0 to fleet - 1 do
    let id = Printf.sprintf "vehicle%02d" i in
    Alcotest.(check string)
      (Printf.sprintf "%s: %s model = learn --stream model" name id)
      (read_file (Filename.concat refs (id ^ ".model")))
      (read_file (Filename.concat out (id ^ ".model")))
  done

let test_serve_drain_equals_learn () =
  let fleet = 4 in
  let spool, refs, threshold = make_fleet_spool "serve_drain" fleet in
  let out = tmp "serve_drain_out" in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" out));
  ignore
    (run (Printf.sprintf "serve --spool %s --out %s --bound 4 \
                          --drain-after-total %d" spool out threshold));
  Alcotest.(check bool) "drain summary on stderr" true
    (contains ~needle:"drained:" (read_file (tmp "stderr")));
  check_fleet_models "drain" refs out fleet

let test_serve_kill_resume_byte_equal () =
  let fleet = 4 in
  let spool, refs, threshold = make_fleet_spool "serve_kill" fleet in
  let out = tmp "serve_kill_out" and ckpt = tmp "serve_kill_ckpt" in
  ignore (Sys.command (Printf.sprintf "rm -rf %s %s" out ckpt));
  (* two abrupt exits mid-learn (the deterministic SIGKILL), each run
     resuming the previous run's checkpoints, then a full drain *)
  List.iter
    (fun stop ->
      ignore
        (run (Printf.sprintf
                "serve --spool %s --out %s --checkpoint-dir %s \
                 --checkpoint-every 3 --bound 4 --stop-after-total %d"
                spool out ckpt stop)))
    [ threshold / 3; 2 * threshold / 3 ];
  Alcotest.(check bool) "no model after the kill" false
    (Sys.file_exists (Filename.concat out "vehicle00.model"));
  Alcotest.(check bool) "checkpoint survives the kill" true
    (Sys.file_exists (Filename.concat ckpt "vehicle00.ckpt"));
  ignore
    (run (Printf.sprintf
            "serve --spool %s --out %s --checkpoint-dir %s \
             --checkpoint-every 3 --bound 4 --drain-after-total %d"
            spool out ckpt threshold));
  check_fleet_models "kill+resume" refs out fleet

let test_serve_live_report_isolation () =
  (* A live daemon over a spool with one poisoned stream: the control
     socket must answer rtgen report while it runs, the bad stream must
     fail in the status report, and the good streams' models must still
     be byte-equal after a control-socket drain. *)
  let fleet = 2 in
  let spool, refs, _ = make_fleet_spool "serve_live" fleet in
  write_file (Filename.concat spool "poison.trace") "garbage\nnot a trace\n";
  let out = tmp "serve_live_out" and ctl = tmp "serve_live.sock" in
  let log = tmp "serve_live.log" in
  ignore (Sys.command (Printf.sprintf "rm -rf %s %s" out ctl));
  let code =
    Sys.command
      (Printf.sprintf
         "%s serve --spool %s --out %s --control %s --bound 4 \
          --max-restarts 1 --backoff 0.001 > %s 2>&1 &"
         rtgen spool out ctl log)
  in
  Alcotest.(check int) "daemon launched" 0 code;
  (* poll the control socket until the daemon answers *)
  let rec poll n =
    if n > 200 then Alcotest.failf "control socket never came up: %s" (read_file log)
    else
      let code, out = run_code (Printf.sprintf "report --socket %s --query status" ctl) in
      if code = 0 && contains ~needle:"rtgend status" out then out
      else begin
        ignore (Sys.command "sleep 0.05");
        poll (n + 1)
      end
  in
  let status = poll 0 in
  Alcotest.(check bool) "live status lists the good stream" true
    (contains ~needle:"stream vehicle00" status);
  Alcotest.(check bool) "live status lists the poisoned stream" true
    (contains ~needle:"stream poison" status);
  let metrics = run (Printf.sprintf "report --socket %s --query metrics" ctl) in
  Alcotest.(check bool) "live metrics render" true
    (contains ~needle:"daemon.streams_accepted" metrics);
  (* the flight recorder, prometheus exposition and top table are all
     served from the same live socket *)
  let flight = run (Printf.sprintf "report --socket %s --query flight" ctl) in
  Alcotest.(check bool) "live flight dump" true
    (contains ~needle:"rtgen-flight" flight
     && contains ~needle:"stream.admit" flight);
  let prom = run (Printf.sprintf "report --socket %s --prometheus" ctl) in
  Alcotest.(check bool) "live prometheus counters" true
    (contains ~needle:"# TYPE rtgen_daemon_streams_accepted_total counter"
       prom);
  Alcotest.(check bool) "per-stream labelled family" true
    (contains ~needle:"{stream=\"vehicle00\"}" prom);
  let topout = run (Printf.sprintf "top --socket %s --count 1 --no-clear" ctl) in
  Alcotest.(check bool) "top renders the fleet table" true
    (contains ~needle:"STREAM" topout && contains ~needle:"vehicle00" topout);
  Alcotest.(check bool) "top shows the checkpoint-age column" true
    (contains ~needle:"CKPT-AGE" topout);
  (* an unknown verb comes back as a single error line and exit 2 *)
  let code, bogus =
    run_code (Printf.sprintf "report --socket %s --query frobnicate" ctl)
  in
  Alcotest.(check int) "unknown query exits 2" 2 code;
  Alcotest.(check bool) "error line echoed" true
    (contains ~needle:"error:" bogus && contains ~needle:"frobnicate" bogus);
  (match String.split_on_char '\n' (String.trim bogus) with
   | [ _one_line ] -> ()
   | _ -> Alcotest.failf "error reply is not a single line: %S" bogus);
  ignore (run (Printf.sprintf "report --socket %s --query drain" ctl));
  let rec wait_done n =
    if n > 200 then Alcotest.failf "daemon never drained: %s" (read_file log)
    else if Sys.file_exists (Filename.concat out "vehicle01.model") then ()
    else begin
      ignore (Sys.command "sleep 0.05");
      wait_done (n + 1)
    end
  in
  wait_done 0;
  ignore (Sys.command "sleep 0.2");
  check_fleet_models "live" refs out fleet;
  Alcotest.(check bool) "poisoned stream yields no model" false
    (Sys.file_exists (Filename.concat out "poison.model"))

let test_serve_flag_validation () =
  ignore (run ~expect_fail:true "serve");
  let code, _ = run_code "serve --spool /nonexistent/spool_dir" in
  Alcotest.(check int) "missing spool is an input error" 2 code;
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "report --socket %s" (tmp "no_such.sock")))

(* A store, checkpoint or output directory below a regular file is an
   input error — exit 2 with an "rtgen: " message — not an internal
   one. [args file spool] builds the command line. *)
let test_dir_under_file args () =
  let file = tmp "plain_file" and spool = tmp "under_file_spool" in
  write_file file "";
  ignore (Sys.command (Printf.sprintf "rm -rf %s && mkdir -p %s" spool spool));
  let code, out = run_code ~bin:("timeout 30 " ^ rtgen) (args file spool) in
  let err = read_file (tmp "stderr") in
  Alcotest.(check int) ("input error: " ^ err) 2 code;
  (* the bad directory is refused before any work: nothing on stdout *)
  Alcotest.(check string) "stdout empty" "" out;
  Alcotest.(check bool) ("rtgen: message: " ^ err) true
    (String.starts_with ~prefix:"rtgen: " err
     && not (contains ~needle:"internal error" err))

let dir_under_file_cases =
  List.map
    (fun (name, args) ->
       Alcotest.test_case name `Quick (test_dir_under_file args))
    [ ("learn --store F/sub",
       fun f _ -> Printf.sprintf "learn -b 1 %s --store %s/sub" trace_file f);
      ("learn --checkpoint F/sub//ck",
       fun f _ ->
         Printf.sprintf "learn -b 1 %s --checkpoint %s/sub//ck" trace_file f);
      ("serve --store F/sub",
       fun f s -> Printf.sprintf "serve --spool %s --store %s/sub" s f);
      ("serve --out F/sub",
       fun f s -> Printf.sprintf "serve --spool %s --out %s/sub" s f);
      ("simulate --fleet --spool F/sub",
       fun f _ -> Printf.sprintf "simulate --fleet 1 --spool %s/sub" f);
      ("serve --checkpoint-dir F/ck",
       fun f s ->
         Printf.sprintf "serve --spool %s --out %s --checkpoint-dir %s/ck" s
           (tmp "under_file_out") f) ]

let test_inject_torn_write () =
  (* --torn-at emulates a writer dying mid-write: the output is exactly
     the first BYTE bytes of the same seeded corruption, and recover
     mode still learns from the remains. *)
  let full = run (Printf.sprintf "inject %s --rate 0.05 --seed 3" trace_file) in
  let torn_file = tmp "torn.trace" in
  let at = String.length full / 2 in
  ignore
    (run (Printf.sprintf "inject %s --rate 0.05 --seed 3 --torn-at %d -o %s"
            trace_file at torn_file));
  let torn = read_file torn_file in
  Alcotest.(check int) "torn length" at (String.length torn);
  Alcotest.(check string) "torn = prefix of the full write"
    (String.sub full 0 at) torn;
  Alcotest.(check bool) "tear reported" true
    (contains ~needle:"torn at byte" (read_file (tmp "stderr")));
  let out =
    run (Printf.sprintf "learn --stream %s --mode recover --eps 60 --bound 4"
           torn_file)
  in
  Alcotest.(check bool) "recover learns from the torn file" true
    (contains ~needle:"least upper bound" out);
  ignore
    (run ~expect_fail:true
       (Printf.sprintf "inject %s --torn-at -1" trace_file))

let test_vcd_import_roundtrip () =
  let dump = tmp "gm.vcd" in
  ignore
    (run (Printf.sprintf "vcd %s --period-len 100000 -o %s" trace_file dump));
  let back = run (Printf.sprintf "vcd --import %s --period-len 100000" dump) in
  Alcotest.(check string) "vcd import round trip" (read_file trace_file) back;
  ignore (run ~expect_fail:true (Printf.sprintf "vcd --import %s" trace_file));
  (* Without --period-len the import slices where the export laid the
     periods out, which task-start recurrence alone can get wrong. *)
  List.iter
    (fun seed ->
       let trace = tmp (Printf.sprintf "vcd_seed%d.trace" seed) in
       let dump = tmp (Printf.sprintf "vcd_seed%d.vcd" seed) in
       ignore
         (run (Printf.sprintf "simulate --tasks 6 --periods 300 --seed %d -o %s"
                 seed trace));
       ignore (run (Printf.sprintf "vcd %s -o %s" trace dump));
       Alcotest.(check string)
         (Printf.sprintf "seed %d: periods come back" seed)
         (read_file trace)
         (run (Printf.sprintf "vcd --import %s" dump)))
    [ 1; 2; 3 ];
  (* A whole-dump error has no line to cite. *)
  let straddle = tmp "straddle.vcd" in
  write_file straddle "$var wire 1 ! task_a $end\n#90\n1!\n#110\n0!\n";
  let code, _ =
    run_code (Printf.sprintf "vcd --import %s --period-len 100" straddle)
  in
  Alcotest.(check int) "straddling task exits 2" 2 code;
  Alcotest.(check bool) "no line 0 cited" false
    (contains ~needle:"line 0" (read_file (tmp "stderr")))

(* --- the content-addressed store and fleet merge --- *)

let rm_rf path = ignore (Sys.command (Printf.sprintf "rm -rf %s" path))

(* Split a trace file into [k] files, distributing whole periods
   round-robin: any partition must fold back to the monolithic bound-1
   model, so an arbitrary-looking one is the stronger test. *)
let split_trace k src dsts =
  let starts_period l =
    String.length l >= 7 && String.sub l 0 7 = "period "
  in
  let lines = String.split_on_char '\n' (read_file src) in
  let rec header acc = function
    | l :: _ as rest when starts_period l -> (List.rev acc, rest)
    | l :: tl -> header (l :: acc) tl
    | [] -> (List.rev acc, [])
  in
  let hdr, rest = header [] lines in
  let blocks =
    List.fold_left
      (fun acc l ->
         if starts_period l then [ l ] :: acc
         else
           match acc with
           | [] -> acc (* stray trailing blank before any period *)
           | b :: tl -> (l :: b) :: tl)
      [] rest
    |> List.rev_map List.rev
  in
  List.iteri
    (fun i dst ->
       let mine =
         List.filteri (fun j _ -> j mod k = i) blocks |> List.concat
       in
       write_file dst (String.concat "\n" (hdr @ mine) ^ "\n"))
    dsts

let test_learn_store_inspect () =
  let store = tmp "inspect_store" in
  rm_rf store;
  ignore (run (Printf.sprintf "learn %s --bound 1 --store %s" trace_file store));
  Alcotest.(check bool) "commit announced" true
    (contains ~needle:"stored " (read_file (tmp "stderr")));
  let refs = run (Printf.sprintf "store refs %s" store) in
  Alcotest.(check bool) "model ref" true (contains ~needle:"model @1" refs);
  Alcotest.(check bool) "bound-1 companion ref" true
    (contains ~needle:"model/b1 @1" refs);
  Alcotest.(check bool) "answer-set ref" true
    (contains ~needle:"model/answers @1" refs);
  let log = run (Printf.sprintf "store log %s model" store) in
  Alcotest.(check bool) "kind recorded" true (contains ~needle:"kind=model" log);
  Alcotest.(check bool) "derived from the companion" true
    (contains ~needle:"parents=" log);
  (* The committed blob is the canonical model text behind a format
     header — byte-comparable with what `learn -o` wrote. *)
  let blob = run (Printf.sprintf "store cat %s//model@1" store) in
  Alcotest.(check string) "canonical model blob"
    ("rtgen-model v1\n" ^ read_file model_file)
    blob;
  (* Everything committed is referenced, so gc deletes nothing. *)
  let gc = run (Printf.sprintf "store gc %s" store) in
  Alcotest.(check bool) "nothing unreferenced" true
    (contains ~needle:"deleted 0" gc);
  (* Import a foreign file, then re-learn: generations are dense. *)
  let put = run (Printf.sprintf "store put %s imported %s" store model_file) in
  Alcotest.(check bool) "put names the generation" true
    (contains ~needle:"imported@1 " put);
  ignore (run (Printf.sprintf "learn %s --bound 1 --store %s" trace_file store));
  let refs = run (Printf.sprintf "store refs %s" store) in
  Alcotest.(check bool) "model at generation 2" true
    (contains ~needle:"model @2" refs)

let test_merge_fleet_byte_equal () =
  let mono = tmp "fleet_mono.model" in
  ignore (run (Printf.sprintf "learn %s --bound 1 -o %s" trace_file mono));
  List.iter
    (fun k ->
       let part i ext = tmp (Printf.sprintf "fleet%d_%d%s" k i ext) in
       let parts = List.init k (fun i -> part i ".trace") in
       split_trace k trace_file parts;
       let stores = List.init k (fun i -> part i ".store") in
       List.iter rm_rf stores;
       List.iteri
         (fun i p ->
            (* Mixed bounds across the fleet: the committed companion
               is bound-1 regardless, so the merge stays exact. *)
            ignore
              (run
                 (Printf.sprintf "learn %s --bound %d --store %s" p
                    (if i mod 2 = 0 then 1 else 3)
                    (List.nth stores i))))
         parts;
       let fleet = tmp (Printf.sprintf "fleet%d.model" k) in
       let fleet_store = tmp (Printf.sprintf "fleet%d_out.store" k) in
       rm_rf fleet_store;
       let out =
         run
           (Printf.sprintf "merge %s -o %s --store %s" (String.concat " " stores)
              fleet fleet_store)
       in
       Alcotest.(check bool)
         (Printf.sprintf "K=%d part count" k)
         true
         (contains ~needle:(Printf.sprintf "fleet model (%d part(s)" k) out);
       Alcotest.(check string)
         (Printf.sprintf "K=%d fleet model byte-equal to monolithic" k)
         (read_file mono) (read_file fleet);
       (* The committed fleet ref embeds the same canonical bytes. *)
       let blob = run (Printf.sprintf "store cat %s//fleet@latest" fleet_store) in
       Alcotest.(check string)
         (Printf.sprintf "K=%d committed fleet blob" k)
         ("rtgen-model v1\n" ^ read_file mono)
         blob)
    [ 1; 2; 4 ]

(* A checkpointed learn checkpoints and commits the bound-1 companion
   too: merging the store of a killed-and-resumed run gives exactly what
   merging a plain learn's store gives. *)
let test_merge_after_checkpoint_resume () =
  let plain = tmp "ckmerge_plain.store" in
  let resumed = tmp "ckmerge_resumed.store" in
  let ckpt = tmp "ckmerge.ckpt" in
  List.iter rm_rf [ plain; resumed ];
  if Sys.file_exists ckpt then Sys.remove ckpt;
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --store %s" trace_file plain));
  ignore
    (run (Printf.sprintf
            "learn %s --bound 4 --store %s --checkpoint %s --stop-after 2"
            trace_file resumed ckpt));
  Alcotest.(check bool) "engine and companion in one image" true
    (Sys.file_exists ckpt);
  no_sidecars "mid-run" ckpt;
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --store %s --checkpoint %s"
            trace_file resumed ckpt));
  Alcotest.(check bool) "checkpoint removed on success" false
    (Sys.file_exists ckpt);
  no_sidecars "after success" ckpt;
  let want = run (Printf.sprintf "merge %s" plain) in
  Alcotest.(check string) "merge after resume = merge after a plain learn"
    want (run (Printf.sprintf "merge %s" resumed))

(* A main-engine file alone, as the one-file-per-engine layout left it
   beside a companion sidecar, is one engine where [--store] at bound 4
   needs two: the run warns, starts fresh and learns the uninterrupted
   model. *)
let test_sidecar_companion_checkpoint () =
  let ckpt = tmp "sidecar_companion.ckpt" in
  let fresh = tmp "sidecar_companion_fresh.store" in
  let plain = tmp "sidecar_companion_plain.store" in
  List.iter rm_rf [ fresh; plain ];
  if Sys.file_exists ckpt then Sys.remove ckpt;
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --stop-after 2"
            trace_file ckpt));
  let code, out =
    run_code
      (Printf.sprintf "learn %s --bound 4 --store %s --checkpoint %s"
         trace_file fresh ckpt)
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "warned and started fresh" true
    (contains ~needle:"starting fresh" (read_file (tmp "stderr")));
  Alcotest.(check string) "uninterrupted model"
    (run (Printf.sprintf "learn %s --bound 4 --store %s" trace_file plain))
    out;
  Alcotest.(check bool) "checkpoint removed on success" false
    (Sys.file_exists ckpt)

(* The tag does not bind [--bound]: a bound-4 checkpoint resumed with
   [--bound 8] holds an engine of the wrong bound, so the run warns,
   starts fresh and learns the uninterrupted bound-8 model. *)
let test_checkpoint_other_bound () =
  let ckpt = tmp "other_bound.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --stop-after 2"
            trace_file ckpt));
  let code, out =
    run_code
      (Printf.sprintf "learn %s --bound 8 --checkpoint %s" trace_file ckpt)
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "warned and started fresh" true
    (contains ~needle:"starting fresh" (read_file (tmp "stderr")));
  Alcotest.(check string) "uninterrupted bound-8 model"
    (run (Printf.sprintf "learn %s --bound 8" trace_file))
    out

let test_store_checkpoint_resume () =
  let store = tmp "ckpt.store" in
  rm_rf store;
  let slot = store ^ "//ckpt/main" in
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s --stop-after 2"
            trace_file slot));
  let refs = run (Printf.sprintf "store refs %s" store) in
  Alcotest.(check bool) "checkpoint ref committed" true
    (contains ~needle:"ckpt/main @" refs);
  (* Store-resident checkpoints audit like file ones. *)
  let code, _ = run_code (Printf.sprintf "check --checkpoint %s" slot) in
  Alcotest.(check int) "store checkpoint audits clean" 0 code;
  let resumed =
    run (Printf.sprintf "learn %s --bound 4 --checkpoint %s" trace_file slot)
  in
  Alcotest.(check bool) "resume announced" true
    (contains ~needle:"resumed" (read_file (tmp "stderr")));
  let uninterrupted = run (Printf.sprintf "learn %s --bound 4" trace_file) in
  Alcotest.(check string) "resumed model = uninterrupted model"
    uninterrupted resumed;
  (* Success discards the slot: the ref is gone, gc reaps the images. *)
  let refs = run (Printf.sprintf "store refs %s" store) in
  Alcotest.(check bool) "checkpoint ref discarded" false
    (contains ~needle:"ckpt/main" refs);
  let gc = run (Printf.sprintf "store gc %s" store) in
  Alcotest.(check bool) "orphaned images reaped" false
    (contains ~needle:"deleted 0" gc)

let test_store_addressed_check_query () =
  let store = tmp "addr.store" in
  rm_rf store;
  ignore (run (Printf.sprintf "learn %s --bound 1 --store %s" trace_file store));
  let code, _ = run_code (Printf.sprintf "check %s//model@1" store) in
  Alcotest.(check int) "store model audits clean" 0 code;
  let code, out =
    run_code
      (Printf.sprintf "query %s \"d(A,L) = -> & conjunction(Q)\" --model %s//model"
         trace_file store)
  in
  Alcotest.(check int) "query over a store address" 0 code;
  Alcotest.(check bool) "property holds" true (contains ~needle:"[ok]" out);
  (* A checkpoint blob is not a model: check refuses with guidance. *)
  ignore
    (run (Printf.sprintf "learn %s --bound 4 --checkpoint %s//c --stop-after 1"
            trace_file store));
  let code, _ = run_code (Printf.sprintf "check %s//c" store) in
  Alcotest.(check int) "checkpoint blob as MODEL exits 2" 2 code;
  Alcotest.(check bool) "points at --checkpoint" true
    (contains ~needle:"--checkpoint" (read_file (tmp "stderr")))

let test_store_merge_validation () =
  let store = tmp "empty.store" in
  rm_rf store;
  ignore (run (Printf.sprintf "store init %s" store));
  let code, _ = run_code (Printf.sprintf "merge %s" store) in
  Alcotest.(check int) "no companion parts exits 2" 2 code;
  let code, _ =
    run_code (Printf.sprintf "learn %s --exact --store %s" trace_file store)
  in
  Alcotest.(check int) "--exact conflicts with --store" 2 code;
  let code, _ =
    run_code (Printf.sprintf "learn %s --auto --store %s" trace_file store)
  in
  Alcotest.(check int) "--auto conflicts with --store" 2 code;
  let code, _ = run_code "store refs /nonexistent/store" in
  Alcotest.(check int) "missing store exits 2" 2 code

let () =
  Alcotest.run "cli"
    [
      ( "pipeline",
        [
          Alcotest.test_case "simulate" `Quick test_simulate;
          Alcotest.test_case "simulate --dot" `Quick test_simulate_dot;
          Alcotest.test_case "learn" `Quick test_learn;
          Alcotest.test_case "learn --dot" `Quick test_learn_dot;
          Alcotest.test_case "every --help renders" `Quick test_help_renders;
          Alcotest.test_case "query holds" `Quick test_query_pass;
          Alcotest.test_case "query violated" `Quick test_query_fail;
          Alcotest.test_case "query unparseable" `Quick test_query_bad;
          Alcotest.test_case "analyze" `Quick test_analyze;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "vcd" `Quick test_vcd;
          Alcotest.test_case "gantt" `Quick test_gantt;
          Alcotest.test_case "example" `Quick test_example;
          Alcotest.test_case "anonymize" `Quick test_anonymize;
          Alcotest.test_case "missing file" `Quick test_missing_file;
        ] );
      ( "static analysis",
        [
          Alcotest.test_case "check learned model" `Quick
            test_model_check_learned;
          Alcotest.test_case "check broken model" `Quick
            test_model_check_broken;
          Alcotest.test_case "check answer set" `Quick
            test_model_check_answer_set;
          Alcotest.test_case "check missing input" `Quick
            test_model_check_missing;
          Alcotest.test_case "check checkpoint" `Quick
            test_model_check_checkpoint;
          Alcotest.test_case "check all learn paths" `Quick
            test_model_check_all_learn_paths;
          Alcotest.test_case "check sarif" `Quick test_model_check_sarif;
          Alcotest.test_case "rtlint exit codes" `Quick test_rtlint_cli;
          Alcotest.test_case "rtlint own tree clean" `Quick
            test_rtlint_own_tree_clean;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "inject" `Quick test_inject;
          Alcotest.test_case "strict vs recover learn" `Quick
            test_learn_strict_vs_recover;
          Alcotest.test_case "analyze confidence" `Quick
            test_analyze_recover_confidence;
          Alcotest.test_case "checkpoint kill-resume" `Quick
            test_checkpoint_kill_resume;
          Alcotest.test_case "checkpoint trace mismatch" `Quick
            test_checkpoint_wrong_trace_refused;
          Alcotest.test_case "stop-after needs checkpoint" `Quick
            test_stop_after_needs_checkpoint;
          Alcotest.test_case "out-of-range options refused" `Quick
            test_out_of_range_options_refused;
          Alcotest.test_case "vcd import round trip" `Quick
            test_vcd_import_roundtrip;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "learn --stream = batch" `Quick
            test_learn_stream_equals_batch;
          Alcotest.test_case "flag conflicts" `Quick test_learn_stream_conflicts;
          Alcotest.test_case "learn --auto in bounded memory" `Quick
            test_learn_auto_memory;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "model byte-equal across K" `Quick
            test_learn_shards_equal_across_k;
          Alcotest.test_case "sharded checkpoint kill-resume" `Quick
            test_learn_shards_checkpoint_resume;
          Alcotest.test_case "sharded metrics keys" `Quick
            test_learn_shards_metrics;
          Alcotest.test_case "checkpoint.write span per save" `Quick
            test_checkpoint_write_span;
          Alcotest.test_case "sharded flag conflicts" `Quick
            test_learn_shards_conflicts;
          Alcotest.test_case "learn --auto trajectory" `Quick
            test_learn_auto_trajectory;
          Alcotest.test_case "watch drift" `Quick test_watch_reports_drift;
          Alcotest.test_case "watch notes recover drops" `Quick
            test_watch_notes_drops;
          Alcotest.test_case "watch --max-periods stdin" `Quick
            test_watch_max_periods_stdin;
          Alcotest.test_case "watch --follow growing file" `Quick
            test_watch_follow_growing_file;
        ] );
      ( "serving",
        [
          Alcotest.test_case "serve drain = learn --stream" `Quick
            test_serve_drain_equals_learn;
          Alcotest.test_case "serve kill twice + resume byte-equal" `Quick
            test_serve_kill_resume_byte_equal;
          Alcotest.test_case "live report + corrupt isolation" `Quick
            test_serve_live_report_isolation;
          Alcotest.test_case "serve flag validation" `Quick
            test_serve_flag_validation;
          Alcotest.test_case "inject --torn-at" `Quick test_inject_torn_write;
        ] );
      ( "store",
        [
          Alcotest.test_case "learn --store + plumbing" `Quick
            test_learn_store_inspect;
          Alcotest.test_case "fleet merge byte-equal across K" `Quick
            test_merge_fleet_byte_equal;
          Alcotest.test_case "store checkpoint kill-resume" `Quick
            test_store_checkpoint_resume;
          Alcotest.test_case "check/query over store addresses" `Quick
            test_store_addressed_check_query;
          Alcotest.test_case "merge and flag validation" `Quick
            test_store_merge_validation;
          Alcotest.test_case "merge after checkpoint resume" `Quick
            test_merge_after_checkpoint_resume;
          Alcotest.test_case "main-only companion checkpoint starts fresh" `Quick
            test_sidecar_companion_checkpoint;
          Alcotest.test_case "checkpoint under another bound starts fresh"
            `Quick test_checkpoint_other_bound;
        ]
        @ dir_under_file_cases );
      ( "observability",
        [
          Alcotest.test_case "learn --metrics + report" `Quick
            test_learn_metrics_and_report;
          Alcotest.test_case "counters deterministic across -j" `Quick
            test_metrics_deterministic_across_jobs;
          Alcotest.test_case "counters deterministic across resume" `Quick
            test_metrics_deterministic_across_resume;
          Alcotest.test_case "stats --recover" `Quick test_stats_recover;
          Alcotest.test_case "learn --profile leaves the model alone" `Quick
            test_learn_profile_byte_equal;
          Alcotest.test_case "learn --auto --metrics" `Quick
            test_learn_auto_metrics;
          Alcotest.test_case "report --prometheus" `Quick
            test_report_prometheus;
          Alcotest.test_case "watch --flight" `Quick
            test_watch_flight_recorder;
        ] );
    ]
