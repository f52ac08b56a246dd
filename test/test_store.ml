(* The store contract (DESIGN.md §17): blobs are immutable,
   deduplicated and hash-verified on read; refs are dense 1-based
   generation ledgers whose metadata survives a round trip; a ref and
   its sub-namespace ("model" and "model/b1") coexist; gc deletes
   exactly the blobs no generation or parent mentions. Codec blobs are
   canonical: encode/decode is the identity on models, companions and
   answer sets (qcheck), and kind sniffing recognizes each header. The
   companion blob is the fleet-merge interchange, so the decisive test
   is end-to-end: per-partition engines serialized through the store
   and folded back must be byte-equal to the monolithic bound-1 run. *)

module Store = Rt_store.Store
module Codec = Rt_store.Codec
module Slot = Rt_store.Slot
module Df = Rt_lattice.Depfun
module S = Rt_shard.Shard
module Engine = Rt_engine.Engine
module Trace = Rt_trace.Trace

let tmpdir () =
  let d = Filename.temp_file "rtstore_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let ok_exn = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let err_exn = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error m -> m

let meta ?bound ?source ?(parents = []) ?(created_at = 0) kind =
  { Store.kind; bound; source; parents; created_at }

(* --- store basics ----------------------------------------------------- *)

let test_init_open () =
  let root = Filename.concat (tmpdir ()) "s" in
  let s = ok_exn (Store.init root) in
  Alcotest.(check string) "root" root (Store.root s);
  (* Re-init and open_ both land on the same store. *)
  ignore (ok_exn (Store.init root));
  ignore (ok_exn (Store.open_ root));
  (* A directory without a marker is not a store. *)
  let plain = tmpdir () in
  Alcotest.(check bool) "missing marker refused" true
    (Astring.String.is_infix ~affix:"store.meta" (err_exn (Store.open_ plain)))

let test_blob_roundtrip () =
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  let body = "hello store\n" in
  let a1 = ok_exn (Store.put_blob s body) in
  let a2 = ok_exn (Store.put_blob s body) in
  Alcotest.(check string) "put is idempotent" a1 a2;
  Alcotest.(check string) "address is content hash" (Store.address_of body) a1;
  Alcotest.(check string) "read back" body (ok_exn (Store.read_blob s a1));
  Alcotest.(check bool) "has_blob" true (Store.has_blob s a1);
  Alcotest.(check bool) "no such blob" false
    (Store.has_blob s (Store.address_of "other"))

let test_blob_corruption_detected () =
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  let addr = ok_exn (Store.put_blob s "precious bytes") in
  (* Flip the object's bytes on disk behind the store's back. *)
  let path =
    Filename.concat
      (Filename.concat
         (Filename.concat (Store.root s) "objects")
         (String.sub addr 0 2))
      (String.sub addr 2 30)
  in
  let oc = open_out_bin path in
  output_string oc "tampered bytes!";
  close_out oc;
  Alcotest.(check bool) "hash mismatch reported" true
    (Astring.String.is_infix ~affix:"hash mismatch"
       (err_exn (Store.read_blob s addr)))

let test_commit_generations_resolve () =
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  let e1 =
    ok_exn
      (Store.commit s ~ref_:"m"
         ~meta:(meta ~bound:3 ~source:"trace a b" ~created_at:10 Store.Model)
         "blob one")
  in
  let e2 =
    ok_exn
      (Store.commit s ~ref_:"m"
         ~meta:
           (meta ~parents:[ e1.Store.address ] ~created_at:20 Store.Model)
         "blob two")
  in
  Alcotest.(check int) "gen 1" 1 e1.Store.gen;
  Alcotest.(check int) "gen 2" 2 e2.Store.gen;
  let gens = ok_exn (Store.generations s "m") in
  Alcotest.(check int) "two generations" 2 (List.length gens);
  (* Metadata round-trips through the ledger, including a source with
     spaces and the parents list. *)
  let g1 = List.nth gens 0 in
  Alcotest.(check (option int)) "bound" (Some 3) g1.Store.meta.Store.bound;
  Alcotest.(check (option string))
    "source keeps spaces" (Some "trace a b") g1.Store.meta.Store.source;
  Alcotest.(check int) "created_at" 10 g1.Store.meta.Store.created_at;
  let g2 = List.nth gens 1 in
  Alcotest.(check (list string))
    "parents" [ e1.Store.address ] g2.Store.meta.Store.parents;
  (* resolve: bare name, @latest, @N, and errors *)
  let latest = ok_exn (Store.resolve s "m") in
  Alcotest.(check int) "bare name is latest" 2 latest.Store.gen;
  Alcotest.(check int) "@latest" 2 (ok_exn (Store.resolve s "m@latest")).Store.gen;
  Alcotest.(check int) "@1" 1 (ok_exn (Store.resolve s "m@1")).Store.gen;
  Alcotest.(check bool) "@7 names latest" true
    (Astring.String.is_infix ~affix:"latest is 2" (err_exn (Store.resolve s "m@7")));
  ignore (err_exn (Store.resolve s "nope"))

let test_ref_subnamespace_coexists () =
  (* The regression that motivated the ".ref" ledger suffix: ref
     "model" and its sub-refs "model/b1", "model/answers" must coexist
     on the filesystem. *)
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  let commit ref_ blob =
    ignore (ok_exn (Store.commit s ~ref_ ~meta:(meta Store.Model) blob))
  in
  commit "model" "the model";
  commit "model/b1" "the companion";
  commit "model/answers" "the answers";
  commit "model/b1/0" "part zero";
  Alcotest.(check (list string))
    "all refs listed"
    [ "model"; "model/answers"; "model/b1"; "model/b1/0" ]
    (Store.refs s);
  Alcotest.(check string) "parent readable" "the model"
    (ok_exn (Store.read_blob s (ok_exn (Store.resolve s "model")).Store.address));
  Alcotest.(check string) "child readable" "part zero"
    (ok_exn
       (Store.read_blob s (ok_exn (Store.resolve s "model/b1/0")).Store.address))

let test_ref_name_validation () =
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  List.iter
    (fun bad ->
       Alcotest.(check bool)
         (Printf.sprintf "%S refused" bad)
         true
         (Astring.String.is_infix ~affix:"invalid ref name"
            (err_exn (Store.commit s ~ref_:bad ~meta:(meta Store.Model) "x"))))
    [ ""; "/abs"; "trail/"; "a//b"; "a/../b"; "."; "sp ace" ]

let test_gc () =
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  let keep = ok_exn (Store.commit s ~ref_:"keep" ~meta:(meta Store.Model) "live") in
  (* A blob reachable only through a parents edge must survive gc. *)
  let parent_only = ok_exn (Store.put_blob s "parent-only") in
  ignore
    (ok_exn
       (Store.commit s ~ref_:"child"
          ~meta:(meta ~parents:[ parent_only ] Store.Model)
          "child"));
  ignore (ok_exn (Store.put_blob s "orphan one"));
  ignore (ok_exn (Store.commit s ~ref_:"gone" ~meta:(meta Store.Model) "orphan two"));
  ok_exn (Store.delete_ref s "gone");
  let kept, deleted = ok_exn (Store.gc s) in
  Alcotest.(check int) "kept live + child + parent-only" 3 kept;
  Alcotest.(check int) "deleted both orphans" 2 deleted;
  Alcotest.(check bool) "live blob intact" true (Store.has_blob s keep.Store.address);
  Alcotest.(check bool) "parent-only blob intact" true
    (Store.has_blob s parent_only);
  Alcotest.(check bool) "orphan gone" false
    (Store.has_blob s (Store.address_of "orphan one"))

let ref_file s name =
  Filename.concat (Filename.concat (Store.root s) "refs") (name ^ ".ref")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

let write_file ?(flags = [ Open_wronly; Open_creat; Open_trunc; Open_binary ])
    path text =
  let oc = open_out_gen flags 0o644 path in
  output_string oc text;
  close_out oc

let append_file = write_file ~flags:[ Open_wronly; Open_append; Open_binary ]

(* A ledger that fails to load names blobs gc cannot list: gc must
   refuse, naming the ref, and delete nothing. A bad address and an
   unknown kind both make a ledger unloadable. *)
let test_gc_refuses_unloadable_ref () =
  List.iter
    (fun bad_line ->
       let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
       let keep =
         ok_exn (Store.commit s ~ref_:"keep" ~meta:(meta Store.Model) "live")
       in
       ignore (ok_exn (Store.put_blob s "orphan"));
       append_file (ref_file s "keep") bad_line;
       let m = err_exn (Store.gc s) in
       Alcotest.(check bool) (bad_line ^ ": error names the ref") true
         (Astring.String.is_infix ~affix:"keep" m);
       Alcotest.(check bool) "live blob kept" true
         (Store.has_blob s keep.Store.address);
       Alcotest.(check bool) "orphan kept too" true
         (Store.has_blob s (Store.address_of "orphan")))
    [ "gen 2 0123\n";
      Printf.sprintf "gen 2 %s kind=summary created=0\n"
        (Store.address_of "live") ]

(* A staging file belongs to a writer between its write and its
   rename: gc must leave it for the rename. *)
let test_gc_skips_staging () =
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  ignore (ok_exn (Store.commit s ~ref_:"keep" ~meta:(meta Store.Model) "live"));
  ignore (ok_exn (Store.put_blob s "orphan"));
  let dir = Filename.concat (Filename.concat (Store.root s) "objects") "ab" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let staged = Filename.concat dir (String.make 30 'c' ^ ".tmp") in
  write_file staged "a blob mid-commit";
  let kept, deleted = ok_exn (Store.gc s) in
  Alcotest.(check (pair int int)) "the staging file is not counted" (1, 1)
    (kept, deleted);
  Alcotest.(check string) "the staging file survives" "a blob mid-commit"
    (read_file staged)

(* A torn last line is a commit that never happened: the ref loads
   without it, gc runs, and the next commit cuts it off. *)
let test_torn_tail_ignored () =
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  let c blob = ok_exn (Store.commit s ~ref_:"keep" ~meta:(meta Store.Model) blob) in
  let e1 = c "one" in
  let e2 = c "two" in
  let clean = read_file (ref_file s "keep") in
  append_file (ref_file s "keep") "gen 3 0123";
  Alcotest.(check int) "torn generation absent" 2
    (List.length (ok_exn (Store.generations s "keep")));
  Alcotest.(check int) "resolve skips it" 2
    (ok_exn (Store.resolve s "keep")).Store.gen;
  ignore (ok_exn (Store.put_blob s "orphan"));
  let kept, deleted = ok_exn (Store.gc s) in
  Alcotest.(check (pair int int)) "gc keeps both, reaps the orphan" (2, 1)
    (kept, deleted);
  Alcotest.(check bool) "gens intact" true
    (Store.has_blob s e1.Store.address && Store.has_blob s e2.Store.address);
  let e3 = c "three" in
  Alcotest.(check int) "next commit is gen 3" 3 e3.Store.gen;
  let text = read_file (ref_file s "keep") in
  Alcotest.(check string) "fragment cut off" clean
    (String.sub text 0 (String.length clean));
  Alcotest.(check int) "three clean generations" 3
    (List.length (ok_exn (Store.generations s "keep")))

(* The ledger before commits became appends: header plus one line per
   generation, rewritten whole. Appending must give these bytes. *)
let old_ledger entries =
  let line (e : Store.entry) =
    let m = e.Store.meta in
    Printf.sprintf "gen %d %s kind=%s created=%d%s%s%s" e.Store.gen
      e.Store.address (Store.kind_to_string m.Store.kind) m.Store.created_at
      (match m.Store.bound with
       | Some b -> Printf.sprintf " bound=%d" b
       | None -> "")
      (match m.Store.parents with
       | [] -> ""
       | ps -> " parents=" ^ String.concat "," ps)
      (match m.Store.source with Some x -> " source=" ^ x | None -> "")
  in
  String.concat "\n" ("rtgen-ref v1" :: List.map line entries) ^ "\n"

let gen_meta : Store.meta QCheck.Gen.t =
  let open QCheck.Gen in
  let kind =
    oneofl Store.[ Model; Companion; Checkpoint; Answerset ]
  in
  (* Some lines outgrow the commit's first 256-byte tail read. *)
  let source =
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; ' '; '/'; '='; '.'; '-' ])
      (frequency [ (5, 0 -- 12); (1, 200 -- 400) ])
  in
  let parents =
    list_size (0 -- 3) (map (fun i -> Store.address_of (string_of_int i)) nat)
  in
  map
    (fun ((kind, bound), (source, parents, created_at)) ->
       { Store.kind; bound; source; parents; created_at })
    (pair (pair kind (opt (0 -- 300)))
       (triple (opt source) parents (0 -- 100_000)))

(* Tears are cut at both ends of the last line (just after the earlier
   lines, and just before the final newline) and at a sample of
   positions in between, given as fractions of the line in thousandths:
   a line can run to 400 bytes, and cutting at every byte made this the
   slowest case of the suite. *)
let qc_ledger =
  Test_support.qcheck_case
    "appended ledger = rewrite; a torn tail reads as absent" ~count:25
    QCheck.(
      make
        Gen.(
          pair
            (list_size (1 -- 3) (pair gen_meta (string_size (1 -- 8))))
            (list_size (0 -- 6) (0 -- 999))))
    (fun (commits, inner) ->
       let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
       let commit (m, blob) = ok_exn (Store.commit s ~ref_:"r/x" ~meta:m blob) in
       let entries = List.map commit commits in
       let path = ref_file s "r/x" in
       let full = read_file path in
       let earlier =
         List.filteri (fun i _ -> i < List.length entries - 1) entries
       in
       let before = old_ledger earlier in
       let last = List.nth commits (List.length commits - 1) in
       (* Cut anywhere from the end of the earlier lines up to just
          before the final newline. *)
       let torn_ok cut =
         write_file path (String.sub full 0 cut);
         let loaded = ok_exn (Store.generations s "r/x") in
         let e = commit last in
         loaded = earlier
         && e.Store.gen = List.length entries
         && read_file path = full
       in
       let lo = String.length before and hi = String.length full - 1 in
       full = old_ledger entries
       && List.for_all Fun.id (List.mapi (fun i e -> e.Store.gen = i + 1) entries)
       && List.for_all torn_ok
            ((lo :: List.map (fun k -> lo + ((hi - lo) * k / 1000)) inner) @ [ hi ]))

let test_split_address () =
  Alcotest.(check (option (pair string string)))
    "dir//ref@2"
    (Some ("/tmp/s", "model@2"))
    (Store.split_address "/tmp/s//model@2");
  Alcotest.(check (option (pair string string)))
    "first // splits"
    (Some ("dir", "a//b"))
    (Store.split_address "dir//a//b");
  Alcotest.(check (option (pair string string)))
    "plain path" None
    (Store.split_address "out/model.txt");
  Alcotest.(check (option (pair string string)))
    "empty dir rejected" None
    (Store.split_address "//ref")

(* --- slots ------------------------------------------------------------ *)

let test_slot_file () =
  let path = Filename.concat (tmpdir ()) "image.bin" in
  let slot = ok_exn (Slot.of_string path) in
  (match slot with
   | Slot.File p -> Alcotest.(check string) "file slot" path p
   | Slot.Ref _ -> Alcotest.fail "expected a file slot");
  Alcotest.(check bool) "absent before save" false (Slot.exists slot);
  Slot.save slot "v1";
  Slot.save slot "v2";
  Alcotest.(check bool) "exists" true (Slot.exists slot);
  Alcotest.(check string) "latest image" "v2" (ok_exn (Slot.load slot));
  Slot.discard slot;
  Alcotest.(check bool) "discarded" false (Slot.exists slot);
  Slot.discard slot (* idempotent *)

let test_slot_ref () =
  let root = Filename.concat (tmpdir ()) "s" in
  let slot = ok_exn (Slot.of_string (root ^ "//ckpt/main")) in
  Alcotest.(check string) "describe round-trips"
    (root ^ "//ckpt/main") (Slot.describe slot);
  Alcotest.(check bool) "absent before save" false (Slot.exists slot);
  Slot.save ~source:"stream-a" ~created_at:4 slot "v1";
  Slot.save ~source:"stream-a" ~created_at:8 slot "v2";
  Alcotest.(check string) "latest generation" "v2" (ok_exn (Slot.load slot));
  let s = ok_exn (Store.open_ root) in
  let gens = ok_exn (Store.generations s "ckpt/main") in
  Alcotest.(check int) "two generations" 2 (List.length gens);
  Alcotest.(check bool) "kind defaults to checkpoint" true
    (List.for_all
       (fun e -> e.Store.meta.Store.kind = Store.Checkpoint)
       gens);
  Slot.discard slot;
  Alcotest.(check bool) "ref deleted" false (Slot.exists slot);
  (* Blobs linger until gc — that is the documented contract. *)
  let _, deleted = ok_exn (Store.gc s) in
  Alcotest.(check int) "gc reaps the images" 2 deleted

(* --- codec round trips ------------------------------------------------ *)

let all_vals =
  [ Rt_lattice.Depval.Par; Fwd; Bwd; Bi; Fwd_maybe; Bwd_maybe; Bi_maybe ]

let gen_df n : Df.t QCheck.Gen.t =
 fun g ->
  let d = Df.create n in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then Df.set d a b (QCheck.Gen.oneofl all_vals g)
    done
  done;
  d

let arb_df n = QCheck.make ~print:Df.to_string (gen_df n)

let gen_violations n : bool array array QCheck.Gen.t =
 fun g ->
  Array.init n (fun a ->
      Array.init n (fun b -> a <> b && QCheck.Gen.bool g))

let names n = Array.init n (fun i -> Printf.sprintf "t%d" (i + 1))

let qc_model_roundtrip =
  Test_support.qcheck_case "model blob round trip" ~count:100 (arb_df 4)
    (fun d ->
       let blob = Codec.model_to_blob ~names:(names 4) d in
       Codec.kind_of_blob blob = Some Store.Model
       &&
       match Codec.model_of_blob blob with
       | Ok (d', ns) -> Df.equal d d' && ns = names 4
       | Error _ -> false)

let qc_companion_roundtrip =
  Test_support.qcheck_case "companion blob round trip" ~count:100
    QCheck.(
      make
        ~print:(fun (d, _) -> Df.to_string d)
        (Gen.pair (gen_df 4) (gen_violations 4)))
    (fun (summary, violations) ->
       let blob =
         Codec.companion_to_blob ~names:(names 4) ~summary ~violations ()
       in
       Codec.kind_of_blob blob = Some Store.Companion
       &&
       match Codec.companion_of_blob blob with
       | Ok (s', v', ns) ->
         Df.equal summary s' && v' = violations && ns = names 4
       | Error _ -> false)

let qc_answerset_roundtrip =
  Test_support.qcheck_case "answerset blob round trip" ~count:60
    QCheck.(list_of_size (Gen.int_range 0 5) (arb_df 3))
    (fun models ->
       let blob = Codec.answerset_to_blob ~names:(names 3) models in
       Codec.kind_of_blob blob = Some Store.Answerset
       &&
       match Codec.answerset_of_blob blob with
       | Ok decoded ->
         List.length decoded = List.length models
         && List.for_all2 (fun d (d', _) -> Df.equal d d') models decoded
       | Error _ -> false)

let qc_blob_determinism =
  Test_support.qcheck_case "same model, same address" ~count:60 (arb_df 4)
    (fun d ->
       Store.address_of (Codec.model_to_blob d)
       = Store.address_of (Codec.model_to_blob (Df.copy d)))

let test_kind_sniffing () =
  Alcotest.(check (option string)) "checkpoint magic" (Some "checkpoint")
    (Option.map Store.kind_to_string
       (Codec.kind_of_blob (Codec.checkpoint_to_blob "RTGENCKP v3 ...")));
  Alcotest.(check (option string)) "garbage" None
    (Option.map Store.kind_to_string (Codec.kind_of_blob "what is this"));
  Alcotest.(check (option string)) "lint summary is not a store kind" None
    (Option.map Store.kind_to_string
       (Codec.kind_of_blob "rtlint-summary v1\nfile lib/x.ml\n"))

let test_codec_rejects_foreign () =
  ignore (err_exn (Codec.model_of_blob "rtgen-companion v1\nnope"));
  ignore (err_exn (Codec.companion_of_blob "rtgen-model v1\nnope"));
  ignore (err_exn (Codec.answerset_of_blob "rtgen-model v1\nnope"));
  ignore
    (err_exn
       (Codec.companion_of_blob "rtgen-companion v1\nviolations 2\n01\n0\n%%\n"))

(* --- the fold over store-decoded companions --------------------------- *)

(* Algebraic shape of the exchange law at the fold level: folding the
   parts one by one equals folding their pre-joined summary with the
   union violation matrix. *)
let qc_fold_exchange =
  Test_support.qcheck_case "fold parts = fold of pre-joined part" ~count:100
    QCheck.(
      list_of_size
        (Gen.int_range 1 4)
        (make
           ~print:(fun (d, _) -> Df.to_string d)
           (Gen.pair (gen_df 3) (gen_violations 3))))
    (fun parts ->
       let arr =
         Array.of_list (List.map (fun (s, v) -> (Some s, v)) parts)
       in
       let joined =
         Df.lub_many (Array.of_list (List.map fst parts))
       in
       let union =
         Array.init 3 (fun a ->
             Array.init 3 (fun b ->
                 List.exists (fun (_, v) -> v.(a).(b)) parts))
       in
       match
         (S.fold_summaries arr, S.fold_summaries [| (Some joined, union) |])
       with
       | Some a, Some b -> Df.equal a b
       | None, None -> true
       | _ -> false)

let test_fold_inconsistent_part () =
  Alcotest.(check bool) "any None part poisons the fold" true
    (S.fold_summaries
       [| (Some (Df.create 2), Array.make_matrix 2 2 false);
          (None, Array.make_matrix 2 2 false) |]
     = None)

(* End-to-end interchange: engines over a partition, each serialized to
   a companion blob committed to a store, decoded back and folded —
   byte-equal to the monolithic bound-1 model. This is the property
   `rtgen merge` rides on. *)
let test_store_interchange_fold () =
  let trace =
    Test_support.simulate ~periods:12 ~seed:7 (Test_support.small_design 7)
  in
  let ntasks = Trace.task_count trace in
  let mono = Engine.create ~ntasks (Engine.Heuristic { bound = 1 }) in
  List.iter (Engine.feed mono) (Trace.periods trace);
  let expected = S.fold_engines [| mono |] in
  let k = 3 in
  let engines =
    Array.init k (fun _ ->
        Engine.create ~ntasks (Engine.Heuristic { bound = 1 }))
  in
  List.iteri
    (fun i p -> Engine.feed engines.(i mod k) p)
    (Trace.periods trace);
  let s = ok_exn (Store.init (Filename.concat (tmpdir ()) "s")) in
  (* Producer side: one companion blob per engine, committed under the
     sub-namespace `rtgen learn --store` uses. *)
  Array.iteri
    (fun i e ->
       let summary = Option.get (Rt_shard.Session.Pair.summary_of e) in
       let violations = Option.get (Engine.violations e) in
       let blob = Codec.companion_to_blob ~summary ~violations () in
       ignore
         (ok_exn
            (Store.commit s
               ~ref_:(Printf.sprintf "model/b1/%d" i)
               ~meta:
                 (meta ~bound:1 ~created_at:(Engine.periods_fed e)
                    Store.Companion)
               blob)))
    engines;
  (* Consumer side: decode every companion ref and fold. *)
  let parts =
    Store.refs s
    |> List.map (fun name ->
        let e = ok_exn (Store.resolve s name) in
        let blob = ok_exn (Store.read_blob s e.Store.address) in
        let summary, violations, _ = ok_exn (Codec.companion_of_blob blob) in
        (Some summary, violations))
    |> Array.of_list
  in
  Alcotest.(check int) "all parts decoded" k (Array.length parts);
  match (expected, S.fold_summaries parts) with
  | Some want, Some got ->
    Alcotest.(check string)
      "store-decoded fold byte-equal to monolithic"
      (Df.to_string want) (Df.to_string got)
  | _ -> Alcotest.fail "unexpected inconsistency"

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "init and open" `Quick test_init_open;
          Alcotest.test_case "blob round trip" `Quick test_blob_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_blob_corruption_detected;
          Alcotest.test_case "commit, generations, resolve" `Quick
            test_commit_generations_resolve;
          Alcotest.test_case "ref sub-namespace coexists" `Quick
            test_ref_subnamespace_coexists;
          Alcotest.test_case "ref name validation" `Quick
            test_ref_name_validation;
          Alcotest.test_case "gc keeps the reachable" `Quick test_gc;
          Alcotest.test_case "gc refuses an unloadable ref" `Quick
            test_gc_refuses_unloadable_ref;
          Alcotest.test_case "gc skips staging files" `Quick
            test_gc_skips_staging;
          Alcotest.test_case "torn ledger tail ignored" `Quick
            test_torn_tail_ignored;
          qc_ledger;
          Alcotest.test_case "split_address" `Quick test_split_address;
        ] );
      ( "slot",
        [
          Alcotest.test_case "file slot" `Quick test_slot_file;
          Alcotest.test_case "store ref slot" `Quick test_slot_ref;
        ] );
      ( "codec",
        [
          qc_model_roundtrip;
          qc_companion_roundtrip;
          qc_answerset_roundtrip;
          qc_blob_determinism;
          Alcotest.test_case "kind sniffing" `Quick test_kind_sniffing;
          Alcotest.test_case "foreign blobs rejected" `Quick
            test_codec_rejects_foreign;
        ] );
      ( "interchange",
        [
          qc_fold_exchange;
          Alcotest.test_case "inconsistent part poisons fold" `Quick
            test_fold_inconsistent_part;
          Alcotest.test_case "store-decoded fold = monolithic" `Quick
            test_store_interchange_fold;
        ] );
    ]
