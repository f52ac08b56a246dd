open Test_support

let all = Dv.all

let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) all) all

let triples =
  List.concat_map (fun a ->
      List.concat_map (fun b -> List.map (fun c -> (a, b, c)) all) all)
    all

(* --- Depval: the Figure 3 lattice --- *)

let test_all_distinct () =
  Alcotest.(check int) "7 values" 7 (List.length all);
  Alcotest.(check int) "all distinct" 7
    (List.length (List.sort_uniq Dv.compare all))

let test_distance_levels () =
  Alcotest.(check int) "par" 0 (Dv.distance p);
  Alcotest.(check int) "fwd" 1 (Dv.distance f);
  Alcotest.(check int) "bwd" 1 (Dv.distance b);
  Alcotest.(check int) "bi" 4 (Dv.distance bi);
  Alcotest.(check int) "fwd?" 4 (Dv.distance fq);
  Alcotest.(check int) "bwd?" 4 (Dv.distance bq);
  Alcotest.(check int) "bi?" 9 (Dv.distance biq)

let test_bottom_top () =
  List.iter (fun v ->
      Alcotest.(check bool) "par below all" true (Dv.leq p v);
      Alcotest.(check bool) "bi? above all" true (Dv.leq v biq))
    all

let test_leq_reflexive () =
  List.iter (fun v -> Alcotest.(check bool) "v <= v" true (Dv.leq v v)) all

let test_leq_antisymmetric () =
  List.iter (fun (a, b) ->
      if Dv.leq a b && Dv.leq b a then
        Alcotest.(check depval) "a = b" a b)
    pairs

let test_leq_transitive () =
  List.iter (fun (a, b, c) ->
      if Dv.leq a b && Dv.leq b c then
        Alcotest.(check bool) "a <= c" true (Dv.leq a c))
    triples

let test_hasse_edges () =
  (* The exact cover relation of Figure 3. *)
  let expected =
    [ (p, [ f; b ]); (f, [ fq; bi ]); (b, [ bq; bi ]);
      (bi, [ biq ]); (fq, [ biq ]); (bq, [ biq ]); (biq, []) ]
  in
  List.iter (fun (v, cs) ->
      Alcotest.(check (slist depval Dv.compare)) "covers" cs (Dv.covers v))
    expected

let test_covers_are_minimal_strict_successors () =
  List.iter (fun v ->
      List.iter (fun c ->
          Alcotest.(check bool) "strictly above" true (Dv.lt v c);
          (* No value strictly between v and c. *)
          List.iter (fun w ->
              if Dv.lt v w && Dv.lt w c then
                Alcotest.failf "found %a between %a and %a" Dv.pp w Dv.pp v
                  Dv.pp c)
            all)
        (Dv.covers v))
    all

let test_join_commutative () =
  List.iter (fun (a, b) ->
      Alcotest.(check depval) "join comm" (Dv.join a b) (Dv.join b a))
    pairs

let test_join_idempotent () =
  List.iter (fun v -> Alcotest.(check depval) "join idem" v (Dv.join v v)) all

let test_join_associative () =
  List.iter (fun (a, b, c) ->
      Alcotest.(check depval) "join assoc"
        (Dv.join a (Dv.join b c))
        (Dv.join (Dv.join a b) c))
    triples

let test_join_is_lub () =
  List.iter (fun (a, b) ->
      let j = Dv.join a b in
      Alcotest.(check bool) "a <= j" true (Dv.leq a j);
      Alcotest.(check bool) "b <= j" true (Dv.leq b j);
      List.iter (fun c ->
          if Dv.leq a c && Dv.leq b c then
            Alcotest.(check bool) "j <= any ub" true (Dv.leq j c))
        all)
    pairs

let test_meet_commutative () =
  List.iter (fun (a, b) ->
      Alcotest.(check depval) "meet comm" (Dv.meet a b) (Dv.meet b a))
    pairs

let test_meet_is_glb () =
  List.iter (fun (a, b) ->
      let m = Dv.meet a b in
      Alcotest.(check bool) "m <= a" true (Dv.leq m a);
      Alcotest.(check bool) "m <= b" true (Dv.leq m b);
      List.iter (fun c ->
          if Dv.leq c a && Dv.leq c b then
            Alcotest.(check bool) "any lb <= m" true (Dv.leq c m))
        all)
    pairs

let test_absorption () =
  List.iter (fun (a, b) ->
      Alcotest.(check depval) "a ⊔ (a ⊓ b) = a" a (Dv.join a (Dv.meet a b));
      Alcotest.(check depval) "a ⊓ (a ⊔ b) = a" a (Dv.meet a (Dv.join a b)))
    pairs

let test_specific_joins () =
  Alcotest.(check depval) "fwd ⊔ bwd = bi" bi (Dv.join f b);
  Alcotest.(check depval) "fwd ⊔ bwd? = bi?" biq (Dv.join f bq);
  Alcotest.(check depval) "fwd? ⊔ bwd? = bi?" biq (Dv.join fq bq);
  Alcotest.(check depval) "fwd? ⊔ bi = bi?" biq (Dv.join fq bi);
  Alcotest.(check depval) "fwd ⊔ fwd? = fwd?" fq (Dv.join f fq)

let test_distance_monotone () =
  List.iter (fun (a, b) ->
      if Dv.lt a b then
        Alcotest.(check bool) "distance strictly grows" true
          (Dv.distance a < Dv.distance b))
    pairs

let test_flip_involution () =
  List.iter (fun v -> Alcotest.(check depval) "flip flip" v (Dv.flip (Dv.flip v))) all

let test_flip_order_automorphism () =
  List.iter (fun (a, b) ->
      Alcotest.(check bool) "flip preserves leq" (Dv.leq a b)
        (Dv.leq (Dv.flip a) (Dv.flip b)))
    pairs

let test_flip_values () =
  Alcotest.(check depval) "fwd -> bwd" b (Dv.flip f);
  Alcotest.(check depval) "fwd? -> bwd?" bq (Dv.flip fq);
  Alcotest.(check depval) "par fixed" p (Dv.flip p);
  Alcotest.(check depval) "bi fixed" bi (Dv.flip bi)

let test_weaken () =
  Alcotest.(check depval) "fwd" fq (Dv.weaken f);
  Alcotest.(check depval) "bwd" bq (Dv.weaken b);
  Alcotest.(check depval) "bi" biq (Dv.weaken bi);
  List.iter (fun v ->
      if not (Dv.is_definite v) then
        Alcotest.(check depval) "identity on non-definite" v (Dv.weaken v))
    all

let test_weaken_is_minimal_matching_generalization () =
  (* weaken v must be a cover of v for definite v. *)
  List.iter (fun v ->
      if Dv.is_definite v then
        Alcotest.(check bool) "weaken is a cover" true
          (List.exists (Dv.equal (Dv.weaken v)) (Dv.covers v)))
    all

let test_is_definite () =
  Alcotest.(check (list bool)) "definite set"
    [ false; true; true; true; false; false; false ]
    (List.map Dv.is_definite all)

let test_string_round_trip () =
  List.iter (fun v ->
      Alcotest.(check (option depval)) "round trip" (Some v)
        (Dv.of_string (Dv.to_string v)))
    all;
  Alcotest.(check (option depval)) "garbage" None (Dv.of_string "?!")

let test_compare_total_order_compatible () =
  List.iter (fun (a, b) ->
      if Dv.lt a b then
        Alcotest.(check bool) "compare respects leq" true (Dv.compare a b < 0))
    pairs

(* --- Depfun --- *)

let test_df_create_bottom () =
  let d = Df.create 3 in
  Df.iter_pairs (fun _ _ v -> Alcotest.(check depval) "par" p v) d;
  Alcotest.(check int) "weight 0" 0 (Df.weight d)

let test_df_top () =
  let d = Df.top 3 in
  Df.iter_pairs (fun _ _ v -> Alcotest.(check depval) "bi?" biq v) d;
  Alcotest.(check int) "weight 6*9" 54 (Df.weight d);
  Alcotest.(check depval) "diagonal par" p (Df.get d 1 1)

let test_df_create_invalid () =
  Alcotest.check_raises "0 tasks"
    (Invalid_argument "Depfun.create: need at least one task")
    (fun () -> ignore (Df.create 0))

let test_df_set_get () =
  let d = Df.create 3 in
  Df.set d 0 1 f;
  Df.set d 1 0 b;
  Alcotest.(check depval) "get 0 1" f (Df.get d 0 1);
  Alcotest.(check depval) "get 1 0" b (Df.get d 1 0);
  Alcotest.(check depval) "untouched" p (Df.get d 0 2);
  Alcotest.(check int) "weight" 2 (Df.weight d)

let test_df_diagonal_protected () =
  let d = Df.create 3 in
  Alcotest.check_raises "diag set"
    (Invalid_argument "Depfun.set: diagonal must stay Par")
    (fun () -> Df.set d 1 1 f)

let test_df_out_of_range () =
  let d = Df.create 3 in
  Alcotest.check_raises "bad index"
    (Invalid_argument "Depfun: task index out of range")
    (fun () -> ignore (Df.get d 0 3))

let test_df_join_cell () =
  let d = Df.create 2 in
  Alcotest.(check bool) "changes" true (Df.join_cell d 0 1 f);
  Alcotest.(check bool) "idempotent" false (Df.join_cell d 0 1 f);
  Alcotest.(check bool) "par no-op" false (Df.join_cell d 0 1 p);
  Alcotest.(check bool) "upgrade" true (Df.join_cell d 0 1 b);
  Alcotest.(check depval) "now bi" bi (Df.get d 0 1)

let test_df_copy_isolated () =
  let d = Df.create 2 in
  let d' = Df.copy d in
  Df.set d 0 1 f;
  Alcotest.(check depval) "copy untouched" p (Df.get d' 0 1)

let test_df_equal_compare () =
  let d1 = df [ [ p; f ]; [ b; p ] ] in
  let d2 = df [ [ p; f ]; [ b; p ] ] in
  let d3 = df [ [ p; fq ]; [ b; p ] ] in
  Alcotest.(check bool) "equal" true (Df.equal d1 d2);
  Alcotest.(check int) "compare eq" 0 (Df.compare d1 d2);
  Alcotest.(check bool) "not equal" false (Df.equal d1 d3);
  Alcotest.(check bool) "compare consistent" true
    (Df.compare d1 d3 = -Df.compare d3 d1)

let test_df_leq_pointwise () =
  let d1 = df [ [ p; f ]; [ p; p ] ] in
  let d2 = df [ [ p; fq ]; [ b; p ] ] in
  Alcotest.(check bool) "d1 <= d2" true (Df.leq d1 d2);
  Alcotest.(check bool) "d2 </= d1" false (Df.leq d2 d1);
  Alcotest.(check bool) "bottom below" true (Df.leq (Df.create 2) d2);
  Alcotest.(check bool) "below top" true (Df.leq d2 (Df.top 2))

let test_df_join_meet () =
  let d1 = df [ [ p; f ]; [ p; p ] ] in
  let d2 = df [ [ p; b ]; [ f; p ] ] in
  let j = Df.join d1 d2 in
  Alcotest.(check depval) "join cell" bi (Df.get j 0 1);
  Alcotest.(check depval) "join cell 2" f (Df.get j 1 0);
  let m = Df.meet d1 d2 in
  Alcotest.(check depval) "meet cell" p (Df.get m 0 1)

let test_df_size_mismatch () =
  Alcotest.check_raises "join mismatch"
    (Invalid_argument "Depfun.join: size mismatch")
    (fun () -> ignore (Df.join (Df.create 2) (Df.create 3)))

let test_df_lub () =
  let d1 = df [ [ p; f ]; [ p; p ] ] in
  let d2 = df [ [ p; p ]; [ f; p ] ] in
  let l = Df.lub [ d1; d2 ] in
  Alcotest.(check depval) "cell 01" f (Df.get l 0 1);
  Alcotest.(check depval) "cell 10" f (Df.get l 1 0);
  Alcotest.check_raises "empty lub"
    (Invalid_argument "Depfun.lub: empty list")
    (fun () -> ignore (Df.lub []))

let test_df_lub_does_not_mutate () =
  let d1 = df [ [ p; f ]; [ p; p ] ] in
  let d2 = df [ [ p; p ]; [ f; p ] ] in
  ignore (Df.lub [ d1; d2 ]);
  Alcotest.(check depval) "d1 unchanged" p (Df.get d1 1 0)

let test_df_rows_round_trip () =
  let rows = [ [ p; f; fq ]; [ b; p; biq ]; [ bq; bi; p ] ] in
  let d = df rows in
  Alcotest.(check bool) "round trip" true (Df.to_rows d = rows)

let test_df_of_rows_invalid () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Depfun.of_rows: not square")
    (fun () -> ignore (Df.of_rows [ [ p; f ]; [ b ] ]));
  Alcotest.check_raises "bad diagonal"
    (Invalid_argument "Depfun.of_rows: diagonal must be Par")
    (fun () -> ignore (Df.of_rows [ [ f; f ]; [ b; p ] ]))

let test_df_count () =
  let d = df [ [ p; f; fq ]; [ b; p; p ]; [ p; p; p ] ] in
  Alcotest.(check int) "definite cells" 2 (Df.count Dv.is_definite d)

let test_df_weight_equals_sum () =
  let d = df [ [ p; f; fq ]; [ b; p; biq ]; [ bq; bi; p ] ] in
  Alcotest.(check int) "weight" (1 + 4 + 1 + 9 + 4 + 4) (Df.weight d)

let test_df_parse_round_trip () =
  let d = df [ [ p; f; fq ]; [ b; p; biq ]; [ bq; bi; p ] ] in
  (match Df.parse (Df.to_string d) with
   | Ok (d', names) ->
     Alcotest.(check depfun) "matrix" d d';
     Alcotest.(check (array string)) "names" [| "t1"; "t2"; "t3" |] names
   | Error m -> Alcotest.fail m);
  let s = Df.to_string ~names:[| "A"; "B"; "C" |] d in
  (match Df.parse s with
   | Ok (d', names) ->
     Alcotest.(check depfun) "named matrix" d d';
     Alcotest.(check (array string)) "custom names" [| "A"; "B"; "C" |] names
   | Error m -> Alcotest.fail m)

let test_df_parse_errors () =
  let bad s =
    match Df.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "t1 t2\nt1 || ->";        (* missing row *)
  bad "t1 t2\nt1 || ->\nt2 <-"; (* short row *)
  bad "t1 t2\nt1 || xx\nt2 <- ||";  (* bad value *)
  bad "t1 t2\nzz || ->\nt2 <- ||"   (* unknown row label *)

let test_df_pp_names () =
  let d = df [ [ p; f ]; [ b; p ] ] in
  let s = Df.to_string ~names:[| "A"; "B" |] d in
  Alcotest.(check bool) "mentions names" true
    (String.length s > 0
     && String.index_opt s 'A' <> None
     && String.index_opt s 'B' <> None)

(* qcheck: random matrices keep lattice laws pointwise *)
let arb_depval = QCheck.oneofl all

let gen_df n : Df.t QCheck.Gen.t =
 fun g ->
  let d = Df.create n in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then Df.set d a b (QCheck.Gen.oneofl all g)
    done
  done;
  d

let arb_df n = QCheck.make ~print:(fun d -> Df.to_string d) (gen_df n)

let df_join_upper_bound =
  Test_support.qcheck_case "depfun join dominates" ~count:200
    (QCheck.pair (arb_df 4) (arb_df 4))
    (fun (d1, d2) ->
       let j = Df.join d1 d2 in
       Df.leq d1 j && Df.leq d2 j)

let df_leq_partial_order =
  Test_support.qcheck_case "depfun leq antisymmetric" ~count:200
    (QCheck.pair (arb_df 3) (arb_df 3))
    (fun (d1, d2) -> (not (Df.leq d1 d2 && Df.leq d2 d1)) || Df.equal d1 d2)

let df_weight_monotone =
  Test_support.qcheck_case "weight monotone along join" ~count:200
    (QCheck.pair (arb_df 4) (arb_df 4))
    (fun (d1, d2) -> Df.weight (Df.join d1 d2) >= max (Df.weight d1) (Df.weight d2))

let df_parse_round_trip_random =
  Test_support.qcheck_case "depfun text round trip" ~count:100 (arb_df 4)
    (fun d ->
       match Df.parse (Df.to_string d) with
       | Ok (d', _) -> Df.equal d d'
       | Error _ -> false)

(* The [Format] renderer [Depfun.to_string] replaced, kept as the
   reference: [to_string] must print the same bytes, and [pp] the same
   text inside any box, for every matrix and every set of names. *)
let format_pp ?names ppf d =
  let n = Df.size d in
  let names =
    match names with
    | Some a -> a
    | None -> Array.init n (fun i -> Printf.sprintf "t%d" (i + 1))
  in
  let name i =
    if i < Array.length names then names.(i) else Printf.sprintf "t%d" i
  in
  let cell a b = Dv.to_string (Df.get d a b) in
  let width = ref 0 in
  for a = 0 to n - 1 do
    width := max !width (String.length (name a));
    for b = 0 to n - 1 do
      width := max !width (String.length (cell a b))
    done
  done;
  let pad s = s ^ String.make (!width - String.length s) ' ' in
  Format.fprintf ppf "%s" (pad "");
  for b = 0 to n - 1 do
    Format.fprintf ppf " %s" (pad (name b))
  done;
  for a = 0 to n - 1 do
    Format.fprintf ppf "@\n%s" (pad (name a));
    for b = 0 to n - 1 do
      Format.fprintf ppf " %s" (pad (cell a b))
    done
  done

(* Up to 12 tasks; names absent, short or long (1-9 characters, so the
   widest can be a name or a cell), and sometimes fewer than the tasks. *)
let arb_named_df =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      gen_df n >>= fun d ->
      opt
        (int_range 0 (n + 1) >>= fun k ->
         array_size (return k)
           (string_size ~gen:(char_range 'A' 'Z') (int_range 1 9)))
      >|= fun names -> (d, names))
  in
  QCheck.make gen ~print:(fun (d, names) ->
      Format.asprintf "%a" (format_pp ?names) d)

let df_to_string_is_format_rendering =
  Test_support.qcheck_case "to_string and pp = Format rendering" ~count:200
    arb_named_df
    (fun (d, names) ->
       let old = Format.asprintf "%a" (format_pp ?names) d in
       let boxed pp = Format.asprintf "@[<v 3>>>@,%a@]" pp d in
       String.equal (Df.to_string ?names d) old
       && String.equal (Format.asprintf "%a" (Df.pp ?names) d) old
       && String.equal (boxed (Df.pp ?names)) (boxed (format_pp ?names)))

let depval_join_monotone =
  Test_support.qcheck_case "depval join monotone" ~count:200
    (QCheck.triple arb_depval arb_depval arb_depval)
    (fun (a, b, c) -> if Dv.leq a b then Dv.leq (Dv.join a c) (Dv.join b c) else true)

let () =
  Alcotest.run "rt_lattice"
    [
      ( "depval",
        [
          Alcotest.test_case "seven distinct values" `Quick test_all_distinct;
          Alcotest.test_case "distance levels" `Quick test_distance_levels;
          Alcotest.test_case "bottom and top" `Quick test_bottom_top;
          Alcotest.test_case "leq reflexive" `Quick test_leq_reflexive;
          Alcotest.test_case "leq antisymmetric" `Quick test_leq_antisymmetric;
          Alcotest.test_case "leq transitive" `Quick test_leq_transitive;
          Alcotest.test_case "hasse diagram" `Quick test_hasse_edges;
          Alcotest.test_case "covers minimal" `Quick
            test_covers_are_minimal_strict_successors;
          Alcotest.test_case "join commutative" `Quick test_join_commutative;
          Alcotest.test_case "join idempotent" `Quick test_join_idempotent;
          Alcotest.test_case "join associative" `Quick test_join_associative;
          Alcotest.test_case "join is LUB" `Quick test_join_is_lub;
          Alcotest.test_case "meet commutative" `Quick test_meet_commutative;
          Alcotest.test_case "meet is GLB" `Quick test_meet_is_glb;
          Alcotest.test_case "absorption laws" `Quick test_absorption;
          Alcotest.test_case "paper joins" `Quick test_specific_joins;
          Alcotest.test_case "distance monotone" `Quick test_distance_monotone;
          Alcotest.test_case "flip involution" `Quick test_flip_involution;
          Alcotest.test_case "flip automorphism" `Quick
            test_flip_order_automorphism;
          Alcotest.test_case "flip values" `Quick test_flip_values;
          Alcotest.test_case "weaken values" `Quick test_weaken;
          Alcotest.test_case "weaken minimal" `Quick
            test_weaken_is_minimal_matching_generalization;
          Alcotest.test_case "definite set" `Quick test_is_definite;
          Alcotest.test_case "string round trip" `Quick test_string_round_trip;
          Alcotest.test_case "compare compatible" `Quick
            test_compare_total_order_compatible;
          depval_join_monotone;
        ] );
      ( "depfun",
        [
          Alcotest.test_case "bottom" `Quick test_df_create_bottom;
          Alcotest.test_case "top" `Quick test_df_top;
          Alcotest.test_case "invalid size" `Quick test_df_create_invalid;
          Alcotest.test_case "set/get" `Quick test_df_set_get;
          Alcotest.test_case "diagonal protected" `Quick
            test_df_diagonal_protected;
          Alcotest.test_case "index range" `Quick test_df_out_of_range;
          Alcotest.test_case "join_cell" `Quick test_df_join_cell;
          Alcotest.test_case "copy isolated" `Quick test_df_copy_isolated;
          Alcotest.test_case "equal/compare" `Quick test_df_equal_compare;
          Alcotest.test_case "leq pointwise" `Quick test_df_leq_pointwise;
          Alcotest.test_case "join/meet" `Quick test_df_join_meet;
          Alcotest.test_case "size mismatch" `Quick test_df_size_mismatch;
          Alcotest.test_case "lub" `Quick test_df_lub;
          Alcotest.test_case "lub pure" `Quick test_df_lub_does_not_mutate;
          Alcotest.test_case "rows round trip" `Quick test_df_rows_round_trip;
          Alcotest.test_case "of_rows invalid" `Quick test_df_of_rows_invalid;
          Alcotest.test_case "count" `Quick test_df_count;
          Alcotest.test_case "weight sum" `Quick test_df_weight_equals_sum;
          Alcotest.test_case "pp names" `Quick test_df_pp_names;
          Alcotest.test_case "parse round trip" `Quick test_df_parse_round_trip;
          Alcotest.test_case "parse errors" `Quick test_df_parse_errors;
          df_parse_round_trip_random;
          df_to_string_is_format_rendering;
          df_join_upper_bound;
          df_leq_partial_order;
          df_weight_monotone;
        ] );
    ]
