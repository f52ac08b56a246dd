(* Semantic static analysis of learned artifacts: saved models
   (Depfun matrix text), answer sets, and heuristic checkpoints are
   audited against the laws they must obey by construction — lattice
   algebra, schedulability of definite precedences, post-processing
   hygiene — independently of the learner that produced them. *)

module Dv = Rt_lattice.Depval
module Df = Rt_lattice.Depfun

let err = Finding.Error
let warn = Finding.Warning

let finding ?pos rule severity fmt =
  Printf.ksprintf (fun m -> Finding.v ?pos ~rule ~severity m) fmt

(* --- lattice law self-checks (RTC0xx) --- *)

(* The 7x7 tables are tiny, so the laws are checked exhaustively; this
   is the independent audit of the tabulated kernels the hot loops
   trust blindly. *)
let check_laws () =
  let acc = ref [] in
  let fail rule fmt =
    Printf.ksprintf (fun m -> acc := finding rule err "%s" m :: !acc) fmt
  in
  let vs = Dv.all in
  let s = Dv.to_string in
  List.iter (fun a ->
      if not (Dv.equal (Dv.join a a) a) then
        fail "RTC001" "%s %s %s <> %s" (s a) "\xe2\x8a\x94" (s a) (s a);
      if not (Dv.equal (Dv.meet a a) a) then
        fail "RTC001" "%s %s %s <> %s" (s a) "\xe2\x8a\x93" (s a) (s a);
      if not (Dv.leq a a) then fail "RTC005" "%s not \xe2\x8a\x91 itself" (s a);
      if Dv.of_index (Dv.index a) <> a then
        fail "RTC005" "of_index (index %s) <> %s" (s a) (s a))
    vs;
  List.iter (fun a ->
      List.iter (fun b ->
          if not (Dv.equal (Dv.join a b) (Dv.join b a)) then
            fail "RTC002" "join %s %s <> join %s %s" (s a) (s b) (s b) (s a);
          if not (Dv.equal (Dv.meet a b) (Dv.meet b a)) then
            fail "RTC002" "meet %s %s <> meet %s %s" (s a) (s b) (s b) (s a);
          if not (Dv.equal (Dv.join a (Dv.meet a b)) a) then
            fail "RTC003" "%s \xe2\x8a\x94 (%s \xe2\x8a\x93 %s) <> %s"
              (s a) (s a) (s b) (s a);
          if not (Dv.equal (Dv.meet a (Dv.join a b)) a) then
            fail "RTC003" "%s \xe2\x8a\x93 (%s \xe2\x8a\x94 %s) <> %s"
              (s a) (s a) (s b) (s a);
          if Dv.leq a b && Dv.leq b a && not (Dv.equal a b) then
            fail "RTC005" "\xe2\x8a\x91 not antisymmetric on %s, %s" (s a) (s b);
          (* leq, join and meet must tell the same story. *)
          if Dv.leq a b <> Dv.equal (Dv.join a b) b then
            fail "RTC005" "leq/join disagree on %s, %s" (s a) (s b);
          if Dv.leq a b <> Dv.equal (Dv.meet a b) a then
            fail "RTC005" "leq/meet disagree on %s, %s" (s a) (s b);
          (* join really is the least upper bound. *)
          if not (Dv.leq a (Dv.join a b) && Dv.leq b (Dv.join a b)) then
            fail "RTC005" "join %s %s below an argument" (s a) (s b);
          List.iter (fun c ->
              if Dv.leq a c && Dv.leq b c && not (Dv.leq (Dv.join a b) c)
              then
                fail "RTC005" "join %s %s not least below %s" (s a) (s b)
                  (s c);
              if Dv.leq a b && Dv.leq b c && not (Dv.leq a c) then
                fail "RTC005" "\xe2\x8a\x91 not transitive via %s" (s b);
              if Dv.leq a b
                 && not (Dv.leq (Dv.join a c) (Dv.join b c)) then
                fail "RTC004" "join not monotone: %s \xe2\x8a\x91 %s but \
                               join with %s breaks it" (s a) (s b) (s c))
            vs;
          (* The pure-index kernel tables must agree with the
             functions they tabulate. *)
          let ia = Dv.index a and ib = Dv.index b in
          if Dv.join_ix_tbl.((ia * 7) + ib)
             <> Dv.index (Dv.join a b) then
            fail "RTC005" "join_ix_tbl wrong at %s, %s" (s a) (s b);
          if Dv.leq_ix_tbl.((ia * 7) + ib) <> Dv.leq a b then
            fail "RTC005" "leq_ix_tbl wrong at %s, %s" (s a) (s b);
          if Dv.cmp_ix_tbl.((ia * 7) + ib) <> Dv.compare a b then
            fail "RTC005" "cmp_ix_tbl wrong at %s, %s" (s a) (s b))
        vs;
      if Dv.dist_ix_tbl.(Dv.index a) <> Dv.distance a then
        fail "RTC005" "dist_ix_tbl wrong at %s" (s a);
      (* Generalization steps move strictly up the lattice. *)
      if not (Dv.leq a (Dv.weaken a)) then
        fail "RTC004" "weaken %s not above %s" (s a) (s a);
      List.iter (fun c ->
          if not (Dv.lt a c) then
            fail "RTC004" "covers %s contains non-successor %s" (s a) (s c))
        (Dv.covers a))
    vs;
  List.rev !acc

(* --- lenient model reader --- *)

(* [Depfun.parse] refuses matrices that break its own invariants (the
   whole point of the checker is to look at those), so models are read
   into a raw cell matrix first, with per-row source lines for
   positioned findings. *)
type model = {
  source : string;
  names : string array;
  cells : Dv.t array array;
  row_lines : int array;  (** 1-based source line of each matrix row *)
}

let model_of_depfun ?(source = "<model>") ?names d =
  let n = Df.size d in
  let names =
    match names with
    | Some a -> a
    | None -> Array.init n (fun i -> Printf.sprintf "t%d" (i + 1))
  in
  {
    source;
    names;
    cells = Array.init n (fun a -> Array.init n (fun b -> Df.get d a b));
    row_lines = Array.make n 0;
  }

let parse_model ~source text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let fields l =
    String.split_on_char ' ' l |> List.filter (fun f -> f <> "")
  in
  match lines with
  | [] -> Error "empty model file"
  | (_, header) :: rows ->
    let names = Array.of_list (fields header) in
    let n = Array.length names in
    if n = 0 then Error "no task names in header"
    else if List.length rows <> n then
      Error
        (Printf.sprintf "expected %d matrix rows, got %d" n
           (List.length rows))
    else begin
      let cells = Array.make_matrix n n Dv.Par in
      let row_lines = Array.make n 0 in
      let exception Fail of string in
      try
        List.iteri (fun a (line, row) ->
            row_lines.(a) <- line;
            match fields row with
            | [] -> raise (Fail "empty matrix row")
            | label :: cs ->
              if not (Array.exists (String.equal label) names) then
                raise
                  (Fail
                     (Printf.sprintf "line %d: unknown row label %s" line
                        label));
              if List.length cs <> n then
                raise
                  (Fail
                     (Printf.sprintf "line %d: expected %d cells, got %d"
                        line n (List.length cs)));
              List.iteri (fun b c ->
                  match Dv.of_string c with
                  | Some v -> cells.(a).(b) <- v
                  | None ->
                    raise
                      (Fail
                         (Printf.sprintf "line %d: bad dependency value %s"
                            line c)))
                cs)
          rows;
        Ok { source; names; cells; row_lines }
      with Fail m -> Error m
    end

let load_model path =
  match Rt_util.Atomic_file.read path with
  | exception Sys_error m -> Error m
  | text -> parse_model ~source:path text

let size m = Array.length m.names

let to_depfun m =
  let n = size m in
  let ok = ref true in
  for a = 0 to n - 1 do
    if not (Dv.equal m.cells.(a).(a) Dv.Par) then ok := false
  done;
  if not !ok then None
  else begin
    let d = Df.create n in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b then Df.set d a b m.cells.(a).(b)
      done
    done;
    Some d
  end

(* --- per-model rules (RTC1xx) --- *)

let pos_of m a =
  if m.row_lines.(a) = 0 then None
  else Some (Finding.at ~file:m.source ~line:m.row_lines.(a) ~col:0)

(* Definite precedences within one period: [a] before [b] when a
   message from [a] determines [b]. Fwd means "a determines b", Bwd
   "a depends on b" — the converse edge. Bi contributes no edge here
   (it is flagged separately by RTC102): treating it as a 2-cycle
   would condemn every matrix that legitimately joined Fwd and Bwd
   evidence from different periods. *)
let definite_cycle m =
  let n = size m in
  let succs = Array.make n [] in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then begin
        match m.cells.(a).(b) with
        | Dv.Fwd -> succs.(a) <- b :: succs.(a)
        | Dv.Bwd -> succs.(b) <- a :: succs.(b)
        | Dv.Par | Dv.Bi | Dv.Fwd_maybe | Dv.Bwd_maybe | Dv.Bi_maybe -> ()
      end
    done
  done;
  (* Iterative DFS with colors; on a back edge, unwind the explicit
     stack for the cycle's vertices. *)
  let color = Array.make n 0 in
  let cycle = ref None in
  let rec visit path v =
    if Option.is_none !cycle then begin
      color.(v) <- 1;
      List.iter (fun w ->
          if Option.is_none !cycle then
            if color.(w) = 1 then begin
              let rec take acc = function
                | [] -> acc
                | x :: _ when x = w -> w :: acc
                | x :: tl -> take (x :: acc) tl
              in
              cycle := Some (take [ v ] path)
            end
            else if color.(w) = 0 then visit (v :: path) w)
        (List.rev succs.(v));
      color.(v) <- 2
    end
  in
  for v = 0 to n - 1 do
    if color.(v) = 0 && Option.is_none !cycle then visit [] v
  done;
  !cycle

let check_model m =
  let n = size m in
  let acc = ref [] in
  let add f = acc := f :: !acc in
  for a = 0 to n - 1 do
    if not (Dv.equal m.cells.(a).(a) Dv.Par) then
      add
        (finding ?pos:(pos_of m a) "RTC101" err
           "d(%s, %s) = %s; the diagonal must be \xe2\x80\x96" m.names.(a)
           m.names.(a)
           (Dv.to_string m.cells.(a).(a)));
    for b = 0 to n - 1 do
      if a <> b then begin
        let v = m.cells.(a).(b) and mirror = m.cells.(b).(a) in
        (match v with
         | Dv.Bi ->
           add
             (finding ?pos:(pos_of m a) "RTC102" warn
                "d(%s, %s) = \xe2\x86\x94: defined for lattice completeness \
                 but never produced by single-message evidence"
                m.names.(a) m.names.(b))
         | Dv.Par | Dv.Fwd | Dv.Bwd | Dv.Fwd_maybe | Dv.Bwd_maybe
         | Dv.Bi_maybe -> ());
        (* Message evidence always writes both cells of a pair:
           d(a,b) ⊒ → goes with d(b,a) ⊒ ← (possibly weakened, never
           erased). *)
        let mirror_ok =
          match v with
          | Dv.Fwd | Dv.Fwd_maybe -> Dv.leq Dv.Bwd mirror
          | Dv.Bwd | Dv.Bwd_maybe -> Dv.leq Dv.Fwd mirror
          | Dv.Bi -> Dv.leq Dv.Bi mirror
          | Dv.Par | Dv.Bi_maybe -> true
        in
        if a < b && not mirror_ok then
          add
            (finding ?pos:(pos_of m a) "RTC104" warn
               "d(%s, %s) = %s but d(%s, %s) = %s: message evidence \
                writes both cells of a pair"
               m.names.(a) m.names.(b) (Dv.to_string v) m.names.(b)
               m.names.(a) (Dv.to_string mirror))
      end
    done
  done;
  (match definite_cycle m with
   | None -> ()
   | Some cyc ->
     add
       (finding "RTC103" err
          "definite precedences form a cycle: %s; no single period can \
           schedule it"
          (String.concat " \xe2\x86\x92 "
             (List.map (fun i -> m.names.(i)) cyc))));
  Finding.sort !acc

(* --- model vs. task set / trace (RTC105, RTC106) --- *)

let task_mapping m (ts : Rt_task.Task_set.t) =
  let n = size m in
  if n <> Rt_task.Task_set.size ts then
    Error
      (finding "RTC105" err
         "model has %d tasks but the reference has %d" n
         (Rt_task.Task_set.size ts))
  else begin
    let map = Array.make n (-1) in
    let missing = ref None in
    Array.iteri (fun i name ->
        match Rt_task.Task_set.index ts name with
        | Some j -> map.(i) <- j
        | None -> if Option.is_none !missing then missing := Some name)
      m.names;
    match !missing with
    | Some name ->
      Error
        (finding "RTC105" err
           "model task %s does not exist in the reference task set" name)
    | None -> Ok map
  end

let check_against_trace m (trace : Rt_trace.Trace.t) =
  match task_mapping m trace.task_set with
  | Error f -> [ f ]
  | Ok map ->
    let n = size m in
    let acc = ref [] in
    (* A definite cell claims: whenever [a] executes, [b] executes in
       the same period. The learner's end-of-period post-processing
       weakens exactly the cells some period contradicts, so any
       surviving definite value must hold in every period. *)
    let violated = Array.make_matrix n n None in
    List.iter (fun (p : Rt_trace.Period.t) ->
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            if a <> b && Option.is_none violated.(a).(b)
               && Dv.is_definite m.cells.(a).(b)
               && p.executed.(map.(a))
               && not p.executed.(map.(b))
            then violated.(a).(b) <- Some p.index
          done
        done)
      (Rt_trace.Trace.periods trace);
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        match violated.(a).(b) with
        | None -> ()
        | Some pidx ->
          acc :=
            finding ?pos:(pos_of m a) "RTC106" err
              "d(%s, %s) = %s is definite, but period %d executed %s \
               without %s; post-processing must have weakened it to %s"
              m.names.(a) m.names.(b)
              (Dv.to_string m.cells.(a).(b))
              pidx m.names.(a) m.names.(b)
              (Dv.to_string (Dv.weaken m.cells.(a).(b)))
            :: !acc
      done
    done;
    Finding.sort !acc

(* --- answer-set rules (RTC2xx) --- *)

let label m i =
  if m.source = "<model>" then Printf.sprintf "#%d" (i + 1) else m.source

let check_answer_set models =
  let ds =
    List.mapi (fun i m -> (i, m, to_depfun m)) models
    |> List.filter_map (fun (i, m, d) ->
        match d with Some d -> Some (i, m, d) | None -> None)
  in
  let acc = ref [] in
  List.iter (fun (i, mi, di) ->
      List.iter (fun (j, mj, dj) ->
          if i < j && Df.equal di dj then
            acc :=
              finding "RTC201" err
                "hypotheses %s and %s are identical; post-processing \
                 unifies duplicates"
                (label mi i) (label mj j)
              :: !acc
          else if i <> j && Df.leq di dj && not (Df.equal di dj) then
            acc :=
              finding "RTC202" err
                "hypothesis %s is not minimal: %s is strictly more \
                 specific"
                (label mj j) (label mi i)
              :: !acc)
        ds)
    ds;
  Finding.sort !acc

(* --- checkpoint rules --- *)

let check_checkpoint ~source data =
  match Rt_learn.Heuristic.resume data with
  | Error m ->
    (* An unreadable checkpoint is both an input error (the audit could
       not run) and a finding in its own right: CI greps for RTC203 to
       distinguish integrity damage from a merely missing file. *)
    Error
      (Printf.sprintf "%s: %s" source m,
       finding "RTC203" err "unreadable checkpoint %s: %s" source m)
  | Ok (sts, _tag) ->
    (* Each engine's working set is its own answer set. The decoder
       refuses a working set over its bound. In a several-engine image
       a per-model finding names its engine and hypothesis. *)
    let one = List.compare_length_with sts 1 = 0 in
    let audit e st =
      let source = if one then source else Printf.sprintf "%s[engine %d]" source e in
      let models =
        List.mapi (fun i d ->
            model_of_depfun ~source:(Printf.sprintf "%s[%d]" source i) d)
          (Rt_learn.Heuristic.current st)
      in
      let named m (f : Finding.t) =
        if one then f else { f with message = m.source ^ ": " ^ f.message }
      in
      List.concat_map (fun m -> List.map (named m) (check_model m)) models
      @ check_answer_set models
    in
    Ok (Finding.sort (List.concat (List.mapi audit sts)))
