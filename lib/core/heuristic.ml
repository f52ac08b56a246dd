module Df = Rt_lattice.Depfun
module Dv = Rt_lattice.Depval
module Period = Rt_trace.Period
module Candidates = Rt_trace.Candidates

type stats = {
  periods_processed : int;
  merges : int;
  created : int;
}

type counters = {
  branches : int;
  dedup_hits : int;
  evictions : int;
  weakenings : int;
  end_dedup : int;
  nonminimal : int;
}

type outcome = {
  hypotheses : Df.t list;
  stats : stats;
}

type merge_policy = Workset.victim_policy =
  | Lightest_pair | Heaviest_pair | First_last

type provenance = {
  periods_dropped : int;
  periods_repaired : int;
}

type state = {
  policy : merge_policy;
  window : int option;
  bound : int;
  closed_form : bool;  (* bound 1 takes [step_closed] *)
  violations : Violations.t;
  scratch : Workset.t;  (* per-message working set, reused across messages *)
  codes : int array;
  (* The current message's candidate codes, reused across messages. Per
     state, not global: engines run on several domains at once. *)
  mutable hs : Hypothesis.t array;  (* ascending (weight, structural) order *)
  mutable created : int;
  mutable merges : int;
  mutable periods : int;
  mutable msgs : int;      (* bus messages consumed, across all periods *)
  mutable dropped : int;   (* periods quarantine dropped before feeding *)
  mutable repaired : int;  (* periods repaired by ingestion *)
  (* Observability counters. Like [merges]/[created] they are counted
     unconditionally (single int stores), and travel through checkpoints
     so a resumed run reports the same totals as an uninterrupted one. *)
  mutable branches : int;      (* generalization attempts (parents × pairs) *)
  mutable dedup_hits : int;    (* children the working set rejected as dups *)
  mutable evictions : int;     (* hypotheses removed by bound-forced merges *)
  mutable weakenings : int;    (* cells weakened at period boundaries *)
  mutable end_dedup : int;     (* duplicates unified at period end *)
  mutable nonminimal : int;    (* non-minimal hypotheses pruned at period end *)
  (* Sink attachment; [None] costs one branch per period. *)
  obs : Rt_obs.Registry.t option;
  cand_hist : Rt_obs.Histogram.t option;
  occ_gauge : Rt_obs.Registry.gauge option;
}

(* The one constructor: a state holding [hs] over [violations], with
   every counter zero and one hypothesis created. *)
let make ~policy ~window ~obs ~closed_form ~bound ~ntasks violations hs =
  {
    policy;
    window;
    bound;
    closed_form;
    violations;
    scratch = Workset.create ~bound;
    codes = Array.make (ntasks * ntasks) 0;
    hs;
    created = 1;
    merges = 0;
    periods = 0;
    msgs = 0;
    dropped = 0;
    repaired = 0;
    branches = 0;
    dedup_hits = 0;
    evictions = 0;
    weakenings = 0;
    end_dedup = 0;
    nonminimal = 0;
    obs;
    cand_hist =
      Option.map (fun r -> Rt_obs.Registry.histogram r "learn.candidate_pairs")
        obs;
    occ_gauge =
      Option.map (fun r -> Rt_obs.Registry.gauge r "learn.workset_occupancy")
        obs;
  }

let init ?(policy = Lightest_pair) ?window ?obs ?(closed_form = true) ~bound
    ~ntasks () =
  if bound < 1 then invalid_arg "Heuristic.init: bound must be >= 1";
  if ntasks < 1 then invalid_arg "Heuristic.init: need at least one task";
  make ~policy ~window ~obs ~closed_form:(closed_form && bound = 1) ~bound
    ~ntasks (Violations.create ntasks)
    [| Hypothesis.bottom ntasks |]

let provenance st =
  { periods_dropped = st.dropped; periods_repaired = st.repaired }

let set_provenance st ~dropped ~repaired =
  if dropped < 0 || repaired < 0 then
    invalid_arg "Heuristic.set_provenance: counts must be non-negative";
  st.dropped <- dropped;
  st.repaired <- repaired

(* Insert with deduplication, then enforce the bound by merging. *)
let rec add st m h =
  if Workset.add st.scratch h then begin
    if Workset.length st.scratch > st.bound then begin
      let a, b = Workset.extract_pair st.scratch st.policy in
      st.merges <- st.merges + 1;
      st.evictions <- st.evictions + 2;
      add st m (Hypothesis.merge_in m a b)
    end
  end
  else st.dedup_hits <- st.dedup_hits + 1

(* Each child is inserted as soon as it is made, parents in canonical
   order × pairs in candidate order; it costs O(1) until something reads
   its cells, and most children are merged away before that. The working
   set's contents depend only on this insertion sequence. *)
let step_message st hs codes np =
  st.branches <- st.branches + (Array.length hs * np);
  let m = Hypothesis.message ~parents:(Array.length hs) ~codes ~count:np in
  Workset.clear st.scratch;
  Array.iteri
    (fun i h ->
       for k = 0 to np - 1 do
         match Hypothesis.child h m ~parent:i ~pair:k with
         | Some h' ->
           st.created <- st.created + 1;
           add st m h'
         | None -> ()
       done)
    hs;
  let survivors = Workset.to_array st.scratch in
  Array.iter Hypothesis.settle survivors;
  survivors

(* [step_message] at bound 1 in closed form (DESIGN.md §20): the one
   parent's children all merge, so the message leaves the join of all of
   them, built in place on the parent's matrix from the candidate codes.
   The counters follow: every pair is a branch, each of the |C'|
   children counts as created, and folding them into one takes |C'| - 1
   merges of two evictions each. No child can be a duplicate, as each
   holds a different pair in its assumptions. *)
let step_closed st hs codes np =
  if Array.length hs = 0 then hs
  else begin
    st.branches <- st.branches + np;
    let admitted = Hypothesis.join_codes hs.(0) codes np in
    st.created <- st.created + admitted;
    if admitted > 1 then begin
      st.merges <- st.merges + admitted - 1;
      st.evictions <- st.evictions + (2 * (admitted - 1))
    end;
    if admitted = 0 then [||] else hs
  end

(* Each message's candidate set A_m is enumerated once, into
   [st.codes], and recorded once. *)
let messages st (p : Period.t) =
  let hs = ref st.hs in
  for k = 0 to Array.length p.msgs - 1 do
    let np = Candidates.pair_codes ?window:st.window p p.msgs.(k) st.codes in
    (match st.cand_hist with
     | Some h -> Rt_obs.Histogram.record h np
     | None -> ());
    hs :=
      if st.closed_form then step_closed st !hs st.codes np
      else step_message st !hs st.codes np
  done;
  !hs

let weaken st (p : Period.t) hs =
  Violations.observe st.violations ~executed:p.executed;
  let violated = Violations.matrix st.violations in
  for k = 0 to Array.length hs - 1 do
    st.weakenings <-
      st.weakenings + Hypothesis.weaken_violations_count hs.(k) ~violated;
    Hypothesis.clear_assumptions hs.(k)
  done

(* Post-processing: unify equal hypotheses, drop non-minimal ones.
   [minimal_only] returns ascending (weight, structural) order, which is
   exactly the state invariant (weakening changed the weights). *)
let postprocess st hs =
  if Array.length hs <= 1 then st.hs <- hs
  else begin
    let cut_dup = ref 0 and cut_min = ref 0 in
    let survivors =
      Postprocess.minimal_only ~removed:cut_min
        (Postprocess.dedup ~removed:cut_dup (Array.to_list hs))
    in
    st.end_dedup <- st.end_dedup + !cut_dup;
    st.nonminimal <- st.nonminimal + !cut_min;
    st.hs <- Array.of_list survivors
  end

let close_period st (p : Period.t) =
  st.periods <- st.periods + 1;
  st.msgs <- st.msgs + Array.length p.msgs

(* With a registry, the period span splits into its three layers;
   without one, the only cost is one branch per period. *)
let feed st p =
  match st.obs with
  | None ->
    let hs = messages st p in
    weaken st p hs;
    postprocess st hs;
    close_period st p
  | Some r ->
    let module R = Rt_obs.Registry in
    R.span_begin r "learn.period";
    let hs = R.with_span r "learn.messages" (fun () -> messages st p) in
    R.with_span r "learn.weaken" (fun () -> weaken st p hs);
    R.with_span r "learn.postprocess" (fun () -> postprocess st hs);
    close_period st p;
    Option.iter (fun g -> R.set_gauge g (Array.length st.hs)) st.occ_gauge;
    R.span_end r

let bound st = st.bound

let current st =
  Array.to_list (Array.map (fun h -> Df.copy (Hypothesis.depfun h)) st.hs)

let stats st =
  { periods_processed = st.periods; merges = st.merges; created = st.created }

let messages_processed st = st.msgs

let violations st = Array.map Array.copy (Violations.matrix st.violations)

let counters st =
  {
    branches = st.branches;
    dedup_hits = st.dedup_hits;
    evictions = st.evictions;
    weakenings = st.weakenings;
    end_dedup = st.end_dedup;
    nonminimal = st.nonminimal;
  }

(* Export the state-held totals into the attached registry. Counters are
   pushed once here, not incremented live in registry cells, so that the
   same totals surface whether the state was freshly run or resumed from
   a checkpoint. *)
let publish st =
  match st.obs with
  | None -> ()
  | Some r ->
    let set = Rt_obs.Registry.set_counter r in
    set "learn.periods" st.periods;
    set "learn.merges" st.merges;
    set "learn.created" st.created;
    set "learn.branches" st.branches;
    set "learn.dedup_hits" st.dedup_hits;
    set "learn.evictions" st.evictions;
    set "learn.weakenings" st.weakenings;
    set "learn.end_dedup" st.end_dedup;
    set "learn.nonminimal_dropped" st.nonminimal;
    set "learn.hypotheses" (Array.length st.hs);
    set "learn.periods_dropped" st.dropped;
    set "learn.periods_repaired" st.repaired

let snapshot st =
  publish st;
  { hypotheses = current st; stats = stats st }

let run ?policy ?window ?obs ~bound trace =
  let st =
    init ?policy ?window ?obs ~bound
      ~ntasks:(Rt_trace.Trace.task_count trace) ()
  in
  List.iter (feed st) (Rt_trace.Trace.periods trace);
  snapshot st

let converged o = match o.hypotheses with [ d ] -> Some d | [] | _ :: _ -> None

(* Checkpoints. Only taken between [feed]s, where every hypothesis has an
   empty assumption set — so a snapshot is exactly: the configuration, the
   counters, the violation matrix, and the hypothesis matrices in state
   order (which the restore preserves verbatim; re-sorting could disagree
   with the working set's canonical order). All integers are little-endian
   64-bit; matrices are row-major bytes. Version 2 extended version 1
   with the six observability counters; version 3 adds the message
   count, so a resumed run reports the same totals as an uninterrupted
   one.

   An image is one or more payloads back to back under one trailer,
   the tag in the first (the others' is empty and unread), so a
   one-state image is byte for byte the single-state checkpoint. *)

let ckpt_magic = "RTGENCKP"
let ckpt_version = 3

(* Integrity trailer appended after the payload: 8-byte magic, the
   payload length, and the payload's MD5 — 32 bytes total. A torn write
   or a flipped bit is detected before any field is trusted, instead of
   surfacing as a confusing parse error (or worse, loading silently
   wrong matrices). A checkpoint without it is refused. *)
let trailer_magic = "RTCKSUM1"
let trailer_len = 8 + 8 + 16

let policy_byte = function
  | Lightest_pair -> 0 | Heaviest_pair -> 1 | First_last -> 2

let policy_of_byte = function
  | 0 -> Some Lightest_pair | 1 -> Some Heaviest_pair | 2 -> Some First_last
  | _ -> None

let add_payload buf ~tag st =
  let i64 n = Buffer.add_int64_le buf (Int64.of_int n) in
  Buffer.add_string buf ckpt_magic;
  Buffer.add_char buf (Char.chr ckpt_version);
  Buffer.add_char buf (Char.chr (policy_byte st.policy));
  (match st.window with
   | None -> Buffer.add_char buf '\000'
   | Some w -> Buffer.add_char buf '\001'; i64 w);
  i64 st.bound;
  let vm = Violations.matrix st.violations in
  let ntasks = Array.length vm in
  i64 ntasks;
  i64 st.periods;
  i64 st.merges;
  i64 st.created;
  i64 st.dropped;
  i64 st.repaired;
  i64 st.branches;
  i64 st.dedup_hits;
  i64 st.evictions;
  i64 st.weakenings;
  i64 st.end_dedup;
  i64 st.nonminimal;
  i64 st.msgs;
  i64 (String.length tag);
  Buffer.add_string buf tag;
  for a = 0 to ntasks - 1 do
    for b = 0 to ntasks - 1 do
      Buffer.add_char buf (if vm.(a).(b) then '\001' else '\000')
    done
  done;
  i64 (Array.length st.hs);
  Array.iter (fun h -> Buffer.add_bytes buf (Df.cells (Hypothesis.depfun h)))
    st.hs

let checkpoint ?(tag = "") sts =
  let buf = Buffer.create 1024 in
  List.iteri (fun i st -> add_payload buf ~tag:(if i = 0 then tag else "") st)
    sts;
  let payload = Buffer.contents buf in
  Buffer.add_string buf trailer_magic;
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_string buf (Digest.string payload);
  Buffer.contents buf

(* Strip and verify the integrity trailer. [Ok] carries the bare
   payload. *)
let verify_trailer data =
  let len = String.length data in
  if len < trailer_len
     || String.sub data (len - trailer_len) 8 <> trailer_magic
  then Error "checkpoint has no integrity trailer — file is truncated or corrupt"
  else begin
    let plen =
      Int64.to_int (String.get_int64_le data (len - trailer_len + 8))
    in
    if plen <> len - trailer_len then
      Error "checkpoint trailer length mismatch — file is truncated or corrupt"
    else
      let payload = String.sub data 0 plen in
      if not (String.equal (Digest.string payload)
                (String.sub data (len - 16) 16))
      then Error "checkpoint checksum mismatch — file is corrupt"
      else Ok payload
  end

(* Decode the payload at [!pos], leaving [pos] just past it. *)
let decode_payload ?obs data pos =
  let exception Bad of string in
  let len = String.length data in
  let need n = if !pos + n > len then raise (Bad "truncated checkpoint") in
  let byte () =
    need 1;
    let c = Char.code data.[!pos] in
    incr pos;
    c
  in
  let i64 () =
    need 8;
    let v = Int64.to_int (String.get_int64_le data !pos) in
    pos := !pos + 8;
    if v < 0 then raise (Bad "negative integer field");
    v
  in
  let str n = need n; let s = String.sub data !pos n in pos := !pos + n; s in
  try
    if String.sub data !pos (min 8 (len - !pos)) <> ckpt_magic then
      raise (Bad "not an rtgen checkpoint");
    pos := !pos + 8;
    let version = byte () in
    if version <> ckpt_version then
      raise (Bad (Printf.sprintf "unsupported checkpoint version %d" version));
    let policy =
      match policy_of_byte (byte ()) with
      | Some p -> p
      | None -> raise (Bad "bad merge policy")
    in
    let window =
      match byte () with
      | 0 -> None
      | 1 -> Some (i64 ())
      | _ -> raise (Bad "bad window flag")
    in
    let bound = i64 () in
    if bound < 1 then raise (Bad "bound must be >= 1");
    let ntasks = i64 () in
    if ntasks < 1 then raise (Bad "need at least one task");
    if ntasks > 65536 then
      (* A forged task count must not drive the matrix allocations
         below into Out_of_memory. *)
      raise (Bad (Printf.sprintf "implausible task count %d" ntasks));
    let periods = i64 () in
    let merges = i64 () in
    let created = i64 () in
    let dropped = i64 () in
    let repaired = i64 () in
    let branches = i64 () in
    let dedup_hits = i64 () in
    let evictions = i64 () in
    let weakenings = i64 () in
    let end_dedup = i64 () in
    let nonminimal = i64 () in
    let msgs = i64 () in
    let tag = str (i64 ()) in
    let vm = Array.make_matrix ntasks ntasks false in
    for a = 0 to ntasks - 1 do
      for b = 0 to ntasks - 1 do
        match byte () with
        | 0 -> ()
        | 1 -> vm.(a).(b) <- true
        | _ -> raise (Bad "bad violation cell")
      done
    done;
    let nhyp = i64 () in
    if nhyp > bound then raise (Bad "more hypotheses than bound");
    let hs = Array.make nhyp (Hypothesis.bottom ntasks) in
    for k = 0 to nhyp - 1 do
      let df = Df.create ntasks in
      let cells = Df.cells df in
      for a = 0 to ntasks - 1 do
        for b = 0 to ntasks - 1 do
          let v = byte () in
          if v > Dv.index Dv.Bi_maybe then raise (Bad "bad dependency cell");
          if a = b && v <> Dv.index Dv.Par then
            raise (Bad "non-Par diagonal cell");
          Bytes.set cells ((a * ntasks) + b) (Char.chr v)
        done
      done;
      hs.(k) <- Hypothesis.of_depfun df
    done;
    let st =
      make ~policy ~window ~obs ~closed_form:(bound = 1) ~bound ~ntasks
        (Violations.of_matrix vm) hs
    in
    Ok
      ( { st with created; merges; periods; msgs; dropped; repaired; branches;
                  dedup_hits; evictions; weakenings; end_dedup; nonminimal },
        tag )
  with Bad m -> Error m

let resume ?obs data =
  (* A well-formed header with a foreign version number is reported as
     such before the trailer is consulted: other versions wrote other
     trailers (or none), so the checksum verdict would only mislead. *)
  if
    String.length data > 8
    && String.sub data 0 8 = ckpt_magic
    && Char.code data.[8] <> ckpt_version
  then
    Error
      (Printf.sprintf "unsupported checkpoint version %d" (Char.code data.[8]))
  else
  match verify_trailer data with
  | Error _ as e -> e
  | Ok payload ->
    let pos = ref 0 in
    (* [obs] goes to the first state; its tag is the image's. *)
    let rec states i =
      match decode_payload ?obs:(if i = 0 then obs else None) payload pos with
      | Error m when i = 0 -> Error m
      | Error m -> Error (Printf.sprintf "engine %d: %s" i m)
      | Ok (st, tag) when !pos = String.length payload -> Ok ([ st ], tag)
      | Ok (st, tag) ->
        Result.map (fun (sts, _) -> (st :: sts, tag)) (states (i + 1))
    in
    (match states 0 with
     | r -> r
     | exception e ->
       (* A payload that passed its checksum but still fails to decode
          degrades into a clean [Error], never an exception. *)
       Error ("unreadable checkpoint: " ^ Printexc.to_string e))
