(* The rtlint --deep engine: a whole-project, summary-based effect
   analyzer layered over the per-file syntactic rules in [Lint].

   One in-memory pass per run: extract, link, render.  Nothing is
   cached between runs (DESIGN §18.4).

   Phase 1 (extract, per file): parse with compiler-libs and walk the
   Parsetree once, producing a [summary] — per-function effect records
   (direct nondeterminism taints, writes/reads of top-level mutable
   candidates, resolved-by-name call edges, lock/raise/loop-alloc
   flags, spawn sites, persistence-sink sites with one-hop argument
   dataflow) plus the file's top-level mutable globals and the
   purely-local RTL3xx resource findings.

   Phase 2 (link, whole project): summaries are joined by dotted-name
   resolution into a call graph; effects are closed transitively and
   the cross-module rule families fire:
   - RTL101/RTL102 — top-level mutable state written/read from a
     closure submitted to Domain_pool/Domain.spawn/Thread.create
     without Atomic protection or a Mutex on the path;
   - RTL201..204 — clock / hash-order / Marshal / polymorphic-hash
     taint reaching a persistence sink (Atomic_file, the store, a
     codec), anchored at the taint source with the sink as witness;
   - RTL998 — allow-comments that no finding consumed.

   No typing pass: resolution is by (module-qualified) name with the
   library [Rt_*] wrapper stripped, which is exact for this codebase's
   naming conventions and degrades to silence, never noise, when a
   name does not resolve. *)

module F = Rt_check.Finding

(* {1 Data model: per-file summaries} *)

type site = { s_line : int; s_col : int }

type tkind = Clock | Order | Marshal | Poly

let tkind_to_string = function
  | Clock -> "clock"
  | Order -> "order"
  | Marshal -> "marshal"
  | Poly -> "poly"

type taint = { t_kind : tkind; t_site : site; t_what : string }

(* A persistence sink ([sk]) or a call edge whose arguments carry
   dataflow worth checking if the callee turns out to reach a sink
   ([pk]); [d_calls]/[d_taints] are the one-hop argument dataflow:
   calls and direct taints appearing in the argument expressions,
   expanded through same-function [let] bindings. *)
type sink = {
  sk_site : site;
  sk_name : string;            (* sink suffix, or callee path for pk *)
  sk_potential : bool;
  d_calls : (string * int) list;
  d_taints : taint list;
}

type spawn = {
  sp_site : site;
  sp_what : string;            (* the spawn primitive called *)
  sp_entries : string list;    (* fn keys / unresolved names of closures *)
}

type closure_state = No_closure | Plain_closure | Atomic_closure

type fn = {
  fn_key : string;             (* "Session.flush.feed_pair" *)
  fn_site : site;
  fn_locks : bool;
  fn_raises : bool;
  fn_loop_alloc : bool;
  fn_closure : closure_state;
  fn_taints : taint list;
  fn_writes : (string * int) list;
  fn_reads : (string * int) list;
  fn_calls : (string * int) list;
  fn_spawns : spawn list;
  fn_sinks : sink list;
}

type global = {
  g_key : string;              (* "Registry.now_ns" *)
  g_site : site;
  g_kind : string;             (* ref|table|buffer|bytes|array|queue|stack|atomic|mutex|closure *)
  g_protected : bool;
  g_taints : taint list;
}

type summary = {
  sum_file : string;
  sum_fns : fn list;
  sum_globals : global list;
  sum_locals : F.t list;       (* RTL301/RTL302, decided per-file *)
}

(* {1 Name tables} *)

let path_ends_with suffix path =
  let ls = List.length suffix and lp = List.length path in
  lp >= ls
  && (let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      drop (lp - ls) path = suffix)

let clock_idents =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ];
    [ "Random"; "self_init" ]; [ "now_ns" ] ]

let order_idents =
  [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ]; [ "Hashtbl"; "to_seq" ];
    [ "Hashtbl"; "to_seq_keys" ]; [ "Hashtbl"; "to_seq_values" ] ]

let poly_idents =
  [ [ "Hashtbl"; "hash" ]; [ "Hashtbl"; "seeded_hash" ];
    [ "Hashtbl"; "hash_param" ]; [ "Stdlib"; "compare" ] ]

let spawn_idents =
  [ [ "Domain_pool"; "run" ]; [ "Domain_pool"; "map" ];
    [ "Domain_pool"; "map_list" ]; [ "Domain"; "spawn" ];
    [ "Thread"; "create" ] ]

let lock_idents =
  [ [ "Mutex"; "lock" ]; [ "Mutex"; "protect" ] ]

let sink_idents =
  [ [ "Atomic_file"; "write" ]; [ "Atomic_file"; "stage" ];
    [ "Atomic_file"; "append" ];
    [ "Store"; "commit" ]; [ "Store"; "put_blob" ]; [ "Slot"; "save" ];
    [ "Codec"; "model_to_blob" ]; [ "Codec"; "companion_to_blob" ];
    [ "Codec"; "answerset_to_blob" ]; [ "Codec"; "checkpoint_to_blob" ] ]

(* Makers whose top-level application defines a mutable global. *)
let unprotected_makers =
  [ ([ "ref" ], "ref"); ([ "Hashtbl"; "create" ], "table");
    ([ "Buffer"; "create" ], "buffer"); ([ "Bytes"; "create" ], "bytes");
    ([ "Bytes"; "make" ], "bytes"); ([ "Array"; "make" ], "array");
    ([ "Array"; "create_float" ], "array"); ([ "Array"; "init" ], "array");
    ([ "Queue"; "create" ], "queue"); ([ "Stack"; "create" ], "stack") ]

let protected_makers =
  [ ([ "Atomic"; "make" ], "atomic"); ([ "Mutex"; "create" ], "mutex") ]

(* First-argument mutators beyond [:=]/incr/decr/setfield. *)
let mutator_idents =
  [ [ "Array"; "set" ]; [ "Array"; "unsafe_set" ]; [ "Array"; "fill" ];
    [ "Array"; "blit" ]; [ "Bytes"; "set" ]; [ "Bytes"; "unsafe_set" ];
    [ "Bytes"; "fill" ]; [ "Bytes"; "blit" ];
    [ "Hashtbl"; "add" ]; [ "Hashtbl"; "replace" ]; [ "Hashtbl"; "remove" ];
    [ "Hashtbl"; "reset" ]; [ "Hashtbl"; "clear" ];
    [ "Hashtbl"; "filter_map_inplace" ];
    [ "Buffer"; "add_string" ]; [ "Buffer"; "add_char" ];
    [ "Buffer"; "add_bytes" ]; [ "Buffer"; "add_buffer" ];
    [ "Buffer"; "clear" ]; [ "Buffer"; "reset" ]; [ "Buffer"; "truncate" ];
    [ "Queue"; "add" ]; [ "Queue"; "push" ]; [ "Queue"; "pop" ];
    [ "Queue"; "take" ]; [ "Queue"; "clear" ];
    [ "Stack"; "push" ]; [ "Stack"; "pop" ]; [ "Stack"; "clear" ];
    [ "Atomic"; "set" ]; [ "Atomic"; "incr" ]; [ "Atomic"; "decr" ];
    [ "Atomic"; "exchange" ]; [ "Atomic"; "compare_and_set" ];
    [ "Atomic"; "fetch_and_add" ] ]

let raise_idents =
  [ [ "raise" ]; [ "raise_notrace" ]; [ "failwith" ]; [ "invalid_arg" ] ]

(* {2 RTL3xx resource tables} *)

let open_idents =
  [ [ "open_in" ]; [ "open_in_bin" ]; [ "open_in_gen" ];
    [ "open_out" ]; [ "open_out_bin" ]; [ "open_out_gen" ];
    [ "Unix"; "openfile" ]; [ "Unix"; "socket" ]; [ "Unix"; "opendir" ] ]

let close_idents =
  [ [ "close_in" ]; [ "close_in_noerr" ]; [ "close_out" ];
    [ "close_out_noerr" ]; [ "Unix"; "close" ]; [ "Unix"; "closedir" ] ]

(* Channel/fd operations that use the handle without taking ownership;
   anything else consuming the handle counts as a hand-off and ends the
   local obligation to close. *)
let handle_op_idents =
  [ [ "input_line" ]; [ "input_char" ]; [ "input_byte" ]; [ "input" ];
    [ "really_input" ]; [ "really_input_string" ]; [ "input_binary_int" ];
    [ "in_channel_length" ]; [ "seek_in" ]; [ "pos_in" ];
    [ "set_binary_mode_in" ];
    [ "output_string" ]; [ "output_bytes" ]; [ "output" ];
    [ "output_char" ]; [ "output_byte" ]; [ "output_binary_int" ];
    [ "flush" ]; [ "seek_out" ]; [ "pos_out" ]; [ "out_channel_length" ];
    [ "set_binary_mode_out" ];
    [ "Printf"; "fprintf" ]; [ "Format"; "fprintf" ];
    [ "Lexing"; "from_channel" ];
    [ "Unix"; "read" ]; [ "Unix"; "write" ]; [ "Unix"; "write_substring" ];
    [ "Unix"; "single_write" ]; [ "Unix"; "single_write_substring" ];
    [ "Unix"; "fstat" ]; [ "Unix"; "lseek" ]; [ "Unix"; "ftruncate" ];
    [ "Unix"; "map_file" ]; [ "Unix"; "bind" ]; [ "Unix"; "listen" ];
    [ "Unix"; "connect" ]; [ "Unix"; "accept" ]; [ "Unix"; "setsockopt" ];
    [ "Unix"; "setsockopt_float" ]; [ "Unix"; "getsockname" ];
    [ "Unix"; "set_nonblock" ]; [ "Unix"; "clear_nonblock" ];
    [ "Unix"; "select" ]; [ "Unix"; "readdir" ]; [ "Unix"; "shutdown" ] ]

(* {1 AST helpers} *)

let rec strip (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip e
  | _ -> e

let ident_path (e : Parsetree.expression) =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let site_of (loc : Location.t) =
  let p = loc.loc_start in
  { s_line = p.pos_lnum; s_col = p.pos_cnum - p.pos_bol }

let rec is_fun_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_fun_literal e
  | _ -> false

let pat_bound_names (p : Parsetree.pattern) =
  let acc = ref [] in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

let pat_single_name (p : Parsetree.pattern) =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

(* {1 Per-file extraction} *)

module SS = Set.Make (String)
module SM = Map.Make (String)

type fn_builder = {
  b_key : string;
  b_site : site;
  mutable b_locks : bool;
  mutable b_raises : bool;
  mutable b_loop_alloc : bool;
  mutable b_closure : closure_state;
  mutable b_taints : taint list;
  mutable b_writes : (string * int) list;
  mutable b_reads : (string * int) list;
  mutable b_read_names : SS.t;
  mutable b_calls : (string * int) list;
  mutable b_spawns : spawn list;
  mutable b_sinks : sink list;
  mutable b_local_mutables : (string * bool) list;  (* name, atomic *)
}

type fctx = {
  x_file : string;
  x_track_sinks : bool;        (* off inside lib/store and atomic_file.ml *)
  x_aliases : (string, string list) Hashtbl.t;
  mutable x_fns : fn list;     (* reverse order *)
  mutable x_globals : global list;
  mutable x_locals : F.t list;
  mutable x_fn_meta : (string * closure_state * taint list) list;
      (* same-file fns, for closure-global resolution *)
}

let new_builder key site =
  { b_key = key; b_site = site; b_locks = false; b_raises = false;
    b_loop_alloc = false; b_closure = No_closure; b_taints = [];
    b_writes = []; b_reads = []; b_read_names = SS.empty; b_calls = [];
    b_spawns = []; b_sinks = []; b_local_mutables = [] }

(* Canonicalize a dotted path: expand a file-local module alias at the
   head, then strip the [Rt_*] library-wrapper and [Stdlib] heads so
   [Rt_store.Store.commit], [Store.commit] and an aliased [S.commit]
   all resolve identically. *)
let canon_path x path =
  let path =
    match path with
    | head :: rest -> (
        match Hashtbl.find_opt x.x_aliases head with
        | Some expansion -> expansion @ rest
        | None -> path)
    | [] -> []
  in
  let rec strip_heads = function
    | head :: (_ :: _ as rest)
      when head = "Stdlib"
           || (String.length head > 3 && String.sub head 0 3 = "Rt_") ->
        strip_heads rest
    | p -> p
  in
  strip_heads path

let dotted = String.concat "."

(* One-hop argument dataflow for sink records: calls and direct taints
   syntactically inside [exprs], plus whatever the referenced
   same-function [let]-bound names carried. *)
let collect_deps x (lets : ((string * int) list * taint list) SM.t) exprs =
  let calls = ref [] and taints = ref [] and seen = ref SS.empty in
  let rec go (e : Parsetree.expression) =
    (match (strip e).pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> (
        match SM.find_opt n lets with
        | Some (cs, ts) when not (SS.mem n !seen) ->
            seen := SS.add n !seen;
            calls := cs @ !calls;
            taints := ts @ !taints
        | _ -> ())
    | Pexp_apply (f, _) -> (
        match ident_path f with
        | Some p ->
            let cp = canon_path x p in
            let line = (site_of e.pexp_loc).s_line in
            (match cp with
            | [ op ]
              when String.length op > 0
                   && not
                        ((op.[0] >= 'a' && op.[0] <= 'z')
                        || (op.[0] >= 'A' && op.[0] <= 'Z')
                        || op.[0] = '_') ->
                ()
            | _ -> calls := (dotted cp, line) :: !calls);
            let t kind what =
              taints :=
                { t_kind = kind; t_site = site_of e.pexp_loc; t_what = what }
                :: !taints
            in
            if List.exists (fun s -> path_ends_with s cp) clock_idents then
              t Clock (dotted cp);
            if List.exists (fun s -> path_ends_with s cp) order_idents then
              t Order (dotted cp);
            if List.mem "Marshal" cp then t Marshal (dotted cp);
            if List.exists (fun s -> path_ends_with s cp) poly_idents then
              t Poly (dotted cp)
        | None -> ())
    | _ -> ());
    let expr it e' =
      if e' != e then go e' else Ast_iterator.default_iterator.expr it e'
    in
    let it = { Ast_iterator.default_iterator with expr } in
    Ast_iterator.default_iterator.expr it e
  in
  List.iter go exprs;
  (List.rev !calls, List.rev !taints)

(* Does expression [e] mention any of [names] as an identifier? *)
let mentions_any names (e : Parsetree.expression) =
  let hit = ref false in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } when List.mem_assoc n names ->
        hit := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !hit

(* {2 RTL3xx: local open/close discipline}

   Only [let h = open_*(...)] bindings are tracked; a handle that is
   returned, stored, or passed to a non-whitelisted function escapes
   and the obligation moves with it. *)

type handle_use = {
  mutable u_close_protected : bool;
  mutable u_close_plain : bool;
  mutable u_ops : bool;
  mutable u_escapes : bool;
}

let classify_handle name (body : Parsetree.expression) =
  let u =
    { u_close_protected = false; u_close_plain = false; u_ops = false;
      u_escapes = false }
  in
  let is_name (e : Parsetree.expression) =
    match (strip e).pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> n = name
    | _ -> false
  in
  let rec go ~protect (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply (f, args) ->
        let fp = ident_path f in
        (match fp with
        | Some p when path_ends_with [ "Fun"; "protect" ] p ->
            List.iter (fun (_, a) -> go ~protect:true a) args
        | Some p ->
            let uses_name = List.exists (fun (_, a) -> is_name a) args in
            if uses_name then begin
              if List.exists (fun s -> path_ends_with s p) close_idents then
                if protect then u.u_close_protected <- true
                else u.u_close_plain <- true
              else if
                List.exists (fun s -> path_ends_with s p) handle_op_idents
              then u.u_ops <- true
              else u.u_escapes <- true
            end;
            List.iter (fun (_, a) -> if not (is_name a) then go ~protect a) args
        | None ->
            go ~protect f;
            List.iter (fun (_, a) -> go ~protect a) args)
    | Pexp_let (_, vbs, body) ->
        (* shadowing rebinds end the tracked region *)
        let shadows =
          List.exists
            (fun (vb : Parsetree.value_binding) ->
              List.mem name (pat_bound_names vb.pvb_pat))
            vbs
        in
        List.iter (fun (vb : Parsetree.value_binding) -> go ~protect vb.pvb_expr) vbs;
        if not shadows then go ~protect body
    | Pexp_try (body, cases) ->
        (* a close in the exception handler covers the exception path,
           same as a Fun.protect ~finally *)
        go ~protect body;
        List.iter
          (fun (c : Parsetree.case) ->
            Option.iter (go ~protect:true) c.pc_guard;
            go ~protect:true c.pc_rhs)
          cases
    | Pexp_ident { txt = Longident.Lident n; _ } when n = name ->
        u.u_escapes <- true
    | _ ->
        let expr it e' =
          if e' != e then go ~protect e'
          else Ast_iterator.default_iterator.expr it e'
        in
        let it = { Ast_iterator.default_iterator with expr } in
        Ast_iterator.default_iterator.expr it e
  in
  go ~protect:false body;
  u

(* {2 The main walker} *)

let operator_path = function
  | [ op ] ->
      String.length op > 0
      && not
           ((op.[0] >= 'a' && op.[0] <= 'z')
           || (op.[0] >= 'A' && op.[0] <= 'Z')
           || op.[0] = '_')
  | _ -> false

let mutation_target (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some path ->
          let arg1 () =
            match args with (_, a) :: _ -> Some (strip a) | [] -> None
          in
          if
            path_ends_with [ ":=" ] path
            || path_ends_with [ "incr" ] path
            || path_ends_with [ "decr" ] path
            || List.exists (fun m -> path_ends_with m path) mutator_idents
          then arg1 ()
          else None
      | None -> None)
  | Pexp_setfield (obj, _, _) -> Some (strip obj)
  | _ -> None

let rec walk_fn x (b : fn_builder) ~bound ~lets ~in_loop
    (e : Parsetree.expression) =
  let self ?(bound = bound) ?(lets = lets) ?(in_loop = in_loop) e =
    walk_fn x b ~bound ~lets ~in_loop e
  in
  match e.pexp_desc with
  | Pexp_let (rf, vbs, body) ->
      let bound' =
        List.fold_left
          (fun acc (vb : Parsetree.value_binding) ->
            List.fold_left (fun acc n -> SS.add n acc) acc
              (pat_bound_names vb.pvb_pat))
          bound vbs
      in
      let rhs_bound = if rf = Asttypes.Recursive then bound' else bound in
      let lets' = ref lets in
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          let rhs = strip vb.pvb_expr in
          (match pat_single_name vb.pvb_pat with
          | Some name ->
              (* local mutable allocation → closure-state candidate *)
              (match rhs.pexp_desc with
              | Pexp_apply (f, _) -> (
                  match ident_path f with
                  | Some p ->
                      let cp = canon_path x p in
                      if
                        List.exists
                          (fun (m, _) -> path_ends_with m cp)
                          unprotected_makers
                      then
                        b.b_local_mutables <-
                          (name, false) :: b.b_local_mutables
                      else if path_ends_with [ "Atomic"; "make" ] cp then
                        b.b_local_mutables <-
                          (name, true) :: b.b_local_mutables
                  | None -> ())
              | _ -> ());
              (* one-hop dataflow for later sink arguments *)
              let deps = collect_deps x lets [ vb.pvb_expr ] in
              if deps <> ([], []) then lets' := SM.add name deps !lets';
              (* RTL3xx: track let-bound opens through the body *)
              (match rhs.pexp_desc with
              | Pexp_apply (f, _)
                when (match ident_path f with
                     | Some p ->
                         let cp = canon_path x p in
                         List.exists
                           (fun s -> path_ends_with s cp)
                           open_idents
                     | None -> false) ->
                  let u = classify_handle name body in
                  let open_site = site_of rhs.pexp_loc in
                  let pos =
                    F.at ~file:x.x_file ~line:open_site.s_line
                      ~col:open_site.s_col
                  in
                  if u.u_escapes || u.u_close_protected then ()
                  else if u.u_close_plain && u.u_ops then
                    x.x_locals <-
                      F.v ~pos ~rule:"RTL301" ~severity:F.Error
                        (Printf.sprintf
                           "%s is closed on the normal path only; an \
                            exception between open and close leaks the \
                            handle — wrap the body in Fun.protect \
                            ~finally"
                           name)
                      :: x.x_locals
                  else if
                    (not u.u_close_plain)
                    && (u.u_ops || not u.u_escapes)
                  then
                    x.x_locals <-
                      F.v ~pos ~rule:"RTL302" ~severity:F.Error
                        (Printf.sprintf
                           "%s is opened here but never closed, returned \
                            or handed off; every call leaks a descriptor"
                           name)
                      :: x.x_locals
              | _ -> ())
          | None -> ());
          (* nested named functions get their own summary records *)
          match (pat_single_name vb.pvb_pat, is_fun_literal rhs) with
          | Some name, true ->
              extract_fn x ~key:(b.b_key ^ "." ^ name)
                ~site:(site_of vb.pvb_loc) ~bound:rhs_bound vb.pvb_expr
          | _ -> self ~bound:rhs_bound vb.pvb_expr)
        vbs;
      self ~bound:bound' ~lets:!lets' body
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (self ?bound:None) default;
      (* an inner lambda closing over a local mutable makes this
         function a closure-state factory (the default_clock shape) *)
      if b.b_local_mutables <> [] && mentions_any b.b_local_mutables e then
        b.b_closure <-
          (if
             List.for_all
               (fun (n, atomic) ->
                 atomic || not (mentions_any [ (n, false) ] e))
               b.b_local_mutables
           then Atomic_closure
           else Plain_closure);
      let bound' =
        List.fold_left (fun acc n -> SS.add n acc) bound (pat_bound_names pat)
      in
      self ~bound:bound' body
  | Pexp_function cases ->
      if b.b_local_mutables <> [] && mentions_any b.b_local_mutables e then
        b.b_closure <-
          (if
             List.for_all
               (fun (n, atomic) ->
                 atomic || not (mentions_any [ (n, false) ] e))
               b.b_local_mutables
           then Atomic_closure
           else Plain_closure);
      List.iter
        (fun (c : Parsetree.case) ->
          let bound' =
            List.fold_left (fun acc n -> SS.add n acc) bound
              (pat_bound_names c.pc_lhs)
          in
          Option.iter (self ~bound:bound') c.pc_guard;
          self ~bound:bound' c.pc_rhs)
        cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      self scrut;
      List.iter
        (fun (c : Parsetree.case) ->
          let bound' =
            List.fold_left (fun acc n -> SS.add n acc) bound
              (pat_bound_names c.pc_lhs)
          in
          Option.iter (self ~bound:bound') c.pc_guard;
          self ~bound:bound' c.pc_rhs)
        cases
  | Pexp_while (cond, body) ->
      self cond;
      self ~in_loop:true body
  | Pexp_for (pat, lo, hi, _, body) ->
      self lo;
      self hi;
      let bound' =
        List.fold_left (fun acc n -> SS.add n acc) bound (pat_bound_names pat)
      in
      self ~bound:bound' ~in_loop:true body
  | Pexp_record _ | Pexp_tuple _ ->
      if in_loop then b.b_loop_alloc <- true;
      let expr it e' =
        if e' != e then self e' else Ast_iterator.default_iterator.expr it e'
      in
      let it = { Ast_iterator.default_iterator with expr } in
      Ast_iterator.default_iterator.expr it e
  | Pexp_setfield (obj, _, v) ->
      record_mutation x b ~bound (strip obj) e.pexp_loc;
      self obj;
      self v
  | Pexp_ident { txt; _ } ->
      record_read x b ~bound (Longident.flatten txt) e.pexp_loc
  | Pexp_apply (f, args) ->
      handle_apply x b ~bound ~lets ~in_loop e f args
  | _ ->
      let expr it e' =
        if e' != e then self e' else Ast_iterator.default_iterator.expr it e'
      in
      let it = { Ast_iterator.default_iterator with expr } in
      Ast_iterator.default_iterator.expr it e

and record_read x b ~bound path loc =
  match path with
  | [ n ] when SS.mem n bound -> ()
  | _ ->
      let cp = canon_path x path in
      if operator_path cp || cp = [] then ()
      else
        let name = dotted cp in
        if not (SS.mem name b.b_read_names) then begin
          b.b_read_names <- SS.add name b.b_read_names;
          b.b_reads <- (name, (site_of loc).s_line) :: b.b_reads
        end

and record_mutation x b ~bound target loc =
  match (strip target).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let path = Longident.flatten txt in
      match path with
      | [ n ] when SS.mem n bound -> ()
      | _ ->
          let cp = canon_path x path in
          if cp <> [] && not (operator_path cp) then
            b.b_writes <- (dotted cp, (site_of loc).s_line) :: b.b_writes)
  | _ -> ()

and handle_apply x b ~bound ~lets ~in_loop e f args =
  let self = walk_fn x b ~bound ~lets ~in_loop in
  let site = site_of e.pexp_loc in
  (match mutation_target e with
  | Some target -> record_mutation x b ~bound target e.pexp_loc
  | None -> ());
  (match ident_path f with
  | None -> self f
  | Some p ->
      let cp = canon_path x p in
      let t kind what =
        b.b_taints <-
          { t_kind = kind; t_site = site; t_what = what } :: b.b_taints
      in
      if List.exists (fun s -> path_ends_with s cp) clock_idents then
        t Clock (dotted cp);
      if List.exists (fun s -> path_ends_with s cp) order_idents then
        t Order (dotted cp);
      if List.mem "Marshal" cp then t Marshal (dotted cp);
      if List.exists (fun s -> path_ends_with s cp) poly_idents then
        t Poly (dotted cp);
      if List.exists (fun s -> path_ends_with s cp) lock_idents then
        b.b_locks <- true;
      if List.exists (fun s -> path_ends_with s cp) raise_idents then
        b.b_raises <- true;
      (* pipe application: [x |> f] / [f @@ x] calls f *)
      (match (cp, args) with
      | [ "|>" ], [ _; (_, rhs) ] | [ "@@" ], [ (_, rhs); _ ] -> (
          match ident_path rhs with
          | Some fp ->
              let cfp = canon_path x fp in
              if not (operator_path cfp) then
                b.b_calls <- (dotted cfp, site.s_line) :: b.b_calls
          | None -> ())
      | _ -> ());
      if not (operator_path cp) then
        b.b_calls <- (dotted cp, site.s_line) :: b.b_calls;
      (* spawn sites *)
      if List.exists (fun s -> path_ends_with s cp) spawn_idents then begin
        let entries = ref [] in
        List.iter
          (fun (_, a) ->
            let a = strip a in
            if is_fun_literal a then begin
              let key =
                Printf.sprintf "%s.<spawn:%d:%d>" b.b_key site.s_line
                  site.s_col
              in
              extract_fn x ~key ~site:(site_of a.pexp_loc) ~bound a;
              entries := key :: !entries
            end
            else
              match a.pexp_desc with
              | Pexp_ident { txt; _ } ->
                  let ep = canon_path x (Longident.flatten txt) in
                  if ep <> [] && not (operator_path ep) then
                    entries := dotted ep :: !entries
              | Pexp_apply (g, _) -> (
                  (* partially-applied closure factory: the factory's
                     effects are what the workers run *)
                  match ident_path g with
                  | Some gp ->
                      let cgp = canon_path x gp in
                      if not (operator_path cgp) then
                        entries := dotted cgp :: !entries
                  | None -> ())
              | _ -> ())
          args;
        b.b_spawns <-
          { sp_site = site; sp_what = dotted cp;
            sp_entries = List.rev !entries }
          :: b.b_spawns
      end;
      (* sinks and potential sinks *)
      if x.x_track_sinks then begin
        let arg_exprs = List.map snd args in
        if List.exists (fun s -> path_ends_with s cp) sink_idents then begin
          let d_calls, d_taints = collect_deps x lets arg_exprs in
          b.b_sinks <-
            { sk_site = site; sk_name = dotted cp; sk_potential = false;
              d_calls; d_taints }
            :: b.b_sinks
        end
        else if not (operator_path cp) then begin
          let d_calls, d_taints = collect_deps x lets arg_exprs in
          if d_calls <> [] || d_taints <> [] then
            b.b_sinks <-
              { sk_site = site; sk_name = dotted cp; sk_potential = true;
                d_calls; d_taints }
              :: b.b_sinks
        end
      end);
  List.iter (fun (_, a) -> self a) args

and extract_fn x ~key ~site ~bound expr =
  let b = new_builder key site in
  (* peel the leading parameters so they do not look like an inner
     closure over local state *)
  let rec peel bound (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (walk_fn x b ~bound ~lets:SM.empty ~in_loop:false) default;
        let bound =
          List.fold_left (fun acc n -> SS.add n acc) bound
            (pat_bound_names pat)
        in
        peel bound body
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> peel bound body
    | _ -> (bound, e)
  in
  let bound, body = peel bound expr in
  walk_fn x b ~bound ~lets:SM.empty ~in_loop:false body;
  let fn =
    { fn_key = b.b_key; fn_site = b.b_site; fn_locks = b.b_locks;
      fn_raises = b.b_raises; fn_loop_alloc = b.b_loop_alloc;
      fn_closure = b.b_closure; fn_taints = List.rev b.b_taints;
      fn_writes = List.rev b.b_writes; fn_reads = List.rev b.b_reads;
      fn_calls = List.rev b.b_calls; fn_spawns = List.rev b.b_spawns;
      fn_sinks = List.rev b.b_sinks }
  in
  x.x_fns <- fn :: x.x_fns;
  x.x_fn_meta <- (key, fn.fn_closure, fn.fn_taints) :: x.x_fn_meta

(* {2 Structure walk: module paths, globals, aliases} *)

let module_name_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

let rec walk_structure x ~mpath (str : Parsetree.structure) =
  List.iter (walk_structure_item x ~mpath) str

and walk_structure_item x ~mpath (si : Parsetree.structure_item) =
  match si.pstr_desc with
  | Pstr_module mb -> (
      match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
      | Some name, Pmod_structure str ->
          walk_structure x ~mpath:(mpath @ [ name ]) str
      | Some name, Pmod_ident { txt; _ } ->
          Hashtbl.replace x.x_aliases name
            (canon_path x (Longident.flatten txt))
      | _ -> ())
  | Pstr_eval (e, _) ->
      let site = site_of si.pstr_loc in
      extract_fn x
        ~key:
          (Printf.sprintf "%s.<top:%d>" (dotted mpath) site.s_line)
        ~site ~bound:SS.empty e
  | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          let rhs = strip vb.pvb_expr in
          let site = site_of vb.pvb_loc in
          match pat_single_name vb.pvb_pat with
          | Some name when is_fun_literal rhs ->
              extract_fn x
                ~key:(dotted (mpath @ [ name ]))
                ~site ~bound:SS.empty vb.pvb_expr
          | Some name -> (
              let gkey = dotted (mpath @ [ name ]) in
              let as_global kind protected taints =
                x.x_globals <-
                  { g_key = gkey; g_site = site; g_kind = kind;
                    g_protected = protected; g_taints = taints }
                  :: x.x_globals
              in
              match rhs.pexp_desc with
              | Pexp_apply (f, _) -> (
                  match ident_path f with
                  | Some p -> (
                      let cp = canon_path x p in
                      match
                        List.find_opt
                          (fun (m, _) -> path_ends_with m cp)
                          unprotected_makers
                      with
                      | Some (_, kind) -> as_global kind false []
                      | None ->
                          (match
                             List.find_opt
                               (fun (m, _) -> path_ends_with m cp)
                               protected_makers
                           with
                          | Some (_, kind) -> as_global kind true []
                          | None -> (
                              (* application of a same-file closure
                                 factory: the binding carries its
                                 hidden state and taints *)
                              match
                                List.find_opt
                                  (fun (k, _, _) ->
                                    k = dotted (mpath @ cp)
                                    || k = dotted cp)
                                  x.x_fn_meta
                              with
                              | Some (_, Plain_closure, taints) ->
                                  as_global "closure" false taints
                              | Some (_, Atomic_closure, taints) ->
                                  as_global "closure" true taints
                              | _ -> top_effects x ~mpath ~name ~site rhs)))
                  | None -> top_effects x ~mpath ~name ~site rhs)
              | _ -> top_effects x ~mpath ~name ~site rhs)
          | None -> (
              match pat_bound_names vb.pvb_pat with
              | [] ->
                  extract_fn x
                    ~key:
                      (Printf.sprintf "%s.<top:%d>" (dotted mpath)
                         site.s_line)
                    ~site ~bound:SS.empty vb.pvb_expr
              | n :: _ ->
                  extract_fn x
                    ~key:(dotted (mpath @ [ n ]))
                    ~site ~bound:SS.empty vb.pvb_expr))
        vbs
  | _ -> ()

(* Top-level non-function bindings still execute effects (sinks, spawns,
   taints) at module init; give them a summary record. *)
and top_effects x ~mpath ~name ~site rhs =
  extract_fn x ~key:(dotted (mpath @ [ name ])) ~site ~bound:SS.empty rhs

let extract ~file text =
  let x =
    {
      x_file = file;
      x_track_sinks =
        (let has sub =
           let rec go i =
             i + String.length sub <= String.length file
             && (String.sub file i (String.length sub) = sub || go (i + 1))
           in
           go 0
         in
         (not (has "lib/store/")) && Filename.basename file <> "atomic_file.ml");
      x_aliases = Hashtbl.create 8;
      x_fns = [];
      x_globals = [];
      x_locals = [];
      x_fn_meta = [];
    }
  in
  (match
     let lexbuf = Lexing.from_string text in
     Location.init lexbuf file;
     Parse.implementation lexbuf
   with
  | str -> walk_structure x ~mpath:[ module_name_of_file file ] str
  | exception _ -> ());
  {
    sum_file = file;
    sum_fns = List.rev x.x_fns;
    sum_globals = List.rev x.x_globals;
    sum_locals = List.rev x.x_locals;
  }

(* {1 Link phase: name resolution, effect closure, rule evaluation} *)

type target = Tfn of string | Tglobal of string | Tnone

type linked = {
  l_fns : (string, string * fn) Hashtbl.t;      (* key → file, record *)
  l_globals : (string, string * global) Hashtbl.t;
  l_fn_keys : string list;                      (* deterministic order *)
  l_resolve_memo : (string, target) Hashtbl.t;
}

let build_link summaries =
  let l_fns = Hashtbl.create 512 and l_globals = Hashtbl.create 16 in
  let keys = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun f ->
          if not (Hashtbl.mem l_fns f.fn_key) then begin
            Hashtbl.replace l_fns f.fn_key (s.sum_file, f);
            keys := f.fn_key :: !keys
          end)
        s.sum_fns;
      List.iter
        (fun g ->
          if not (Hashtbl.mem l_globals g.g_key) then
            Hashtbl.replace l_globals g.g_key (s.sum_file, g))
        s.sum_globals)
    summaries;
  { l_fns; l_globals; l_fn_keys = List.rev !keys;
    l_resolve_memo = Hashtbl.create 1024 }

(* Resolve a dotted name as seen from [caller]: innermost enclosing
   scope outward, then the bare path, then a unique dotted-suffix
   match. Functions shadow globals at equal depth; unresolved names
   are silent (over-approximation loses recall, never precision). *)
let resolve ln ~caller path =
  let memo_key = caller ^ "\000" ^ path in
  match Hashtbl.find_opt ln.l_resolve_memo memo_key with
  | Some t -> t
  | None ->
      let contexts =
        let parts = String.split_on_char '.' caller in
        let rec prefixes acc = function
          | [] -> acc
          | _ :: _ as l ->
              let without_last =
                List.filteri (fun i _ -> i < List.length l - 1) l
              in
              prefixes (String.concat "." l :: acc) without_last
        in
        List.rev (prefixes [] parts) @ [ "" ]
      in
      let lookup candidate =
        match Hashtbl.find_opt ln.l_fns candidate with
        | Some _ -> Some (Tfn candidate)
        | None -> (
            match Hashtbl.find_opt ln.l_globals candidate with
            | Some _ -> Some (Tglobal candidate)
            | None -> None)
      in
      let direct =
        List.find_map
          (fun ctx ->
            lookup (if ctx = "" then path else ctx ^ "." ^ path))
          contexts
      in
      let result =
        match direct with
        | Some t -> t
        | None -> (
            let suffix = "." ^ path in
            let ends_with k =
              let lk = String.length k and ls = String.length suffix in
              lk > ls && String.sub k (lk - ls) ls = suffix
            in
            match List.filter ends_with ln.l_fn_keys with
            | [ k ] -> Tfn k
            | _ -> (
                let gks =
                  Hashtbl.fold
                    (fun k _ acc -> if ends_with k then k :: acc else acc)
                    ln.l_globals []
                in
                match gks with [ k ] -> Tglobal k | _ -> Tnone))
      in
      Hashtbl.replace ln.l_resolve_memo memo_key result;
      result

type eff = {
  (* gkey, write file, write line, call chain, mutex-guarded *)
  e_writes : (string * string * int * string list * bool) list;
  e_reads : (string * string * int * string list * bool) list;
  e_taints : (taint * string * string list) list;
}

let empty_eff = { e_writes = []; e_reads = []; e_taints = [] }

let effects_memo : (string, eff) Hashtbl.t = Hashtbl.create 512

let rec effects ln ~stack key =
  match Hashtbl.find_opt effects_memo key with
  | Some e -> e
  | None ->
      if SS.mem key stack then empty_eff
      else begin
        match Hashtbl.find_opt ln.l_fns key with
        | None -> empty_eff
        | Some (file, fn) ->
            let stack = SS.add key stack in
            let writes = ref [] and reads = ref [] and taints = ref [] in
            let add_global_write gkey line =
              writes := (gkey, file, line, [], false) :: !writes
            in
            List.iter
              (fun (w, line) ->
                match resolve ln ~caller:key w with
                | Tglobal g -> add_global_write g line
                | _ -> ())
              fn.fn_writes;
            List.iter
              (fun (r, line) ->
                match resolve ln ~caller:key r with
                | Tglobal g -> reads := (g, file, line, [], false) :: !reads
                | _ -> ())
              fn.fn_reads;
            List.iter (fun t -> taints := (t, file, []) :: !taints)
              fn.fn_taints;
            List.iter
              (fun (c, line) ->
                match resolve ln ~caller:key c with
                | Tglobal g ->
                    (* calling a closure-state global runs its hidden
                       mutation and carries its taints *)
                    let gfile, grec = Hashtbl.find ln.l_globals g in
                    if grec.g_kind = "closure" then begin
                      add_global_write g line;
                      List.iter
                        (fun t -> taints := (t, gfile, [ g ]) :: !taints)
                        grec.g_taints
                    end
                | Tfn callee when callee <> key ->
                    let e = effects ln ~stack callee in
                    let callee_locks =
                      match Hashtbl.find_opt ln.l_fns callee with
                      | Some (_, cf) -> cf.fn_locks
                      | None -> false
                    in
                    List.iter
                      (fun (g, wf, wl, chain, locked) ->
                        writes :=
                          (g, wf, wl, callee :: chain,
                           locked || callee_locks)
                          :: !writes)
                      e.e_writes;
                    List.iter
                      (fun (g, rf, rl, chain, locked) ->
                        reads :=
                          (g, rf, rl, callee :: chain,
                           locked || callee_locks)
                          :: !reads)
                      e.e_reads;
                    List.iter
                      (fun (t, tf, chain) ->
                        taints := (t, tf, callee :: chain) :: !taints)
                      e.e_taints
                | _ -> ())
              fn.fn_calls;
            let e =
              { e_writes = List.rev !writes; e_reads = List.rev !reads;
                e_taints = List.rev !taints }
            in
            Hashtbl.replace effects_memo key e;
            e
      end

(* Which functions (transitively) contain a real persistence sink? *)
let reaches_memo : (string, string option) Hashtbl.t = Hashtbl.create 512

let rec reaches_sink ln ~stack key =
  match Hashtbl.find_opt reaches_memo key with
  | Some r -> r
  | None ->
      if SS.mem key stack then None
      else begin
        match Hashtbl.find_opt ln.l_fns key with
        | None -> None
        | Some (_, fn) ->
            let stack = SS.add key stack in
            let direct =
              List.find_map
                (fun sk -> if sk.sk_potential then None else Some sk.sk_name)
                fn.fn_sinks
            in
            let r =
              match direct with
              | Some _ -> direct
              | None ->
                  List.find_map
                    (fun (c, _) ->
                      match resolve ln ~caller:key c with
                      | Tfn callee when callee <> key ->
                          reaches_sink ln ~stack callee
                      | _ -> None)
                    fn.fn_calls
            in
            Hashtbl.replace reaches_memo key r;
            r
      end

let chain_text chain =
  match chain with
  | [] -> ""
  | _ ->
      let shown =
        if List.length chain <= 4 then chain
        else List.filteri (fun i _ -> i < 4) chain @ [ "…" ]
      in
      " via " ^ String.concat " → " shown

let rule_of_tkind = function
  | Clock -> "RTL201"
  | Order -> "RTL202"
  | Marshal -> "RTL203"
  | Poly -> "RTL204"

let taint_noun = function
  | Clock -> "a wall-clock value"
  | Order -> "Hashtbl iteration order"
  | Marshal -> "Marshal bytes"
  | Poly -> "a polymorphic hash/compare result"

let taint_advice = function
  | Clock -> "derive persisted data from trace time, not the host clock"
  | Order -> "sort entries before rendering"
  | Marshal -> "use the canonical codecs in lib/store"
  | Poly -> "use the monomorphic Depval/Depfun operations"

let link_findings summaries =
  Hashtbl.reset effects_memo;
  Hashtbl.reset reaches_memo;
  let ln = build_link summaries in
  let findings = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* one finding per (rule, site): the first witness sink found in
     deterministic file order speaks for all of them *)
  let emit ~file ~site ~rule ~severity msg =
    let k =
      Printf.sprintf "%s|%s|%d|%d" rule file site.s_line site.s_col
    in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      findings :=
        F.v
          ~pos:(F.at ~file ~line:site.s_line ~col:site.s_col)
          ~rule ~severity msg
        :: !findings
    end
  in
  (* written-anywhere index for RTL102 *)
  let written = Hashtbl.create 16 in
  List.iter
    (fun key ->
      let e = effects ln ~stack:SS.empty key in
      List.iter
        (fun (g, _, _, _, _) -> Hashtbl.replace written g ())
        e.e_writes)
    ln.l_fn_keys;
  (* RTL1xx: spawn sites *)
  let race_seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun fn ->
          List.iter
            (fun sp ->
              List.iter
                (fun entry ->
                  match resolve ln ~caller:fn.fn_key entry with
                  | Tfn k ->
                      let e = effects ln ~stack:SS.empty k in
                      let entry_locks =
                        match Hashtbl.find_opt ln.l_fns k with
                        | Some (_, ef) -> ef.fn_locks
                        | None -> false
                      in
                      List.iter
                        (fun (g, wf, wl, chain, locked) ->
                          let _, grec = Hashtbl.find ln.l_globals g in
                          let dedup =
                            Printf.sprintf "101|%s|%d|%s" s.sum_file
                              sp.sp_site.s_line g
                          in
                          if
                            (not grec.g_protected)
                            && (not locked) && (not entry_locks)
                            && not (Hashtbl.mem race_seen dedup)
                          then begin
                            Hashtbl.replace race_seen dedup ();
                            emit ~file:s.sum_file ~site:sp.sp_site
                              ~rule:"RTL101" ~severity:F.Error
                              (Printf.sprintf
                                 "closure given to %s mutates top-level \
                                  mutable %s (%s:%d) — write at %s:%d%s \
                                  without Atomic/Mutex; make the state \
                                  Atomic or return results by value"
                                 sp.sp_what g
                                 (fst (Hashtbl.find ln.l_globals g))
                                 grec.g_site.s_line wf wl
                                 (chain_text (k :: chain)))
                          end)
                        e.e_writes;
                      List.iter
                        (fun (g, rf, rl, chain, locked) ->
                          let _, grec = Hashtbl.find ln.l_globals g in
                          let dedup101 =
                            Printf.sprintf "101|%s|%d|%s" s.sum_file
                              sp.sp_site.s_line g
                          in
                          let dedup =
                            Printf.sprintf "102|%s|%d|%s" s.sum_file
                              sp.sp_site.s_line g
                          in
                          if
                            (not grec.g_protected)
                            && (not locked) && (not entry_locks)
                            && Hashtbl.mem written g
                            && (not (Hashtbl.mem race_seen dedup101))
                            && not (Hashtbl.mem race_seen dedup)
                          then begin
                            Hashtbl.replace race_seen dedup ();
                            emit ~file:s.sum_file ~site:sp.sp_site
                              ~rule:"RTL102" ~severity:F.Warning
                              (Printf.sprintf
                                 "closure given to %s reads top-level \
                                  mutable %s (%s:%d) at %s:%d%s while \
                                  other code writes it; snapshot it \
                                  before spawning or make it Atomic"
                                 sp.sp_what g
                                 (fst (Hashtbl.find ln.l_globals g))
                                 grec.g_site.s_line rf rl
                                 (chain_text (k :: chain)))
                          end)
                        e.e_reads
                  | Tglobal _ | Tnone -> ())
                sp.sp_entries)
            fn.fn_spawns)
        s.sum_fns)
    summaries;
  (* RTL2xx: taint sources feeding sinks, anchored at the source *)
  List.iter
    (fun s ->
      List.iter
        (fun fn ->
          List.iter
            (fun sk ->
              let witness =
                if not sk.sk_potential then Some sk.sk_name
                else
                  match resolve ln ~caller:fn.fn_key sk.sk_name with
                  | Tfn callee -> (
                      match reaches_sink ln ~stack:SS.empty callee with
                      | Some under ->
                          Some (Printf.sprintf "%s (→ %s)" sk.sk_name under)
                      | None -> None)
                  | _ -> None
              in
              match witness with
              | None -> ()
              | Some wname ->
                  let sources =
                    List.map (fun t -> (t, s.sum_file, [])) sk.d_taints
                    @ List.concat_map
                        (fun (c, _) ->
                          match resolve ln ~caller:fn.fn_key c with
                          | Tfn callee ->
                              let e = effects ln ~stack:SS.empty callee in
                              List.map
                                (fun (t, tf, chain) ->
                                  (t, tf, callee :: chain))
                                e.e_taints
                          | Tglobal g ->
                              let gfile, grec =
                                Hashtbl.find ln.l_globals g
                              in
                              List.map
                                (fun t -> (t, gfile, [ g ]))
                                grec.g_taints
                          | Tnone -> [])
                        sk.d_calls
                  in
                  List.iter
                    (fun (t, tfile, chain) ->
                      emit ~file:tfile ~site:t.t_site
                        ~rule:(rule_of_tkind t.t_kind) ~severity:F.Error
                        (Printf.sprintf
                           "%s from %s flows into persisted bytes \
                            (reaches %s at %s:%d%s); %s"
                           (taint_noun t.t_kind) t.t_what wname s.sum_file
                           sk.sk_site.s_line (chain_text chain)
                           (taint_advice t.t_kind)))
                    sources)
            fn.fn_sinks)
        s.sum_fns)
    summaries;
  List.rev !findings

(* {1 Whole-run drivers} *)

type run = {
  r_findings : F.t list;
  r_files : int;
  r_table : string;            (* --summaries dump *)
}

(* Union of deep findings, per-file shallow findings and local RTL3xx
   findings, with suppressions applied once over the combined set and
   stale allow-comments reported (RTL998). *)
let finalize sources summaries =
  let deep = link_findings summaries in
  let locals = List.concat_map (fun s -> s.sum_locals) summaries in
  let cross = deep @ locals in
  let in_file file (f : F.t) =
    match f.pos with Some p -> p.file = file | None -> false
  in
  let homeless =
    List.filter
      (fun (f : F.t) ->
        not (List.exists (fun (file, _) -> in_file file f) sources))
      cross
  in
  let per_file =
    List.concat_map
      (fun (file, text) ->
        let raw = Lint.lint_raw ~file text @ List.filter (in_file file) cross in
        let kept, consumed = Lint.apply_suppressions ~file ~text raw in
        let stale =
          List.filter
            (fun (s : Lint.suppression) ->
              not
                (List.exists
                   (fun (l, r) -> l = s.Lint.s_line && r = s.Lint.s_rule)
                   consumed))
            (Lint.scan_suppressions text)
        in
        kept
        @ List.map
            (fun (s : Lint.suppression) ->
              F.v
                ~pos:(F.at ~file ~line:s.Lint.s_line ~col:0)
                ~rule:"RTL998" ~severity:F.Warning
                (Printf.sprintf
                   "suppression of %s matches no finding here; remove \
                    the stale allow-comment"
                   s.Lint.s_rule))
            stale)
      sources
  in
  F.sort (homeless @ per_file)

let dump_table summaries =
  let b = Buffer.create 1024 in
  List.iter
    (fun s ->
      List.iter
        (fun fn ->
          let flags =
            String.concat ""
              [
                (if fn.fn_locks then " lock" else "");
                (if fn.fn_raises then " raise" else "");
                (if fn.fn_loop_alloc then " loop-alloc" else "");
                (match fn.fn_closure with
                | No_closure -> ""
                | Plain_closure -> " closure-state"
                | Atomic_closure -> " closure-state(atomic)");
                (if fn.fn_spawns <> [] then " spawn" else "");
                (if
                   List.exists (fun sk -> not sk.sk_potential) fn.fn_sinks
                 then " sink"
                 else "");
              ]
          in
          let taints =
            List.sort_uniq String.compare
              (List.map (fun t -> tkind_to_string t.t_kind) fn.fn_taints)
          in
          Buffer.add_string b
            (Printf.sprintf "%-48s %s:%d%s%s calls=%d writes=%d\n" fn.fn_key
               s.sum_file fn.fn_site.s_line flags
               (match taints with
               | [] -> ""
               | l -> " taints=" ^ String.concat "," l)
               (List.length fn.fn_calls)
               (List.length fn.fn_writes)))
        s.sum_fns)
    summaries;
  Buffer.contents b

let summarize sources =
  List.map (fun (file, text) -> extract ~file text) sources

let analyze_sources sources = finalize sources (summarize sources)

let analyze_paths paths =
  match Lint.ml_files_under paths with
  | Error e -> Error e
  | Ok files ->
      let sources = List.map (fun f -> (f, Rt_util.Atomic_file.read f)) files in
      let summaries = summarize sources in
      Ok
        {
          r_findings = finalize sources summaries;
          r_files = List.length files;
          r_table = dump_table summaries;
        }
