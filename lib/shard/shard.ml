(* The sharded fold. The correctness story lives in shard.mli and
   DESIGN.md §14; the code is deliberately small: fold the bound-1
   companion models with the fused byte-matrix lub and one end-of-fold
   weakening pass under the union violation matrix. *)

module Df = Rt_lattice.Depfun
module Engine = Rt_engine.Engine

let union_violations parts =
  let ntasks = Array.length parts.(0) in
  let v = Array.make_matrix ntasks ntasks false in
  Array.iter
    (fun m ->
       for a = 0 to ntasks - 1 do
         for b = 0 to ntasks - 1 do
           if m.(a).(b) then v.(a).(b) <- true
         done
       done)
    parts;
  v

(* Any inconsistent shard means the whole trace is inconsistent;
   otherwise join the summaries in one fused pass and weaken once under
   the union matrix. *)
let fold_summaries parts =
  if Array.exists (fun (s, _) -> s = None) parts then None
  else begin
    let mats = Array.map (fun (s, _) -> Option.get s) parts in
    let model = Df.lub_many mats in
    let violated = union_violations (Array.map snd parts) in
    ignore (Df.weaken_violations model ~violated : int);
    Some model
  end

let fold_engines engines =
  if Array.length engines = 0 then
    invalid_arg "Shard.fold_engines: no engines";
  let parts =
    Array.map
      (fun e ->
         match (Engine.current e, Engine.violations e) with
         | [], Some v -> (None, v)
         | hs, Some v -> (Some (Df.lub hs), v)
         | _, None ->
           invalid_arg "Shard.fold_engines: exact-core engine has no fold")
      engines
  in
  fold_summaries parts
