(* Bound search as streamed session passes; the contract lives in
   auto.mli. *)

type step = {
  bound : int;
  lub_changed : bool;
  elapsed_s : float;
  hypotheses : int;
}

type outcome = {
  session : Session.t;
  snapshot : Rt_engine.Engine.snapshot option;
  obs : Rt_obs.Registry.t option;
  bound : int;
  trajectory : step list;
}

let search ?(initial = 1) ?(max_bound = 256) ?mode ?eps ?window ?obs open_ =
  if initial < 1 then invalid_arg "Auto.search: initial bound must be >= 1";
  let pass bound =
    let obs = Option.map (fun f -> f ()) obs in
    let t0 = Rt_obs.Registry.now_ns () in
    let s, _ =
      Session.create ?mode ?eps ?window ?obs
        (Rt_engine.Engine.Heuristic { bound }) (open_ ())
    in
    let rec drain () =
      match Session.next s with
      | Error e -> Error e
      | Ok (Some _) -> drain ()
      | Ok None ->
        let snapshot = Session.finalize s in
        let elapsed_s =
          float_of_int (Rt_obs.Registry.now_ns () - t0) /. 1e9
        in
        Ok ({ session = s; snapshot; obs; bound; trajectory = [] }, elapsed_s)
    in
    drain ()
  in
  let rec go bound prev steps =
    Result.bind (pass bound) @@ fun (o, elapsed_s) ->
    let lub = Option.bind o.snapshot (fun s -> s.Rt_engine.Engine.lub) in
    let stable =
      match (prev, lub) with
      | Some p, Some l -> Rt_lattice.Depfun.equal p l
      | None, None -> true  (* consistently inconsistent *)
      | _ -> false
    in
    let hypotheses =
      Option.fold ~none:0
        ~some:(fun s -> List.length s.Rt_engine.Engine.hypotheses)
        o.snapshot
    in
    let steps =
      { bound; lub_changed = not stable; elapsed_s; hypotheses } :: steps
    in
    if stable || bound >= max_bound then
      Ok { o with trajectory = List.rev steps }
    else go (bound * 2) lub steps
  in
  go initial None []
