(* Work distribution is a single mutex-guarded round descriptor: a round
   publishes a [body] and a chunk counter, workers (and the caller) grab
   the next chunk index under the mutex and run it unlocked. Chunks are
   coarse (an index range, not an element), so the mutex is touched a few
   times per round and contention stays negligible next to the work. *)

type round = {
  body : int -> unit;
  chunks : int;
  mutable next : int;     (* next chunk index to hand out *)
  mutable running : int;  (* workers still inside this round *)
  mutable failure : exn option;  (* first exception, re-raised by caller *)
}

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t;     (* signalled when a round is published / shutdown *)
  done_ : Condition.t;    (* signalled when a round fully drains *)
  mutable current : round option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs

(* Runs [r.body] on chunk indices until the round drains. Called with
   [t.m] held; returns with it held. *)
let participate t (r : round) =
  r.running <- r.running + 1;
  while r.next < r.chunks do
    let i = r.next in
    r.next <- r.next + 1;
    Mutex.unlock t.m;
    (match r.body i with
     | () -> Mutex.lock t.m
     | exception e ->
       Mutex.lock t.m;
       if r.failure = None then r.failure <- Some e;
       r.next <- r.chunks (* abandon the remaining chunks *))
  done;
  r.running <- r.running - 1;
  if r.running = 0 then Condition.broadcast t.done_

let worker t () =
  Mutex.lock t.m;
  let rec loop () =
    match t.current with
    | Some r when r.next < r.chunks -> participate t r; loop ()
    | Some _ | None ->
      if t.stop then Mutex.unlock t.m
      else begin Condition.wait t.work t.m; loop () end
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    { jobs; m = Mutex.create (); work = Condition.create ();
      done_ = Condition.create (); current = None; stop = false;
      domains = [] }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  if jobs > 1 then
    at_exit (fun () ->
        (* Idempotent; releases the workers if the program never calls
           [shutdown] itself. *)
        Mutex.lock t.m;
        let live = not t.stop in
        t.stop <- true;
        Condition.broadcast t.work;
        Mutex.unlock t.m;
        if live then List.iter Domain.join t.domains);
  t

let shutdown t =
  Mutex.lock t.m;
  let live = not t.stop in
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  if live then List.iter Domain.join t.domains

let run t ~chunks body =
  if chunks > 0 then begin
    if t.jobs = 1 || chunks = 1 then
      for i = 0 to chunks - 1 do body i done
    else begin
      let r = { body; chunks; next = 0; running = 0; failure = None } in
      Mutex.lock t.m;
      if t.stop then begin
        Mutex.unlock t.m;
        invalid_arg "Domain_pool.run: pool is shut down"
      end;
      t.current <- Some r;
      Condition.broadcast t.work;
      participate t r;
      while r.running > 0 do Condition.wait t.done_ t.m done;
      t.current <- None;
      Mutex.unlock t.m;
      match r.failure with Some e -> raise e | None -> ()
    end
  end

let map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then Array.map f arr
  else begin
    let out = Array.make n None in
    (* A few chunks per domain balances load without descending into
       per-element locking. *)
    let chunks = min n (t.jobs * 4) in
    let per = (n + chunks - 1) / chunks in
    run t ~chunks (fun c ->
        let lo = c * per and hi = min n ((c + 1) * per) in
        for i = lo to hi - 1 do out.(i) <- Some (f arr.(i)) done);
    Array.map (function Some x -> x | None -> assert false) out
  end

let map_list t f l = Array.to_list (map t f (Array.of_list l))
