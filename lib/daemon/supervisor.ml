type policy = {
  max_restarts : int;
  backoff_base : float;
  backoff_cap : float;
  idle_timeout : float;
}

let default_policy =
  {
    max_restarts = 5;
    backoff_base = 0.1;
    backoff_cap = 5.0;
    idle_timeout = infinity;
  }

type phase =
  | Running
  | Backing_off of { until : float; reason : string }
  | Failed of string
  | Finalized

type t = {
  policy : policy;
  mutable phase : phase;
  mutable restarts : int;
  mutable last_data : float;
  mutable last_progress : float;
  mutable quarantined : bool;
}

let create ?(policy = default_policy) ~now () =
  {
    policy;
    phase = Running;
    restarts = 0;
    last_data = now;
    last_progress = now;
    quarantined = false;
  }

let phase t = t.phase

let restarts t = t.restarts

let quarantined t = t.quarantined

let set_quarantined t = t.quarantined <- true

let backoff_delay p ~restart =
  let exp = float_of_int (max 0 (restart - 1)) in
  Float.min p.backoff_cap (p.backoff_base *. (2.0 ** exp))

let note_data t ~now = t.last_data <- now

let note_progress t ~now = t.last_progress <- now

let note_crash t ~now ~reason =
  if t.restarts >= t.policy.max_restarts then begin
    t.phase <- Failed reason;
    `Failed
  end
  else begin
    t.restarts <- t.restarts + 1;
    let until = now +. backoff_delay t.policy ~restart:t.restarts in
    t.phase <- Backing_off { until; reason };
    `Backoff until
  end

let note_restart t ~now =
  t.phase <- Running;
  t.last_data <- now;
  t.last_progress <- now

let fail t ~reason = t.phase <- Failed reason

let finalize t = t.phase <- Finalized

type verdict = Continue | Restart | Idle

let poll t ~now =
  match t.phase with
  | Failed _ | Finalized -> Continue
  | Backing_off { until; _ } -> if now >= until then Restart else Continue
  | Running ->
    if now -. Float.max t.last_data t.last_progress > t.policy.idle_timeout
    then Idle
    else Continue
