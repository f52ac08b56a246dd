(* The one place in the tree allowed to open_out/Sys.rename persistence
   paths directly (rtlint RTL007 funnels everything else here). The
   stage/commit split exists so tests can stop a writer inside the
   crash window and observe that the destination is untouched. *)

module Fault = struct
  type kind = Fail | Prefix of int

  (* [armed] holds the operation number (1-based, counted from the
     arming) and the fault to act out there; [tripped] latches once it
     fired. Atomics, not refs: writers may run on pool domains. *)
  let armed : (int * kind) option Atomic.t = Atomic.make None
  let seen = Atomic.make 0
  let tripped_ = Atomic.make false

  let disarm () =
    Atomic.set armed None;
    Atomic.set seen 0;
    Atomic.set tripped_ false

  let arm ~at kind =
    if at < 1 then invalid_arg "Atomic_file.Fault.arm: at must be >= 1";
    disarm ();
    Atomic.set armed (Some (at, kind))

  let ops () = Atomic.get seen
  let tripped () = Atomic.get tripped_

  let dead path = raise (Sys_error (path ^ ": injected fault"))

  (* Once per write or append, before any byte moves: [None] lets it
     through, [Some kind] is the fault to act out. After the fault every
     operation fails untouched, as nothing outlives a dead process. *)
  let check path =
    if Atomic.get tripped_ then dead path;
    match Atomic.get armed with
    | None -> None
    | Some (at, kind) ->
      if 1 + Atomic.fetch_and_add seen 1 <> at then None
      else begin
        Atomic.set tripped_ true;
        Some kind
      end
end

let output_file flags path content =
  let oc = open_out_gen flags 0o666 path in
  try
    output_string oc content;
    close_out oc
  with e ->
    close_out_noerr oc;
    raise e

let create = [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
let append_only = [ Open_wronly; Open_append; Open_binary ]

(* Act out an armed fault: [Fail] leaves nothing, [Prefix k] the first
   [k] bytes, written with [flags] to [path]; then the process "dies". *)
let fault flags path content = function
  | Fault.Fail -> Fault.dead path
  | Fault.Prefix k ->
    let k = max 0 (min k (String.length content)) in
    output_file flags path (String.sub content 0 k);
    Fault.dead path

let stage path content =
  let tmp = path ^ ".tmp" in
  Option.iter (fault create tmp content) (Fault.check path);
  (try output_file create tmp content
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  tmp

let commit ~tmp path =
  if Fault.tripped () then Fault.dead path;
  try Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let abort ~tmp = try Sys.remove tmp with Sys_error _ -> ()

let read path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write path content = commit ~tmp:(stage path content) path

let append path content =
  Option.iter (fault append_only path content) (Fault.check path);
  output_file append_only path content

(* A parent that exists but is not a directory makes [Sys.mkdir] fail
   with ENOTDIR; a racing creator of the same directory is fine. *)
let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  match go dir with
  | exception Sys_error m -> Error m
  | () ->
    if (try Sys.is_directory dir with Sys_error _ -> false) then Ok ()
    else Error (dir ^ ": not a directory")
