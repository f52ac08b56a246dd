(* A checkpoint (or any whole-image) persistence slot: either a plain
   file, or a ref in a content-addressed store. Producers write the
   same bytes either way; the store variant additionally versions every
   write as a new generation, so a fleet of learners can exchange
   checkpoints with no extra transport format. *)

type t = File of string | Ref of Store.t * string

let of_string spec =
  match Store.split_address spec with
  | None -> Ok (File spec)
  | Some (dir, ref_) -> (
      match Store.init dir with
      | Error e -> Error e
      | Ok store -> Ok (Ref (store, ref_)))

let describe = function
  | File path -> path
  | Ref (store, ref_) -> Store.root store ^ "//" ^ ref_

let exists = function
  | File path -> Sys.file_exists path
  | Ref (store, ref_) -> (
      match Store.resolve store ref_ with Ok _ -> true | Error _ -> false)

let load = function
  | File path -> (
      match Rt_util.Atomic_file.read path with
      | content -> Ok content
      | exception Sys_error m -> Error m)
  | Ref (store, ref_) -> (
      match Store.resolve store ref_ with
      | Error e -> Error e
      | Ok entry -> Store.read_blob store entry.Store.address)

let save ?(kind = Store.Checkpoint) ?bound ?source ?(created_at = 0) t data =
  match t with
  | File path -> Rt_util.Atomic_file.write path data
  | Ref (store, ref_) -> (
      let meta =
        { Store.kind; bound; source; parents = []; created_at }
      in
      match Store.commit store ~ref_ ~meta data with
      | Ok _ -> ()
      | Error m -> raise (Sys_error m))

let discard = function
  | File path -> ( try Sys.remove path with Sys_error _ -> ())
  | Ref (store, ref_) -> (
      match Store.delete_ref store ref_ with Ok () | Error _ -> ())
