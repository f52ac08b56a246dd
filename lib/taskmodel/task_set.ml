type t = { names : string array; by_name : (string, int) Hashtbl.t }

let of_names names =
  if Array.length names = 0 then invalid_arg "Task_set.of_names: empty";
  let by_name = Hashtbl.create (Array.length names) in
  Array.iteri (fun i n ->
      if Hashtbl.mem by_name n then
        invalid_arg ("Task_set.of_names: duplicate name " ^ n);
      Hashtbl.add by_name n i)
    names;
  { names = Array.copy names; by_name }

let numbered n = of_names (Array.init n (fun i -> Printf.sprintf "t%d" (i + 1)))

let size t = Array.length t.names

let name t i =
  if i < 0 || i >= Array.length t.names then
    invalid_arg "Task_set.name: index out of range";
  t.names.(i)

let names t = Array.copy t.names

let index t n = Hashtbl.find_opt t.by_name n

let equal a b = a.names = b.names

let pp ppf t =
  Format.fprintf ppf "{%s}" (String.concat ", " (Array.to_list t.names))
