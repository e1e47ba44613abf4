type t = {
  dims : int array;
  wrap : bool array;
  forward : (int, int array) Hashtbl.t;
  backward : (int array, int) Hashtbl.t;
}

let make ~dims ~wrap =
  if Array.length dims <> Array.length wrap then invalid_arg "Coords.make: dims/wrap mismatch";
  { dims = Array.copy dims; wrap = Array.copy wrap; forward = Hashtbl.create 64; backward = Hashtbl.create 64 }

let dims t = Array.copy t.dims

let wrap t = Array.copy t.wrap

let set t ~node ~coord =
  if Array.length coord <> Array.length t.dims then invalid_arg "Coords.set: wrong arity";
  Array.iteri
    (fun d x -> if x < 0 || x >= t.dims.(d) then invalid_arg "Coords.set: out of range")
    coord;
  let coord = Array.copy coord in
  Hashtbl.replace t.forward node coord;
  Hashtbl.replace t.backward coord node

let get t node = match Hashtbl.find_opt t.forward node with Some c -> Array.copy c | None -> raise Not_found

let mem t node = Hashtbl.mem t.forward node

let node_at t coord =
  match Hashtbl.find_opt t.backward coord with Some n -> n | None -> raise Not_found
