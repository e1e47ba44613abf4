module Pair = struct
  type id = int

  let encode ~num_terminals ~src_index ~dst_index =
    if src_index < 0 || src_index >= num_terminals || dst_index < 0 || dst_index >= num_terminals then
      invalid_arg "Route_store.Pair.encode: terminal index out of range";
    (src_index * num_terminals) + dst_index

  let decode ~num_terminals id =
    if num_terminals < 1 || id < 0 then invalid_arg "Route_store.Pair.decode";
    (id / num_terminals, id mod num_terminals)
end

type t = {
  graph : Graph.t;
  mutable buf : int array; (* one flat channel arena for every path *)
  mutable fill : int; (* arena high-water mark *)
  off : int array; (* pair id -> arena offset *)
  len : int array; (* pair id -> slice length, -1 = absent *)
  weight : int array option; (* pair id -> routes the slice stands for; None = all 1 *)
  mutable num_paths : int;
}

let create graph ~capacity =
  if capacity < 0 then invalid_arg "Route_store.create: capacity < 0";
  {
    graph;
    buf = Array.make (max 16 (min (4 * capacity) 65536)) 0;
    fill = 0;
    off = Array.make capacity 0;
    len = Array.make capacity (-1);
    weight = None;
    num_paths = 0;
  }

let of_arena ?weight graph ~buf ~off ~len ~num_paths =
  let capacity = Array.length off in
  if Array.length len <> capacity then invalid_arg "Route_store.of_arena: off and len differ in length";
  (match weight with
  | Some w when Array.length w <> capacity ->
    invalid_arg "Route_store.of_arena: weight and off differ in length"
  | _ -> ());
  let fill = Array.length buf and present = ref 0 in
  for pair = 0 to capacity - 1 do
    let l = len.(pair) in
    if l < -1 then invalid_arg "Route_store.of_arena: slice length below -1";
    if l >= 0 then begin
      let o = off.(pair) in
      if o < 0 || o > fill - l then invalid_arg "Route_store.of_arena: slice outside the arena";
      (match weight with
      | Some w when w.(pair) < 1 -> invalid_arg "Route_store.of_arena: weight below 1"
      | _ -> ());
      incr present
    end
  done;
  if !present <> num_paths then invalid_arg "Route_store.of_arena: num_paths does not match the slices";
  { graph; buf; fill; off; len; weight; num_paths }

let graph t = t.graph

let capacity t = Array.length t.off

let num_paths t = t.num_paths

let check_pair t pair =
  if pair < 0 || pair >= Array.length t.off then invalid_arg "Route_store: pair id out of range"

let mem t ~pair =
  check_pair t pair;
  t.len.(pair) >= 0

let ensure t n =
  let need = t.fill + n in
  if need > Array.length t.buf then begin
    let size = ref (2 * Array.length t.buf) in
    while !size < need do
      size := 2 * !size
    done;
    let fresh = Array.make !size 0 in
    Array.blit t.buf 0 fresh 0 t.fill;
    t.buf <- fresh
  end

let set_path t ~pair p =
  check_pair t pair;
  (* replacing: the old slice stays in the arena but is unreachable *)
  if t.len.(pair) < 0 then t.num_paths <- t.num_paths + 1;
  let n = Array.length p in
  ensure t n;
  Array.blit p 0 t.buf t.fill n;
  t.off.(pair) <- t.fill;
  t.len.(pair) <- n;
  t.fill <- t.fill + n

let absent pair = invalid_arg (Printf.sprintf "Route_store: pair %d has no path" pair)

let length t ~pair =
  check_pair t pair;
  let l = t.len.(pair) in
  if l < 0 then absent pair;
  l

let offset t ~pair =
  check_pair t pair;
  if t.len.(pair) < 0 then absent pair;
  t.off.(pair)

let get t ~pair i =
  let l = length t ~pair in
  if i < 0 || i >= l then invalid_arg "Route_store.get: index out of slice";
  t.buf.(t.off.(pair) + i)

let weight t ~pair =
  check_pair t pair;
  match t.weight with None -> 1 | Some w -> w.(pair)

let weights t = t.weight

let buffer t = t.buf

let offsets t = t.off

let lengths t = t.len

let to_path t ~pair = Array.sub t.buf (offset t ~pair) (length t ~pair)

let iter t ~pair f =
  let off = offset t ~pair and len = t.len.(pair) in
  for i = off to off + len - 1 do
    f t.buf.(i)
  done

let iter_pairs t f =
  for pair = 0 to Array.length t.off - 1 do
    if t.len.(pair) >= 0 then f pair
  done

let total_channels t =
  let total = ref 0 in
  iter_pairs t (fun pair -> total := !total + t.len.(pair));
  !total
