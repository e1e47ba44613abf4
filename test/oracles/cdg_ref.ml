type edge = {
  mutable count : int;
  mutable pairs : int list;
}

type t = {
  graph : Graph.t;
  adj : (int, edge) Hashtbl.t array; (* channel -> successor channel -> edge *)
  mutable num_edges : int;
  mutable num_paths : int;
}

let create graph =
  { graph; adj = Array.init (Graph.num_channels graph) (fun _ -> Hashtbl.create 4); num_edges = 0; num_paths = 0 }

let graph t = t.graph

let add_path t ~pair p =
  let n = Array.length p in
  for i = 0 to n - 2 do
    let c1 = p.(i) and c2 = p.(i + 1) in
    match Hashtbl.find_opt t.adj.(c1) c2 with
    | Some e ->
      e.count <- e.count + 1;
      e.pairs <- pair :: e.pairs
    | None ->
      Hashtbl.replace t.adj.(c1) c2 { count = 1; pairs = [ pair ] };
      t.num_edges <- t.num_edges + 1
  done;
  t.num_paths <- t.num_paths + 1

let rec drop_one x = function
  | [] -> None
  | y :: rest when y = x -> Some rest
  | y :: rest -> ( match drop_one x rest with None -> None | Some r -> Some (y :: r))

let remove_path t ~pair p =
  let n = Array.length p in
  for i = 0 to n - 2 do
    let c1 = p.(i) and c2 = p.(i + 1) in
    match Hashtbl.find_opt t.adj.(c1) c2 with
    | None -> invalid_arg "Cdg_ref.remove_path: edge not present"
    | Some e ->
      (match drop_one pair e.pairs with
      | None -> invalid_arg "Cdg_ref.remove_path: pair not on edge"
      | Some rest -> e.pairs <- rest);
      e.count <- e.count - 1;
      if e.count = 0 then begin
        Hashtbl.remove t.adj.(c1) c2;
        t.num_edges <- t.num_edges - 1
      end
  done;
  t.num_paths <- t.num_paths - 1

let live t ~c1 ~c2 = Hashtbl.mem t.adj.(c1) c2

let edge_count t ~c1 ~c2 =
  match Hashtbl.find_opt t.adj.(c1) c2 with Some e -> e.count | None -> 0

let edge_pairs t ~c1 ~c2 =
  match Hashtbl.find_opt t.adj.(c1) c2 with Some e -> e.pairs | None -> []

let successors t c =
  let out = Array.make (Hashtbl.length t.adj.(c)) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun c2 _ ->
      out.(!i) <- c2;
      incr i)
    t.adj.(c);
  out

let num_edges t = t.num_edges

let num_paths t = t.num_paths

let iter_edges t f =
  Array.iteri (fun c1 tbl -> Hashtbl.iter (fun c2 e -> f c1 c2 e.count) tbl) t.adj

(* Kahn's algorithm: acyclic iff every channel drains. *)
let is_acyclic t =
  let m = Array.length t.adj in
  let indeg = Array.make m 0 in
  iter_edges t (fun _ c2 _ -> indeg.(c2) <- indeg.(c2) + 1);
  let queue = Queue.create () in
  Array.iteri (fun c d -> if d = 0 then Queue.add c queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    incr seen;
    Hashtbl.iter
      (fun c2 _ ->
        indeg.(c2) <- indeg.(c2) - 1;
        if indeg.(c2) = 0 then Queue.add c2 queue)
      t.adj.(c)
  done;
  !seen = m
