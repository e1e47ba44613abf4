type t = {
  mutable nodes : Node.t list; (* reversed *)
  mutable num_nodes : int;
  mutable channels : Channel.t list; (* reversed *)
  mutable num_channels : int;
  mutable reverse : (int * int) list; (* paired channel ids *)
  mutable built : bool;
}

let create () =
  { nodes = []; num_nodes = 0; channels = []; num_channels = 0; reverse = []; built = false }

let max_multiplicity = 255

let max_nodes = 1 lsl 20

let size_product factors =
  List.fold_left (fun acc f -> if f <> 0 && acc > max_nodes / f then max_nodes + 1 else acc * f) 1 factors

let size_power base e =
  if base <= 1 then if e = 0 then 1 else base
  else
    let rec go acc e = if e = 0 || acc > max_nodes then acc else go (size_product [ acc; base ]) (e - 1) in
    go 1 e

let check_nodes ~what n =
  if n > max_nodes then
    invalid_arg (Printf.sprintf "%s: more than %d nodes, the bound on a generated fabric" what max_nodes)

let check_open t = if t.built then invalid_arg "Builder: already built"

let add_node t kind name =
  check_open t;
  let id = t.num_nodes in
  t.nodes <- { Node.id; kind; name } :: t.nodes;
  t.num_nodes <- id + 1;
  id

let add_switch t ~name = add_node t Node.Switch name

let add_link t a b =
  check_open t;
  if a = b then invalid_arg "Builder.add_link: self link";
  if a < 0 || a >= t.num_nodes || b < 0 || b >= t.num_nodes then invalid_arg "Builder.add_link: unknown node";
  let c1 = t.num_channels in
  let c2 = c1 + 1 in
  t.channels <- { Channel.id = c2; src = b; dst = a } :: { Channel.id = c1; src = a; dst = b } :: t.channels;
  t.num_channels <- c2 + 1;
  t.reverse <- (c1, c2) :: t.reverse;
  (c1, c2)

let add_terminal t ~name ~switch =
  let id = add_node t Node.Terminal name in
  let (_ : int * int) = add_link t id switch in
  id

let build t =
  check_open t;
  t.built <- true;
  let nodes = Array.of_list (List.rev t.nodes) in
  let channels = Array.of_list (List.rev t.channels) in
  let reverse = Array.make (Array.length channels) (-1) in
  List.iter
    (fun (c1, c2) ->
      reverse.(c1) <- c2;
      reverse.(c2) <- c1)
    t.reverse;
  Graph.make ~nodes ~channels ~reverse
