type t = {
  mutable nodes : Node.t list; (* reversed *)
  mutable num_nodes : int;
  mutable channels : Channel.t list; (* reversed *)
  mutable num_channels : int;
  mutable reverse : (int * int) list; (* paired channel ids *)
  link_counts : (int * int, int) Hashtbl.t;
  mutable built : bool;
}

let create () =
  { nodes = []; num_nodes = 0; channels = []; num_channels = 0; reverse = []; link_counts = Hashtbl.create 64; built = false }

let max_multiplicity = 255

let check_open t = if t.built then invalid_arg "Builder: already built"

let add_node t kind name =
  check_open t;
  let id = t.num_nodes in
  t.nodes <- { Node.id; kind; name } :: t.nodes;
  t.num_nodes <- id + 1;
  id

let add_switch t ~name = add_node t Node.Switch name

let norm_pair a b = if a < b then (a, b) else (b, a)

let add_link t a b =
  check_open t;
  if a = b then invalid_arg "Builder.add_link: self link";
  if a < 0 || a >= t.num_nodes || b < 0 || b >= t.num_nodes then invalid_arg "Builder.add_link: unknown node";
  let c1 = t.num_channels in
  let c2 = c1 + 1 in
  t.channels <- { Channel.id = c2; src = b; dst = a } :: { Channel.id = c1; src = a; dst = b } :: t.channels;
  t.num_channels <- c2 + 1;
  t.reverse <- (c1, c2) :: t.reverse;
  let key = norm_pair a b in
  Hashtbl.replace t.link_counts key (1 + Option.value ~default:0 (Hashtbl.find_opt t.link_counts key));
  (c1, c2)

let add_terminal t ~name ~switch =
  let id = add_node t Node.Terminal name in
  let (_ : int * int) = add_link t id switch in
  id

let link_count t a b = Option.value ~default:0 (Hashtbl.find_opt t.link_counts (norm_pair a b))

let num_nodes t = t.num_nodes

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
