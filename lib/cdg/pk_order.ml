type t = {
  cdg : Cdg.t;
  ord : int array; (* channel -> position *)
  at : int array; (* position -> channel *)
  visited : int array; (* stamp marks *)
  mutable stamp : int;
  registered : (int * int, unit) Hashtbl.t;
      (* Edges this structure has accepted and not forgotten. DFS probes
         traverse only registered live edges: the CDG may hold a
         just-added path whose remaining dependencies are not ordered
         yet, and walking those would break the bounded-search invariant
         (their endpoints can sit anywhere in the order). A cycle is
         still always caught — at the insertion of its last unregistered
         edge. *)
}

(* Kahn's order over the CDG's live edges, all of which count as
   accepted; on an empty CDG this is the identity order. *)
let create cdg =
  let n = Graph.num_channels (Cdg.graph cdg) in
  let registered = Hashtbl.create 256 in
  let indeg = Array.make n 0 in
  Cdg.iter_edges cdg (fun c1 c2 _ ->
      Hashtbl.replace registered (c1, c2) ();
      indeg.(c2) <- indeg.(c2) + 1);
  let ord = Array.make n 0 and at = Array.make n 0 in
  let queue = Queue.create () in
  for c = 0 to n - 1 do
    if indeg.(c) = 0 then Queue.add c queue
  done;
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    ord.(c) <- !next;
    at.(!next) <- c;
    incr next;
    Cdg.iter_successors cdg c (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
  done;
  if !next < n then invalid_arg "Pk_order.create: the CDG is cyclic";
  { cdg; ord; at; visited = Array.make n 0; stamp = 0; registered }

let traversable t a b = Hashtbl.mem t.registered (a, b) && Cdg.live t.cdg ~c1:a ~c2:b

let position t c = t.ord.(c)

(* Forward DFS from [start] over live CDG edges, restricted to positions
   <= [bound]. Returns [false] if [target] is reached (cycle); collects
   visited nodes into [acc]. *)
let forward t start ~bound ~target acc =
  let rec dfs c =
    if c = target then false
    else begin
      t.visited.(c) <- t.stamp;
      acc := c :: !acc;
      Cdg.for_all_successors t.cdg c (fun s ->
          if t.ord.(s) <= bound && t.visited.(s) <> t.stamp && traversable t c s then dfs s else true)
    end
  in
  dfs start

(* Backward DFS from [start] over live CDG edges, restricted to positions
   >= [bound]. Predecessor iteration walks the fabric's channel adjacency:
   a CDG edge into channel c can only come from a channel ending where c
   starts, so candidate predecessors are the in-channels of c's source
   node — a radix-bounded set. *)
let backward t start ~bound acc =
  let g = Cdg.graph t.cdg in
  let rec dfs c =
    t.visited.(c) <- t.stamp;
    acc := c :: !acc;
    let src = (Graph.channel g c).Channel.src in
    Array.iter
      (fun p ->
        if t.ord.(p) >= bound && t.visited.(p) <> t.stamp && traversable t p c then dfs p)
      (Graph.in_channels g src)
  in
  dfs start

let insert t ~c1 ~c2 =
  if c1 = c2 then false
  else if t.ord.(c1) < t.ord.(c2) then begin
    (* order already consistent *)
    Hashtbl.replace t.registered (c1, c2) ();
    true
  end
  else begin
    let lower = t.ord.(c2) and upper = t.ord.(c1) in
    (* discover the affected region *)
    t.stamp <- t.stamp + 1;
    let fwd = ref [] in
    if not (forward t c2 ~bound:upper ~target:c1 fwd) then false (* cycle: c1 reachable from c2 *)
    else begin
      let fwd_nodes = !fwd in
      t.stamp <- t.stamp + 1;
      let bwd = ref [] in
      backward t c1 ~bound:lower bwd;
      let bwd_nodes = !bwd in
      (* Reassign the union's positions: the backward set (things that
         must precede c2's region) first, then the forward set, each in
         their existing relative order. *)
      let by_ord l = List.sort (fun a b -> compare t.ord.(a) t.ord.(b)) l in
      let nodes = by_ord bwd_nodes @ by_ord fwd_nodes in
      let slots = List.sort compare (List.map (fun c -> t.ord.(c)) nodes) in
      List.iter2
        (fun c slot ->
          t.ord.(c) <- slot;
          t.at.(slot) <- c)
        nodes slots;
      Hashtbl.replace t.registered (c1, c2) ();
      true
    end
  end

let forget t ~c1 ~c2 = Hashtbl.remove t.registered (c1, c2)

let consistent t =
  let ok = ref true in
  (* every registered live edge must respect the order *)
  Cdg.iter_edges t.cdg (fun c1 c2 _ ->
      if Hashtbl.mem t.registered (c1, c2) && t.ord.(c1) >= t.ord.(c2) then ok := false);
  (* ord and at must stay inverse permutations *)
  Array.iteri (fun c p -> if t.at.(p) <> c then ok := false) t.ord;
  !ok
