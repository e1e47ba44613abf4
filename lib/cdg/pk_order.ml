type t = {
  graph : Graph.t;
  ord : int array; (* channel -> position *)
  at : int array; (* position -> channel *)
  visited : int array; (* stamp marks *)
  mutable stamp : int;
  registered : (int, unit) Hashtbl.t;
      (* The accepted edges, keyed [c1 * num_channels + c2]: the layer's
         CDG. A path being placed registers its fresh dependencies one by
         one, and probes see only what is registered — a not-yet-inserted
         dependency sits anywhere in the order, and walking it would break
         the bounded-search invariant. A cycle is still always caught, at
         the insertion of its last edge. *)
}

let create graph =
  let n = Graph.num_channels graph in
  {
    graph;
    ord = Array.init n Fun.id;
    at = Array.init n Fun.id;
    visited = Array.make n 0;
    stamp = 0;
    registered = Hashtbl.create 256;
  }

let key t c1 c2 = (c1 * Array.length t.ord) + c2

let mem t ~c1 ~c2 = Hashtbl.mem t.registered (key t c1 c2)

let position t c = t.ord.(c)

(* Forward DFS from [start] over accepted edges, restricted to positions
   <= [bound]. Returns [false] if [target] is reached (cycle); collects
   visited nodes into [acc]. A dependency out of channel c can only go to
   a channel leaving the node c enters, so candidate successors are that
   node's out-channels — a radix-bounded set. *)
let forward t start ~bound ~target acc =
  let rec dfs c =
    if c = target then false
    else begin
      t.visited.(c) <- t.stamp;
      acc := c :: !acc;
      Array.for_all
        (fun s -> if t.ord.(s) <= bound && t.visited.(s) <> t.stamp && mem t ~c1:c ~c2:s then dfs s else true)
        (Graph.out_channels t.graph (Graph.channel t.graph c).Channel.dst)
    end
  in
  dfs start

(* Backward DFS from [start] over accepted edges, restricted to positions
   >= [bound]; candidate predecessors are the in-channels of the node
   [start] leaves. *)
let backward t start ~bound acc =
  let rec dfs c =
    t.visited.(c) <- t.stamp;
    acc := c :: !acc;
    Array.iter
      (fun p -> if t.ord.(p) >= bound && t.visited.(p) <> t.stamp && mem t ~c1:p ~c2:c then dfs p)
      (Graph.in_channels t.graph (Graph.channel t.graph c).Channel.src)
  in
  dfs start

(* The probes walk the enabled adjacency: an accepted edge they cannot
   reach from either end would hide every cycle through it. *)
let check_visible t c1 c2 =
  let g = t.graph in
  if not (Graph.channel_enabled g c1 && Graph.channel_enabled g c2) then
    invalid_arg "Pk_order.insert: disabled channel";
  if (Graph.channel g c2).Channel.src <> (Graph.channel g c1).Channel.dst then
    invalid_arg "Pk_order.insert: channels not adjacent"

let insert t ~c1 ~c2 =
  if c1 = c2 then false
  else begin
    check_visible t c1 c2;
    if t.ord.(c1) < t.ord.(c2) then begin
      (* order already consistent *)
      Hashtbl.replace t.registered (key t c1 c2) ();
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
        Hashtbl.replace t.registered (key t c1 c2) ();
        true
      end
    end
  end

let forget t ~c1 ~c2 = Hashtbl.remove t.registered (key t c1 c2)

let consistent t =
  let n = Array.length t.ord in
  let ok = ref true in
  (* every accepted edge must respect the order *)
  Hashtbl.iter (fun k () -> if t.ord.(k / n) >= t.ord.(k mod n) then ok := false) t.registered;
  (* ord and at must stay inverse permutations *)
  Array.iteri (fun c p -> if t.at.(p) <> c then ok := false) t.ord;
  !ok
