type t = {
  graph : Graph.t;
  heads : int array; (* channel -> the node it enters *)
  tails : int array; (* channel -> the node it leaves *)
  base : int array; (* turn ids, {!Graph.turn_base} *)
  slot : int array; (* {!Graph.turn_slot} *)
  ord : int array; (* channel -> position *)
  at : int array; (* position -> channel *)
  visited : int array; (* stamp marks *)
  mutable stamp : int;
  registered : Bytes.t;
      (* The accepted edges, one bit per turn: the layer's CDG. A path
         being placed registers its fresh dependencies one by one, and
         probes see only what is registered — a not-yet-inserted
         dependency sits anywhere in the order, and walking it would break
         the bounded-search invariant. A cycle is still always caught, at
         the insertion of its last edge. *)
  stack : int array; (* probe stack, then the affected region's channels *)
  fwd : int array; (* the forward probe's channels, then their positions *)
  bwd : int array; (* the backward probe's channels, then their positions *)
  pos : int array; (* the affected region's positions, ascending *)
}

let create graph =
  let n = Graph.num_channels graph in
  let base = Graph.turn_base graph in
  {
    graph;
    heads = Graph.heads graph;
    tails = Graph.tails graph;
    base;
    slot = Graph.turn_slot graph;
    ord = Array.init n Fun.id;
    at = Array.init n Fun.id;
    visited = Array.make n 0;
    stamp = 0;
    registered = Bytes.make ((base.(n) lsr 3) + 1) '\000';
    stack = Array.make n 0;
    fwd = Array.make n 0;
    bwd = Array.make n 0;
    pos = Array.make n 0;
  }

let bit t i = Char.code (Bytes.unsafe_get t.registered (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t i on =
  let byte = Char.code (Bytes.unsafe_get t.registered (i lsr 3)) and b = 1 lsl (i land 7) in
  Bytes.unsafe_set t.registered (i lsr 3) (Char.unsafe_chr (if on then byte lor b else byte land lnot b))

(* The turn id of (c1, c2), or -1 if c2 does not leave the node c1
   enters (no dependency can join them). *)
let turn t c1 c2 = if t.tails.(c2) <> t.heads.(c1) then -1 else t.base.(c1) + t.slot.(c2)

let mem t ~c1 ~c2 =
  let i = turn t c1 c2 in
  i >= 0 && bit t i

let position t c = t.ord.(c)

(* Forward DFS from [start] over accepted edges, restricted to positions
   <= [bound]. Returns -1 if [target] is reached (cycle), else the number
   of channels visited, which are [fwd.(0 .. n-1)]. A dependency out of
   channel c can only go to a channel leaving the node c enters, so
   candidate successors are that node's enabled out-channels — a
   radix-bounded set. *)
let forward t start ~bound ~target =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  t.visited.(start) <- stamp;
  t.fwd.(0) <- start;
  t.stack.(0) <- start;
  let nf = ref 1 and sp = ref 1 and found = ref false in
  while !sp > 0 && not !found do
    decr sp;
    let c = t.stack.(!sp) in
    let outs = Graph.out_channels t.graph t.heads.(c) and b = t.base.(c) in
    for k = 0 to Array.length outs - 1 do
      let s = outs.(k) in
      if (not !found) && t.ord.(s) <= bound && t.visited.(s) <> stamp && bit t (b + t.slot.(s)) then
        if s = target then found := true
        else begin
          t.visited.(s) <- stamp;
          t.fwd.(!nf) <- s;
          incr nf;
          t.stack.(!sp) <- s;
          incr sp
        end
    done
  done;
  if !found then -1 else !nf

(* Backward DFS from [start] over accepted edges, restricted to positions
   >= [bound]; candidate predecessors are the enabled in-channels of the
   node [start] leaves. Returns the number of channels visited, which are
   [bwd.(0 .. n-1)]. *)
let backward t start ~bound =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  t.visited.(start) <- stamp;
  t.bwd.(0) <- start;
  t.stack.(0) <- start;
  let nb = ref 1 and sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let c = t.stack.(!sp) in
    let ins = Graph.in_channels t.graph t.tails.(c) and sl = t.slot.(c) in
    for k = 0 to Array.length ins - 1 do
      let p = ins.(k) in
      if t.ord.(p) >= bound && t.visited.(p) <> stamp && bit t (t.base.(p) + sl) then begin
        t.visited.(p) <- stamp;
        t.bwd.(!nb) <- p;
        incr nb;
        t.stack.(!sp) <- p;
        incr sp
      end
    done
  done;
  !nb

(* Ascending in-place heapsort of [a.(0 .. n-1)]. *)
let sort_ints (a : int array) n =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        swap i c;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

(* The probes walk the enabled adjacency: an accepted edge they cannot
   reach from either end would hide every cycle through it. *)
let check_visible t c1 c2 =
  let g = t.graph in
  if not (Graph.channel_enabled g c1 && Graph.channel_enabled g c2) then
    invalid_arg "Pk_order.insert: disabled channel";
  if turn t c1 c2 < 0 then invalid_arg "Pk_order.insert: channels not adjacent"

let insert t ~c1 ~c2 =
  if c1 = c2 then false
  else begin
    check_visible t c1 c2;
    if t.ord.(c1) < t.ord.(c2) then begin
      (* order already consistent *)
      set_bit t (turn t c1 c2) true;
      true
    end
    else begin
      let lower = t.ord.(c2) and upper = t.ord.(c1) in
      (* discover the affected region *)
      let nf = forward t c2 ~bound:upper ~target:c1 in
      if nf < 0 then false (* cycle: c1 reachable from c2 *)
      else begin
        let nb = backward t c1 ~bound:lower in
        (* Reassign the union's positions: the backward set (things that
           must precede c2's region) first, then the forward set, each in
           their existing relative order. Each set becomes its sorted
           positions, read back through [at] before it changes. *)
        for i = 0 to nb - 1 do
          t.bwd.(i) <- t.ord.(t.bwd.(i))
        done;
        for i = 0 to nf - 1 do
          t.fwd.(i) <- t.ord.(t.fwd.(i))
        done;
        sort_ints t.bwd nb;
        sort_ints t.fwd nf;
        let nodes = t.stack in
        for i = 0 to nb - 1 do
          nodes.(i) <- t.at.(t.bwd.(i))
        done;
        for i = 0 to nf - 1 do
          nodes.(nb + i) <- t.at.(t.fwd.(i))
        done;
        (* the union's positions, ascending: merge the two sorted runs *)
        let i = ref 0 and j = ref 0 in
        for k = 0 to nb + nf - 1 do
          if !j >= nf || (!i < nb && t.bwd.(!i) < t.fwd.(!j)) then begin
            t.pos.(k) <- t.bwd.(!i);
            incr i
          end
          else begin
            t.pos.(k) <- t.fwd.(!j);
            incr j
          end
        done;
        for k = 0 to nb + nf - 1 do
          t.ord.(nodes.(k)) <- t.pos.(k);
          t.at.(t.pos.(k)) <- nodes.(k)
        done;
        set_bit t (turn t c1 c2) true;
        true
      end
    end
  end

let forget t ~c1 ~c2 =
  let i = turn t c1 c2 in
  if i >= 0 then set_bit t i false

let consistent t =
  let ok = ref true in
  let lstart = Graph.leaving_start t.graph and leaving = Graph.leaving t.graph in
  (* every accepted edge must respect the order *)
  Array.iteri
    (fun c1 v ->
      for j = 0 to lstart.(v + 1) - lstart.(v) - 1 do
        if bit t (t.base.(c1) + j) && t.ord.(c1) >= t.ord.(leaving.(lstart.(v) + j)) then ok := false
      done)
    t.heads;
  (* ord and at must stay inverse permutations *)
  Array.iteri (fun c p -> if t.at.(p) <> c then ok := false) t.ord;
  !ok
