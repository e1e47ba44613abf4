open Netgraph

type t = {
  graph : Graph.t;
  algorithm : string;
  next : int array array; (* node id -> terminal index -> channel id or -1 *)
  mutable layers : Bytes.t array option; (* terminal index -> terminal index -> layer *)
  mutable num_layers : int;
  index_of : int array; (* node id -> terminal index or -1 *)
}

let create graph ~algorithm =
  let n = Graph.num_nodes graph in
  let terminals = Graph.terminals graph in
  let nt = Array.length terminals in
  let index_of = Array.make n (-1) in
  Array.iteri (fun i tid -> index_of.(tid) <- i) terminals;
  { graph; algorithm; next = Array.init n (fun _ -> Array.make nt (-1)); layers = None; num_layers = 1; index_of }

let graph t = t.graph

let algorithm t = t.algorithm

let dst_index t node =
  let i = t.index_of.(node) in
  if i < 0 then invalid_arg "Ftable.dst_index: not a terminal";
  i

let set_next t ~node ~dst ~channel =
  let c = Graph.channel t.graph channel in
  if c.Channel.src <> node then invalid_arg "Ftable.set_next: channel does not leave node";
  t.next.(node).(dst_index t dst) <- channel

let next t ~node ~dst =
  let c = t.next.(node).(dst_index t dst) in
  if c < 0 then None else Some c

(* A loop-free walk visits distinct nodes, so it takes at most
   num_nodes - 1 hops; the destination test precedes the bound test, so a
   Hamiltonian-length route still resolves while hop num_nodes proves a
   forwarding loop. *)
let hop_limit t = Graph.num_nodes t.graph - 1

let path t ~src ~dst =
  if src = dst then Some [||]
  else begin
    let di = dst_index t dst in
    let limit = hop_limit t in
    let rec follow node acc steps =
      if node = dst then Some (Array.of_list (List.rev acc))
      else if steps >= limit then None (* forwarding loop *)
      else
        let c = t.next.(node).(di) in
        if c < 0 then None
        else follow (Graph.channel t.graph c).Channel.dst (c :: acc) (steps + 1)
    in
    follow src [] 0
  end

let num_pairs t =
  let nt = Graph.num_terminals t.graph in
  nt * nt

let pair_id t ~src ~dst =
  let nt = Graph.num_terminals t.graph in
  Route_store.Pair.encode ~num_terminals:nt ~src_index:(dst_index t src) ~dst_index:(dst_index t dst)

let pair_of_id t id =
  let terminals = Graph.terminals t.graph in
  let si, di = Route_store.Pair.decode ~num_terminals:(Array.length terminals) id in
  (terminals.(si), terminals.(di))

let c_to_store =
  Obs.Registry.counter "routing.to_store" ~desc:"forwarding tables walked into a route store"

let t_to_store =
  Obs.Registry.timer "routing.to_store_walk" ~desc:"seconds per forwarding-table walk into a route store"

(* Walks toward one destination memoise every node's outcome in [memo]
   (unknown / [on_walk] / [failed] / hops), so every node is walked once
   per destination. A walk that revisits a node still on it is a
   forwarding loop: the walk is deterministic, so it would cycle forever,
   whereas one that reaches [dst] without a repeat visits distinct nodes
   and takes at most num_nodes - 1 hops — exactly the verdict of
   {!path}'s hop-limit walk. *)
let unknown = -1

let on_walk = -2

let failed = -3

(* [settle t ~head ~memo ~stack ~di u] is [u]'s hop count toward
   terminal index [di], or [failed]; it memoises every node the walk
   passes. *)
let settle t ~head ~memo ~stack ~di u =
  let u = ref u and top = ref 0 in
  while memo.(!u) = unknown do
    memo.(!u) <- on_walk;
    stack.(!top) <- !u;
    incr top;
    let c = t.next.(!u).(di) in
    if c < 0 then memo.(!u) <- failed else u := head.(c)
  done;
  (* [!u] is the dead end itself, a node on this walk, or a node settled
     by an earlier walk *)
  let base = if memo.(!u) = on_walk then failed else memo.(!u) in
  for k = !top - 1 downto 0 do
    memo.(stack.(k)) <- (if base = failed then failed else base + !top - k)
  done;
  if base = failed then failed else base + !top

let no_route t pair =
  let terminals = Graph.terminals t.graph in
  let nt = Array.length terminals in
  Error (Printf.sprintf "no loop-free route %d -> %d" terminals.(pair / nt) terminals.(pair mod nt))

(* ------------------------------------------------------------------ *)
(* Route classes                                                        *)
(* ------------------------------------------------------------------ *)

type classes = {
  store : Route_store.t;
  class_of_pair : int array;
}

let c_class_walks =
  Obs.Registry.counter "routing.class_walks" ~desc:"forwarding tables walked into a route-class store"

(* Pair (t, d) leaves t by [e = next t d] and then follows the walk of
   class (head e, d). Entry nodes — the heads of the channels leaving a
   terminal — are ranked by the smallest terminal index entering them,
   and class (s, d) gets id [rank s * nt + index d]; a class no pair
   enters stays absent. Three passes: every pair's class and each class's
   weight, in pair order; each class's hop count by a memoised walk per
   destination in which every terminal but the destination counts as
   failed; then one exactly-sized arena filled class by class. *)
let walk_classes t =
  let g = t.graph in
  let terminals = Graph.terminals g in
  let nt = Array.length terminals and n = Graph.num_nodes g in
  let head = Array.map (fun c -> c.Channel.dst) (Graph.channels g) in
  let first_in = Array.make n max_int in
  Array.iter
    (fun (c : Channel.t) ->
      let i = t.index_of.(c.src) in
      if i >= 0 && i < first_in.(c.dst) then first_in.(c.dst) <- i)
    (Graph.channels g);
  let entries = List.filter (fun v -> first_in.(v) < max_int) (List.init n Fun.id) in
  let entries = Array.of_list (List.stable_sort (fun a b -> compare first_in.(a) first_in.(b)) entries) in
  let ne = Array.length entries in
  let rank = Array.make n (-1) in
  Array.iteri (fun r v -> rank.(v) <- r) entries;
  let cap = ne * nt in
  let class_of_pair = Array.make (nt * nt) (-1) and weight = Array.make cap 0 in
  let dead = ref (-1) in
  for si = 0 to nt - 1 do
    let row = t.next.(terminals.(si)) and base = si * nt in
    (* one entry channel per terminal, as a rule: cache its class base *)
    let last = ref (-1) and kbase = ref 0 in
    for di = 0 to nt - 1 do
      if si <> di then begin
        let e = row.(di) in
        if e < 0 then (if !dead < 0 then dead := base + di)
        else begin
          if e <> !last then begin
            last := e;
            kbase := rank.(head.(e)) * nt
          end;
          let k = !kbase + di in
          weight.(k) <- weight.(k) + 1;
          class_of_pair.(base + di) <- k
        end
      end
    done
  done;
  let len = Array.make cap (-1) and failed_class = ref false in
  let memo = Array.make n unknown and stack = Array.make n 0 in
  let fresh = Array.make n unknown in
  Array.iter (fun v -> fresh.(v) <- failed) terminals;
  for di = 0 to nt - 1 do
    Array.blit fresh 0 memo 0 n;
    memo.(terminals.(di)) <- 0;
    for r = 0 to ne - 1 do
      let k = (r * nt) + di in
      if weight.(k) > 0 then begin
        let h = settle t ~head ~memo ~stack ~di entries.(r) in
        if h = failed then failed_class := true else len.(k) <- h
      end
    done
  done;
  if !failed_class || !dead >= 0 then begin
    (* the first pair in pair order with a dead first hop or a failed
       class *)
    let p = ref 0 in
    while
      let k = class_of_pair.(!p) in
      (k >= 0 && len.(k) >= 0) || (k < 0 && !p / nt = !p mod nt)
    do
      incr p
    done;
    no_route t !p
  end
  else begin
    let off = Array.make cap 0 and total = ref 0 and present = ref 0 in
    for k = 0 to cap - 1 do
      if len.(k) >= 0 then begin
        off.(k) <- !total;
        total := !total + len.(k);
        incr present
      end
    done;
    let buf = Array.make !total 0 in
    (* destination by destination: the walks toward one destination
       share the table column they read *)
    for di = 0 to nt - 1 do
      for r = 0 to ne - 1 do
        let k = (r * nt) + di in
        if len.(k) >= 0 then begin
          let u = ref entries.(r) in
          for o = off.(k) to off.(k) + len.(k) - 1 do
            let c = t.next.(!u).(di) in
            buf.(o) <- c;
            u := head.(c)
          done
        end
      done
    done;
    Ok { store = Route_store.of_arena ~weight g ~buf ~off ~len ~num_paths:!present; class_of_pair }
  end

let to_classes t =
  Obs.Counter.incr c_class_walks;
  walk_classes t

let entry t ~src_index ~dst_index = t.next.((Graph.terminals t.graph).(src_index)).(dst_index)

let expand t cls =
  let g = t.graph in
  let terminals = Graph.terminals g in
  let nt = Array.length terminals in
  let class_of_pair = cls.class_of_pair in
  if Array.length class_of_pair <> nt * nt then invalid_arg "Ftable.expand: classes do not match the table";
  let cbuf = Route_store.buffer cls.store
  and coff = Route_store.offsets cls.store
  and clen = Route_store.lengths cls.store in
  let off = Array.make (nt * nt) 0 and len = Array.make (nt * nt) (-1) in
  let total = ref 0 and present = ref 0 in
  for p = 0 to (nt * nt) - 1 do
    let k = class_of_pair.(p) in
    if k >= 0 then begin
      let l = 1 + clen.(k) in
      off.(p) <- !total;
      len.(p) <- l;
      total := !total + l;
      incr present
    end
  done;
  let buf = Array.make !total 0 in
  for si = 0 to nt - 1 do
    let row = t.next.(terminals.(si)) and base = si * nt in
    for di = 0 to nt - 1 do
      let k = class_of_pair.(base + di) in
      if k >= 0 then begin
        let o = off.(base + di) and co = coff.(k) in
        buf.(o) <- row.(di);
        for i = 1 to clen.(k) do
          buf.(o + i) <- cbuf.(co + i - 1)
        done
      end
    done
  done;
  Route_store.of_arena g ~buf ~off ~len ~num_paths:!present

(* The per-pair store is the expansion of the class walk; it bumps
   [routing.to_store], not [routing.class_walks]. *)
let to_store t =
  Obs.Counter.incr c_to_store;
  Obs.Timer.time t_to_store (fun () -> Result.map (expand t) (walk_classes t))

let iter_pairs t f =
  let terminals = Graph.terminals t.graph in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then
            match path t ~src ~dst with
            | Some p -> f ~src ~dst p
            | None -> failwith (Printf.sprintf "Ftable.iter_pairs: no route %d -> %d" src dst))
        terminals)
    terminals

let ensure_layers t =
  match t.layers with
  | Some l -> l
  | None ->
    let nt = Graph.num_terminals t.graph in
    let l = Array.init nt (fun _ -> Bytes.make (max nt 1) '\000') in
    t.layers <- Some l;
    l

let layer t ~src ~dst =
  match t.layers with
  | None -> 0
  | Some l -> Char.code (Bytes.get l.(dst_index t src) (dst_index t dst))

let set_layer t ~src ~dst vl =
  if vl < 0 || vl > 255 then invalid_arg "Ftable.set_layer: layer out of range";
  let l = ensure_layers t in
  Bytes.set l.(dst_index t src) (dst_index t dst) (Char.chr vl)

let num_layers t = t.num_layers

let max_layer_ids = 256

let set_num_layers t n =
  if n < 1 then invalid_arg "Ftable.set_num_layers";
  t.num_layers <- n

let set_pair_layers t layer_of_pair =
  let nt = Graph.num_terminals t.graph in
  if Array.length layer_of_pair <> nt * nt then invalid_arg "Ftable.set_pair_layers: wrong length";
  (* every layer is checked before any is written *)
  for si = 0 to nt - 1 do
    for di = 0 to nt - 1 do
      let vl = layer_of_pair.((si * nt) + di) in
      if si <> di && (vl < 0 || vl > 255) then invalid_arg "Ftable.set_pair_layers: layer out of range"
    done
  done;
  let l = ensure_layers t in
  for si = 0 to nt - 1 do
    let row = l.(si) in
    for di = 0 to nt - 1 do
      if si <> di then Bytes.unsafe_set row di (Char.unsafe_chr layer_of_pair.((si * nt) + di))
    done
  done

let set_class_layers t cls class_layer =
  let nt = Graph.num_terminals t.graph in
  let class_of_pair = cls.class_of_pair in
  if Array.length class_of_pair <> nt * nt then
    invalid_arg "Ftable.set_class_layers: classes do not match the table";
  if Array.length class_layer <> Route_store.capacity cls.store then
    invalid_arg "Ftable.set_class_layers: class_layer does not cover the classes";
  Array.iteri
    (fun k len ->
      let vl = class_layer.(k) in
      if len >= 0 && (vl < 0 || vl > 255) then invalid_arg "Ftable.set_class_layers: layer out of range")
    (Route_store.lengths cls.store);
  let l = ensure_layers t in
  for si = 0 to nt - 1 do
    let row = l.(si) and base = si * nt in
    for di = 0 to nt - 1 do
      let k = class_of_pair.(base + di) in
      if k >= 0 then Bytes.unsafe_set row di (Char.unsafe_chr class_layer.(k))
    done
  done

let pair_layers t =
  let nt = Graph.num_terminals t.graph in
  let out = Array.make (nt * nt) 0 in
  (match t.layers with
  | None -> ()
  | Some l ->
    for si = 0 to nt - 1 do
      let row = l.(si) in
      for di = 0 to nt - 1 do
        out.((si * nt) + di) <- Char.code (Bytes.unsafe_get row di)
      done
    done);
  for i = 0 to nt - 1 do
    out.((i * nt) + i) <- -1
  done;
  out

let max_layer t =
  match t.layers with
  | None -> 0
  | Some l ->
    let top = ref 0 in
    Array.iteri
      (fun si row ->
        Bytes.iteri (fun di c -> if si <> di && Char.code c > !top then top := Char.code c) row)
      l;
    !top

type diff = {
  dsts_changed : int;
  entries_changed : int;
  per_dst : (int * int) array;
}

let diff a b =
  let ga = a.graph and gb = b.graph in
  if Graph.num_nodes ga <> Graph.num_nodes gb then invalid_arg "Ftable.diff: node count mismatch";
  let ta = Graph.terminals ga and tb = Graph.terminals gb in
  if ta <> tb then invalid_arg "Ftable.diff: terminal sets differ";
  let n = Graph.num_nodes ga in
  let per_dst = ref [] and entries = ref 0 in
  Array.iteri
    (fun di dst ->
      let changed = ref 0 in
      for u = 0 to n - 1 do
        if a.next.(u).(di) <> b.next.(u).(di) then incr changed
      done;
      if !changed > 0 then begin
        per_dst := (dst, !changed) :: !per_dst;
        entries := !entries + !changed
      end)
    ta;
  let per_dst = Array.of_list (List.rev !per_dst) in
  { dsts_changed = Array.length per_dst; entries_changed = !entries; per_dst }

type stats = {
  pairs : int;
  max_hops : int;
  avg_hops : float;
  minimal : bool;
}

(* [dist.(u)] := hops from [u] to [root] over the enabled channels
   ([max_int] if unreachable), by BFS on the reversed graph. *)
let bfs_to g ~dist ~queue root =
  Array.fill dist 0 (Array.length dist) max_int;
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let ins = Graph.in_channels g v in
    for i = 0 to Array.length ins - 1 do
      let u = (Graph.channel g ins.(i)).Channel.src in
      if dist.(u) = max_int then begin
        dist.(u) <- dist.(v) + 1;
        queue.(!tail) <- u;
        incr tail
      end
    done
  done

(* The BFS that measures distances to destination [d]: a destination
   entered by one channel only, from [w], is [1 + d(u, w)] away from
   every other node [u] — a shortest walk to [w] never passes it — so
   all destinations fed by [w] (the terminals of one switch) share one
   BFS from [w]; any other destination gets its own. *)
let bfs_root t di =
  let g = t.graph in
  let dst = (Graph.terminals g).(di) in
  let ins = Graph.in_channels g dst in
  if Array.length ins = 1 then ((Graph.channel g ins.(0)).Channel.src, true) else (dst, false)

(* [distances t] is the destination indices ordered so that those sharing
   a BFS are adjacent, and a function from a destination index (taken in
   that order) to [dist_d], the hop distance of every node to that
   destination over the enabled channels; [dist_d] is valid until the
   next call. *)
let distances t =
  let g = t.graph in
  let terminals = Graph.terminals g in
  let n = Graph.num_nodes g in
  let order = Array.init (Array.length terminals) Fun.id in
  let root = Array.map (bfs_root t) order in
  Array.stable_sort (fun a b -> compare root.(a) root.(b)) order;
  let dist = Array.make n max_int and queue = Array.make n 0 in
  let searched = ref (-1, false) in
  let dist_to di =
    let dst = terminals.(di) in
    let ((w, via) as r) = root.(di) in
    if !searched <> r then begin
      bfs_to g ~dist ~queue w;
      searched := r
    end;
    fun u ->
      let d = dist.(u) in
      if via && u <> dst && d < max_int then d + 1 else if via && u = dst then 0 else d
  in
  (order, dist_to)

let stats ~pairs ~total_hops ~max_hops ~minimal =
  {
    pairs;
    max_hops;
    avg_hops = (if pairs = 0 then 0.0 else float_of_int total_hops /. float_of_int pairs);
    minimal;
  }

(* Statistics from every pair's hop count [hops pair], compared with the
   BFS distance to its destination for minimality; once one route is
   known to detour, the remaining searches are skipped. *)
let stats_of_hops t hops =
  let terminals = Graph.terminals t.graph in
  let nt = Array.length terminals in
  let order, dist_to = distances t in
  let max_hops = ref 0 and total_hops = ref 0 and minimal = ref true in
  Array.iter
    (fun di ->
      let dist = if !minimal then dist_to di else fun _ -> max_int in
      for si = 0 to nt - 1 do
        if si <> di then begin
          let h = hops ((si * nt) + di) in
          total_hops := !total_hops + h;
          if h > !max_hops then max_hops := h;
          if h > dist terminals.(si) then minimal := false
        end
      done)
    order;
  stats ~pairs:(nt * (nt - 1)) ~total_hops:!total_hops ~max_hops:!max_hops ~minimal:!minimal

(* When every pair leaves its source by the source's one enabled
   channel, a pair of class (s, d) is [1 + d(s, d)] away from [d], so a
   class is minimal iff its slice is no longer than [d(s, d)]: the
   statistics then read one entry per class. Any other table is measured
   pair by pair. *)
let class_stats t cls =
  let g = t.graph in
  let terminals = Graph.terminals g in
  let nt = Array.length terminals in
  let class_of_pair = cls.class_of_pair in
  if Array.length class_of_pair <> nt * nt then
    invalid_arg "Ftable.class_stats: classes do not match the table";
  let buf = Route_store.buffer cls.store
  and off = Route_store.offsets cls.store
  and len = Route_store.lengths cls.store
  and weight = Route_store.weights cls.store in
  let regular = ref true in
  for si = 0 to nt - 1 do
    let outs = Graph.out_channels g terminals.(si) and row = t.next.(terminals.(si)) in
    let only = if Array.length outs = 1 then outs.(0) else -1 in
    for di = 0 to nt - 1 do
      if si <> di && (row.(di) <> only || class_of_pair.((si * nt) + di) < 0) then regular := false
    done
  done;
  if not !regular then
    stats_of_hops t (fun pair ->
        let k = class_of_pair.(pair) in
        if k < 0 then invalid_arg "Ftable.class_stats: pair without a class";
        1 + len.(k))
  else begin
    let w k = match weight with None -> 1 | Some w -> w.(k) in
    let cap = Array.length len in
    let max_hops = ref 0 and total_hops = ref 0 and minimal = ref true in
    Array.iteri
      (fun k l ->
        if l >= 0 then begin
          total_hops := !total_hops + (w k * (1 + l));
          if 1 + l > !max_hops then max_hops := 1 + l
        end)
      len;
    (* class ids are [rank * nt + destination index] *)
    let order, dist_to = distances t in
    Array.iter
      (fun di ->
        if !minimal then begin
          let dist = dist_to di in
          let k = ref di in
          while !k < cap do
            let l = len.(!k) in
            if l > 0 && l > dist (Graph.channel g buf.(off.(!k))).Channel.src then minimal := false;
            k := !k + nt
          done
        end)
      order;
    stats ~pairs:(nt * (nt - 1)) ~total_hops:!total_hops ~max_hops:!max_hops ~minimal:!minimal
  end

let validate t = Result.map (class_stats t) (to_classes t)

let pp_stats ppf s =
  Format.fprintf ppf "pairs=%d max_hops=%d avg_hops=%.2f minimal=%b" s.pairs s.max_hops s.avg_hops s.minimal
