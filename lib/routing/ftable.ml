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

let path_into t store ~pair ~src ~dst =
  if src = dst then begin
    Route_store.set_path store ~pair [||];
    true
  end
  else begin
    let di = dst_index t dst in
    let limit = hop_limit t in
    Route_store.begin_path store ~pair;
    let rec follow node steps =
      if node = dst then begin
        Route_store.commit_path store;
        true
      end
      else if steps >= limit then begin
        Route_store.abort_path store;
        false
      end
      else
        let c = t.next.(node).(di) in
        if c < 0 then begin
          Route_store.abort_path store;
          false
        end
        else begin
          Route_store.push store c;
          follow (Graph.channel t.graph c).Channel.dst (steps + 1)
        end
    in
    follow src 0
  end

let c_to_store =
  Obs.Registry.counter "routing.to_store" ~desc:"forwarding tables walked into a route store"

let t_to_store =
  Obs.Registry.timer "routing.to_store_walk" ~desc:"seconds per forwarding-table walk into a route store"

(* Hop counts of every pair toward terminal index [di], written to
   [len.(si * nt + di)] (-1 when the walk from [si] fails). Each node's
   outcome is memoised in [memo] (unknown / [on_walk] / [failed] / hops),
   so every node is walked once per destination. A walk that revisits a
   node still on it is a forwarding loop: the walk is deterministic, so it
   would cycle forever, whereas one that reaches [dst] without a repeat
   visits distinct nodes and takes at most num_nodes - 1 hops — exactly
   the verdict of {!path}'s hop-limit walk. *)
let unknown = -1

let on_walk = -2

let failed = -3

let count_hops t ~head ~memo ~stack ~len ~di =
  let terminals = Graph.terminals t.graph in
  let nt = Array.length terminals in
  Array.fill memo 0 (Array.length memo) unknown;
  memo.(terminals.(di)) <- 0;
  for si = 0 to nt - 1 do
    if si <> di then begin
      let u = ref terminals.(si) and top = ref 0 in
      while memo.(!u) = unknown do
        memo.(!u) <- on_walk;
        stack.(!top) <- !u;
        incr top;
        let c = t.next.(!u).(di) in
        if c < 0 then memo.(!u) <- failed else u := head.(c)
      done;
      (* [!u] is the dead end itself, a node on this walk, or a node
         settled by an earlier walk *)
      let base = if memo.(!u) = on_walk then failed else memo.(!u) in
      for k = !top - 1 downto 0 do
        memo.(stack.(k)) <- (if base = failed then failed else base + !top - k)
      done;
      len.((si * nt) + di) <- (if base = failed then -1 else base + !top)
    end
  done

(* Two passes: hop counts of every pair (memoised per destination), then
   one arena of exactly their sum filled in pair order. *)
let walk_to_store t =
  let g = t.graph in
  let terminals = Graph.terminals g in
  let nt = Array.length terminals and n = Graph.num_nodes g in
  let head = Array.map (fun c -> c.Channel.dst) (Graph.channels g) in
  let len = Array.make (nt * nt) (-1) in
  let memo = Array.make n unknown and stack = Array.make n 0 in
  for di = 0 to nt - 1 do
    count_hops t ~head ~memo ~stack ~len ~di
  done;
  let off = Array.make (nt * nt) 0 in
  let total = ref 0 and failure = ref (-1) in
  for p = 0 to (nt * nt) - 1 do
    if len.(p) >= 0 then begin
      off.(p) <- !total;
      total := !total + len.(p)
    end
    else if !failure < 0 && p / nt <> p mod nt then failure := p
  done;
  if !failure >= 0 then
    Error
      (Printf.sprintf "no loop-free route %d -> %d" terminals.(!failure / nt) terminals.(!failure mod nt))
  else begin
    let buf = Array.make !total 0 in
    for si = 0 to nt - 1 do
      for di = 0 to nt - 1 do
        if si <> di then begin
          let p = (si * nt) + di in
          let u = ref terminals.(si) and o = off.(p) in
          for k = o to o + len.(p) - 1 do
            let c = t.next.(!u).(di) in
            buf.(k) <- c;
            u := head.(c)
          done
        end
      done
    done;
    Ok (Route_store.of_arena g ~buf ~off ~len ~num_paths:(nt * (nt - 1)))
  end

let to_store t =
  Obs.Counter.incr c_to_store;
  Obs.Timer.time t_to_store (fun () -> walk_to_store t)

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

let set_num_layers t n =
  if n < 1 then invalid_arg "Ftable.set_num_layers";
  t.num_layers <- n

let layers_of_store t store =
  let len = Route_store.lengths store in
  let layer_of_path = Array.make (Array.length len) (-1) in
  (match t.layers with
  | None ->
    for pair = 0 to Array.length len - 1 do
      if len.(pair) >= 0 then layer_of_path.(pair) <- 0
    done
  | Some l ->
    let nt = Graph.num_terminals t.graph in
    for pair = 0 to Array.length len - 1 do
      if len.(pair) >= 0 then layer_of_path.(pair) <- Char.code (Bytes.get l.(pair / nt) (pair mod nt))
    done);
  layer_of_path

let set_layers_of_store t store layer_of_path =
  let nt = Graph.num_terminals t.graph in
  if Route_store.capacity store <> nt * nt then
    invalid_arg "Ftable.set_layers_of_store: store does not match the table";
  if Array.length layer_of_path <> nt * nt then
    invalid_arg "Ftable.set_layers_of_store: layer_of_path does not cover the store";
  if Route_store.num_paths store > 0 then begin
    let l = ensure_layers t and len = Route_store.lengths store in
    for si = 0 to nt - 1 do
      let row = l.(si) in
      for di = 0 to nt - 1 do
        let pair = (si * nt) + di in
        if len.(pair) >= 0 then begin
          let vl = layer_of_path.(pair) in
          if vl < 0 || vl > 255 then invalid_arg "Ftable.set_layers_of_store: layer out of range";
          Bytes.set row di (Char.chr vl)
        end
      done
    done
  end

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

let store_stats t store =
  let g = t.graph in
  let terminals = Graph.terminals g in
  let nt = Array.length terminals in
  if Route_store.capacity store <> nt * nt then
    invalid_arg "Ftable.store_stats: store does not match the table";
  let n = Graph.num_nodes g in
  let dist = Array.make n max_int and queue = Array.make n 0 in
  let max_hops = ref 0 and total_hops = ref 0 and minimal = ref true in
  Array.iteri
    (fun di dst ->
      (* Hop distances for minimality are measured against BFS on the
         reversed graph (distance from every node TO dst); once one route
         is known to detour, the remaining searches are skipped. *)
      if !minimal then begin
        Array.fill dist 0 n max_int;
        dist.(dst) <- 0;
        queue.(0) <- dst;
        let head = ref 0 and tail = ref 1 in
        while !head < !tail do
          let v = queue.(!head) in
          incr head;
          Array.iter
            (fun c ->
              let u = (Graph.channel g c).Channel.src in
              if dist.(u) = max_int then begin
                dist.(u) <- dist.(v) + 1;
                queue.(!tail) <- u;
                incr tail
              end)
            (Graph.in_channels g v)
        done
      end;
      Array.iteri
        (fun si src ->
          if si <> di then begin
            let hops = Route_store.length store ~pair:((si * nt) + di) in
            total_hops := !total_hops + hops;
            if hops > !max_hops then max_hops := hops;
            if !minimal && hops > dist.(src) then minimal := false
          end)
        terminals)
    terminals;
  let pairs = nt * (nt - 1) in
  {
    pairs;
    max_hops = !max_hops;
    avg_hops = (if pairs = 0 then 0.0 else float_of_int !total_hops /. float_of_int pairs);
    minimal = !minimal;
  }

let validate t = Result.map (store_stats t) (to_store t)

let pp_stats ppf s =
  Format.fprintf ppf "pairs=%d max_hops=%d avg_hops=%.2f minimal=%b" s.pairs s.max_hops s.avg_hops s.minimal
