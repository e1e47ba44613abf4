type core = {
  cycle : int array;
  host_terminal : int array;
  hosts : int array;
  bound : int;
}

type t = {
  num_terminals : int;
  unreachable : (int * int) option;
  min_layers_lb : int;
  cores : core list;
}

let c_analyses = Obs.Registry.counter "analysis.existence_runs" ~desc:"topology existence analyses"

let t_analyze = Obs.Registry.timer "analysis.existence" ~desc:"seconds per topology existence analysis"

(* ------------------------------------------------------------------ *)
(* Strongly connected components of an implicit digraph (iterative
   Kosaraju: forward DFS finish order, then reverse-graph sweeps).
   Neighbors are served from caller-owned arrays through a mapper that
   may return -1 to skip an entry, so neither the node graph nor the
   complete CDG is ever materialized.                                   *)
(* ------------------------------------------------------------------ *)

let sccs ~n ~fwd_deg ~fwd_nb ~bwd_deg ~bwd_nb =
  let cap = max n 1 in
  let order = Array.make cap 0 in
  let nord = ref 0 in
  let visited = Array.make cap false in
  let stack_v = Array.make cap 0 in
  let stack_i = Array.make cap 0 in
  for root = 0 to n - 1 do
    if not visited.(root) then begin
      visited.(root) <- true;
      let sp = ref 0 in
      stack_v.(0) <- root;
      stack_i.(0) <- 0;
      while !sp >= 0 do
        let v = stack_v.(!sp) in
        let i = stack_i.(!sp) in
        if i < fwd_deg v then begin
          stack_i.(!sp) <- i + 1;
          let w = fwd_nb v i in
          if w >= 0 && not visited.(w) then begin
            visited.(w) <- true;
            incr sp;
            stack_v.(!sp) <- w;
            stack_i.(!sp) <- 0
          end
        end
        else begin
          order.(!nord) <- v;
          incr nord;
          decr sp
        end
      done
    end
  done;
  let comp = Array.make cap (-1) in
  let ncomp = ref 0 in
  let work = stack_v in
  for k = n - 1 downto 0 do
    let root = order.(k) in
    if comp.(root) < 0 then begin
      let c = !ncomp in
      incr ncomp;
      comp.(root) <- c;
      let sp = ref 0 in
      work.(0) <- root;
      while !sp >= 0 do
        let v = work.(!sp) in
        decr sp;
        for i = 0 to bwd_deg v - 1 do
          let w = bwd_nb v i in
          if w >= 0 && comp.(w) < 0 then begin
            comp.(w) <- c;
            incr sp;
            work.(!sp) <- w
          end
        done
      done
    end
  done;
  (comp, !ncomp)

let node_sccs g =
  let dst ch = (Graph.channel g ch).Channel.dst in
  let src ch = (Graph.channel g ch).Channel.src in
  sccs ~n:(Graph.num_nodes g)
    ~fwd_deg:(fun v -> Array.length (Graph.out_channels g v))
    ~fwd_nb:(fun v i -> dst (Graph.out_channels g v).(i))
    ~bwd_deg:(fun v -> Array.length (Graph.in_channels g v))
    ~bwd_nb:(fun v i -> src (Graph.in_channels g v).(i))

(* Complete-CDG adjacency: successors of channel [c] are the enabled
   channels leaving [head c], except the reverse of [c] (loop-free
   destination-based routes never U-turn); predecessors symmetrically.
   Adjacency arrays only ever list enabled channels, so a disabled
   channel is isolated once its own degree is forced to zero. *)
let chan_sccs g rev =
  let head c = (Graph.channel g c).Channel.dst in
  let tail c = (Graph.channel g c).Channel.src in
  sccs ~n:(Graph.num_channels g)
    ~fwd_deg:(fun c ->
      if Graph.channel_enabled g c then Array.length (Graph.out_channels g (head c)) else 0)
    ~fwd_nb:(fun c i ->
      let d = (Graph.out_channels g (head c)).(i) in
      if d = rev.(c) then -1 else d)
    ~bwd_deg:(fun c ->
      if Graph.channel_enabled g c then Array.length (Graph.in_channels g (tail c)) else 0)
    ~bwd_nb:(fun c i ->
      let d = (Graph.in_channels g (tail c)).(i) in
      if d = rev.(c) then -1 else d)

(* ------------------------------------------------------------------ *)
(* Circular-interval piercing                                          *)
(* ------------------------------------------------------------------ *)

(* Host windows: the route between consecutive hosts h_{i-1} -> h_i
   covers every dependency pair except those in the circular window
   [h_{i-1}-1 .. h_i-1]. A layer carrying a host route must avoid a pair
   inside that route's window, and one avoided pair serves all routes
   whose windows contain it — so the layers needed is exactly the
   piercing number of the windows. An optimal piercing may be assumed to
   stab the shortest window; fixing that point makes the rest a linear
   interval-stabbing problem solved greedily by right endpoint. *)
let piercing ~n ~hosts =
  let r = Array.length hosts in
  if r < 2 then 1
  else begin
    let starts = Array.make r 0 and lens = Array.make r 0 in
    for i = 0 to r - 1 do
      let prev = hosts.((i + r - 1) mod r) and cur = hosts.(i) in
      let gap = ((cur - prev) mod n + n) mod n in
      starts.(i) <- ((prev - 1) mod n + n) mod n;
      lens.(i) <- gap + 1
    done;
    let wmin = ref 0 in
    for i = 1 to r - 1 do
      if lens.(i) < lens.(!wmin) then wmin := i
    done;
    let contains s len p = ((p - s + n) mod n) < len in
    let best = ref max_int in
    for o = 0 to lens.(!wmin) - 1 do
      let p = (starts.(!wmin) + o) mod n in
      let ivals = ref [] in
      for i = 0 to r - 1 do
        if not (contains starts.(i) lens.(i) p) then begin
          (* unroll the circle at p: coordinates count from p+1 *)
          let a = ((starts.(i) - p - 1) mod n + n) mod n in
          ivals := (a + lens.(i) - 1, a) :: !ivals
        end
      done;
      let arr = Array.of_list !ivals in
      Array.sort compare arr;
      let count = ref 1 and last = ref (-1) in
      Array.iter (fun (b, a) -> if a > !last then begin incr count; last := b end) arr;
      if !count < !best then best := !count
    done;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Clean-core detection                                                *)
(* ------------------------------------------------------------------ *)

(* Given a nontrivial SCC of the complete CDG that forms a single simple
   channel cycle, check the surrounding structure and compute the bound:
   remove the cycle channels and label the core's node SCC by undirected
   connectivity; the decomposition is clean iff every cycle node lands
   in its own component (any chord, parallel arc or bypass merges two
   components and disqualifies the core). Hosts are components holding a
   terminal; the bound is the piercing number of their windows. *)
let core_of_cycle g ~node_comp ~is_core cycle =
  let n = Array.length cycle in
  let tail c = (Graph.channel g c).Channel.src in
  let head c = (Graph.channel g c).Channel.dst in
  let num_nodes = Graph.num_nodes g in
  let scomp = node_comp.(tail cycle.(0)) in
  let label = Array.make num_nodes (-1) in
  let queue = Queue.create () in
  let clean = ref true in
  (* core nodes must be distinct and share the node SCC *)
  Array.iteri
    (fun i c ->
      let v = tail c in
      if node_comp.(v) <> scomp || label.(v) >= 0 then clean := false else label.(v) <- i)
    cycle;
  if !clean then begin
    Array.iter (fun c -> Queue.add (tail c) queue) cycle;
    let visit lab w =
      if node_comp.(w) = scomp then
        if label.(w) < 0 then begin
          label.(w) <- lab;
          Queue.add w queue
        end
        else if label.(w) <> lab then clean := false
    in
    while !clean && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      let lab = label.(v) in
      Array.iter (fun ch -> if not is_core.(ch) then visit lab (head ch)) (Graph.out_channels g v);
      Array.iter (fun ch -> if not is_core.(ch) then visit lab (tail ch)) (Graph.in_channels g v)
    done
  end;
  if not !clean then None
  else begin
    let host_terminal = Array.make n (-1) in
    Array.iter
      (fun t ->
        let lab = label.(t) in
        if lab >= 0 && host_terminal.(lab) < 0 then host_terminal.(lab) <- t)
      (Graph.terminals g);
    let hosts =
      Array.of_list (List.filter (fun i -> host_terminal.(i) >= 0) (List.init n (fun i -> i)))
    in
    let bound = piercing ~n ~hosts in
    if bound < 2 then None else Some { cycle; host_terminal; hosts; bound }
  end

(* Extract the simple-cycle SCCs of the complete CDG: an SCC qualifies
   iff every member channel has exactly one successor inside the SCC (a
   strongly connected functional graph is a single cycle). *)
let simple_cycles g rev chan_comp ncomp =
  let m = Graph.num_channels g in
  let head c = (Graph.channel g c).Channel.dst in
  let size = Array.make ncomp 0 in
  for c = 0 to m - 1 do
    size.(chan_comp.(c)) <- size.(chan_comp.(c)) + 1
  done;
  let succ = Array.make m (-1) in
  let simple = Array.map (fun s -> s >= 2) size in
  for c = 0 to m - 1 do
    let k = chan_comp.(c) in
    if simple.(k) then begin
      if not (Graph.channel_enabled g c) then simple.(k) <- false
      else
        Array.iter
          (fun d ->
            if d <> rev.(c) && chan_comp.(d) = k then
              if succ.(c) >= 0 then simple.(k) <- false else succ.(c) <- d)
          (Graph.out_channels g (head c));
      if succ.(c) < 0 then simple.(k) <- false
    end
  done;
  let seen = Array.make m false in
  let cycles = ref [] in
  for c = 0 to m - 1 do
    let k = chan_comp.(c) in
    if simple.(k) && not seen.(c) then begin
      (* walk the functional successor until it closes; guard against
         anything other than one simple cycle covering the SCC *)
      let members = ref [] in
      let count = ref 0 in
      let cur = ref c in
      let ok = ref true in
      while !ok && not seen.(!cur) do
        seen.(!cur) <- true;
        members := !cur :: !members;
        incr count;
        let nxt = succ.(!cur) in
        if nxt < 0 || chan_comp.(nxt) <> k then ok := false else cur := nxt
      done;
      if !ok && !cur = c && !count = size.(k) then
        cycles := Array.of_list (List.rev !members) :: !cycles
    end
  done;
  !cycles

let analyze_inner g =
  let terminals = Graph.terminals g in
  let nt = Array.length terminals in
  let node_comp, _ = node_sccs g in
  let unreachable =
    if nt < 2 then None
    else begin
      (* all demands routable iff every terminal shares one node SCC;
         name a concrete broken ordered pair via one BFS *)
      let base = terminals.(0) in
      let off = Array.fold_left (fun acc t -> match acc with
        | Some _ -> acc
        | None -> if node_comp.(t) <> node_comp.(base) then Some t else None)
        None terminals
      in
      match off with
      | None -> None
      | Some t ->
        let dist = Graph.bfs_dist g base in
        if dist.(t) < max_int then Some (t, base) else Some (base, t)
    end
  in
  let rev =
    Array.init (Graph.num_channels g) (fun c ->
        match Graph.reverse_channel g c with
        | Some r -> r
        | None -> -1)
  in
  let chan_comp, ncomp = chan_sccs g rev in
  let is_core = Array.make (Graph.num_channels g) false in
  let cores =
    List.filter_map
      (fun cycle ->
        Array.iter (fun c -> is_core.(c) <- true) cycle;
        let r = core_of_cycle g ~node_comp ~is_core cycle in
        Array.iter (fun c -> is_core.(c) <- false) cycle;
        r)
      (simple_cycles g rev chan_comp ncomp)
  in
  let cores = List.sort (fun a b -> compare b.bound a.bound) cores in
  let min_layers_lb =
    if nt < 2 then 0
    else List.fold_left (fun acc c -> max acc c.bound) 1 cores
  in
  { num_terminals = nt; unreachable; min_layers_lb; cores }

let analyze g =
  Obs.Counter.incr c_analyses;
  Obs.Timer.time t_analyze (fun () -> analyze_inner g)

let min_layers_lb g = (analyze g).min_layers_lb

let feasible t ~budget = t.unreachable = None && budget >= t.min_layers_lb
