type result = {
  flows : int;
  channel_load : int array;
  max_congestion : int;
  mean_share : float;
  min_share : float;
  completion : float;
}

let evaluate_paths g ~paths =
  let load = Array.make (Netgraph.Graph.num_channels g) 0 in
  let routes = paths in
  Array.iter (fun p -> Array.iter (fun c -> load.(c) <- load.(c) + 1) p) routes;
  let max_congestion = Array.fold_left max 0 load in
  let shares =
    Array.to_list routes
    |> List.filter (fun p -> Array.length p > 0)
    |> List.map (fun p -> 1.0 /. float_of_int (Array.fold_left (fun acc c -> max acc load.(c)) 1 p))
  in
  let n = List.length shares in
  let mean_share = if n = 0 then 1.0 else List.fold_left ( +. ) 0.0 shares /. float_of_int n in
  let min_share = List.fold_left min 1.0 shares in
  let completion =
    if n = 0 then 0.0 else 1.0 /. List.fold_left min 1.0 shares
  in
  { flows = n; channel_load = load; max_congestion; mean_share; min_share; completion }

let evaluate_store store =
  let g = Deadlock.Route_store.graph store in
  let load = Array.make (Netgraph.Graph.num_channels g) 0 in
  Deadlock.Route_store.iter_pairs store (fun pair ->
      Deadlock.Route_store.iter store ~pair (fun c -> load.(c) <- load.(c) + 1));
  let max_congestion = Array.fold_left max 0 load in
  let n = ref 0 and sum = ref 0.0 and min_share = ref 1.0 in
  Deadlock.Route_store.iter_pairs store (fun pair ->
      if Deadlock.Route_store.length store ~pair > 0 then begin
        (* bottleneck load floors at 1, as in [evaluate_paths] *)
        let worst = ref 1 in
        Deadlock.Route_store.iter store ~pair (fun c ->
            if load.(c) > !worst then worst := load.(c));
        let share = 1.0 /. float_of_int !worst in
        incr n;
        sum := !sum +. share;
        if share < !min_share then min_share := share
      end);
  let flows = !n in
  {
    flows;
    channel_load = load;
    max_congestion;
    mean_share = (if flows = 0 then 1.0 else !sum /. float_of_int flows);
    min_share = !min_share;
    completion = (if flows = 0 then 0.0 else 1.0 /. !min_share);
  }

let evaluate ft ~flows =
  let g = Ftable.graph ft in
  let store = Deadlock.Route_store.create g ~capacity:(Array.length flows) in
  Array.iteri
    (fun f (src, dst) ->
      match Ftable.path ft ~src ~dst with
      | Some p -> Deadlock.Route_store.set_path store ~pair:f p
      | None -> failwith (Printf.sprintf "Congestion.evaluate: no route %d -> %d" src dst))
    flows;
  evaluate_store store

type ebb = {
  samples : Obs.Stat.summary;
  worst_pair : float;
}

let effective_bisection_bandwidth ?(patterns = 100) ?ranks ?(domains = 1) ~rng ft =
  let ranks =
    match ranks with
    | Some r -> r
    | None -> Netgraph.Graph.terminals (Ftable.graph ft)
  in
  if patterns < 1 then invalid_arg "Congestion.effective_bisection_bandwidth: patterns < 1";
  (* split per-matching PRNGs up front so parallel sampling stays
     deterministic *)
  let rngs = Array.init patterns (fun _ -> Netgraph.Rng.split rng) in
  let results =
    Netgraph.Parallel.map_array ~domains
      (fun pattern_rng ->
        let flows = Patterns.random_bisection pattern_rng ranks in
        let r = evaluate ft ~flows in
        (r.mean_share, r.min_share))
      rngs
  in
  let means = Array.map fst results in
  let worst = Array.fold_left (fun acc (_, w) -> min acc w) 1.0 results in
  { samples = Obs.Stat.summarize means; worst_pair = worst }

let completion_time ft ~flows ~bytes ~bandwidth =
  if bytes < 0.0 || bandwidth <= 0.0 then invalid_arg "Congestion.completion_time";
  let r = evaluate ft ~flows in
  bytes *. r.completion /. bandwidth

type hotspot = {
  channel : int;
  load : int;
  src_name : string;
  dst_name : string;
}

let hotspots ?(top = 10) ft ~flows =
  let g = Ftable.graph ft in
  let r = evaluate ft ~flows in
  let loaded = ref [] in
  Array.iteri (fun c load -> if load > 0 then loaded := (c, load) :: !loaded) r.channel_load;
  let sorted = List.sort (fun (c1, l1) (c2, l2) -> compare (-l1, c1) (-l2, c2)) !loaded in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (c, load) :: rest ->
      let ch = Netgraph.Graph.channel g c in
      {
        channel = c;
        load;
        src_name = (Netgraph.Graph.node g ch.Netgraph.Channel.src).Netgraph.Node.name;
        dst_name = (Netgraph.Graph.node g ch.Netgraph.Channel.dst).Netgraph.Node.name;
      }
      :: take (n - 1) rest
  in
  take top sorted

let load_histogram r =
  let counts = Hashtbl.create 32 in
  Array.iter
    (fun load -> Hashtbl.replace counts load (1 + Option.value ~default:0 (Hashtbl.find_opt counts load)))
    r.channel_load;
  List.sort compare (Hashtbl.fold (fun load n acc -> (load, n) :: acc) counts [])
