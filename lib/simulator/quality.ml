type t = {
  pairs : int;
  min_hops : int;
  max_hops : int;
  mean_hops : float;
  diameter_hops : int;
  max_load : int;
  mean_load : float;
  load_cv : float;
}

let measure ft =
  let g = Ftable.graph ft in
  let load = Array.make (Netgraph.Graph.num_channels g) 0 in
  let pairs = ref 0 and total_hops = ref 0 in
  let min_hops = ref max_int and max_hops = ref 0 in
  Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p ->
      incr pairs;
      let hops = Array.length p in
      total_hops := !total_hops + hops;
      if hops < !min_hops then min_hops := hops;
      if hops > !max_hops then max_hops := hops;
      Array.iter (fun c -> load.(c) <- load.(c) + 1) p);
  (* diameter over terminals: the min-hop bound of the worst pair *)
  let diameter = ref 0 in
  Array.iter
    (fun t ->
      let dist = Netgraph.Graph.bfs_dist g t in
      Array.iter
        (fun t' -> if dist.(t') < max_int && dist.(t') > !diameter then diameter := dist.(t'))
        (Netgraph.Graph.terminals g))
    (Netgraph.Graph.terminals g);
  (* load stats over switch-to-switch channels only *)
  let switch_loads = ref [] in
  Array.iter
    (fun (c : Netgraph.Channel.t) ->
      if Netgraph.Graph.is_switch g c.src && Netgraph.Graph.is_switch g c.dst then
        switch_loads := float_of_int load.(c.id) :: !switch_loads)
    (Netgraph.Graph.channels g);
  let loads = Array.of_list !switch_loads in
  let mean_load, load_cv =
    if Array.length loads = 0 then (0.0, 0.0)
    else begin
      let s = Obs.Stat.summarize loads in
      (s.Obs.Stat.mean, if s.Obs.Stat.mean > 0.0 then s.Obs.Stat.stddev /. s.Obs.Stat.mean else 0.0)
    end
  in
  {
    pairs = !pairs;
    min_hops = (if !pairs = 0 then 0 else !min_hops);
    max_hops = !max_hops;
    mean_hops = (if !pairs = 0 then 0.0 else float_of_int !total_hops /. float_of_int !pairs);
    diameter_hops = !diameter;
    max_load = Array.fold_left max 0 load;
    mean_load;
    load_cv;
  }
