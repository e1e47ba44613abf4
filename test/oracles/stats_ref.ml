let bfs_to g dst =
  let dist = Array.make (Graph.num_nodes g) max_int in
  let queue = Queue.create () in
  dist.(dst) <- 0;
  Queue.add dst queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    Array.iter
      (fun c ->
        let u = (Graph.channel g c).Channel.src in
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
      (Graph.in_channels g v)
  done;
  dist

exception No_route of int * int

let of_table ft =
  let g = Routing.Ftable.graph ft in
  let terminals = Graph.terminals g in
  let dist = Array.map (fun dst -> lazy (bfs_to g dst)) terminals in
  let pairs = ref 0 and max_hops = ref 0 and total = ref 0 and minimal = ref true in
  match
    Array.iter
      (fun src ->
        Array.iteri
          (fun di dst ->
            if src <> dst then
              match Routing.Ftable.path ft ~src ~dst with
              | None -> raise (No_route (src, dst))
              | Some p ->
                let hops = Path.length p in
                incr pairs;
                total := !total + hops;
                max_hops := max !max_hops hops;
                if hops > (Lazy.force dist.(di)).(src) then minimal := false)
          terminals)
      terminals
  with
  | exception No_route (src, dst) -> Error (Printf.sprintf "no loop-free route %d -> %d" src dst)
  | () ->
    Ok
      {
        Routing.Ftable.pairs = !pairs;
        max_hops = !max_hops;
        avg_hops = (if !pairs = 0 then 0.0 else float_of_int !total /. float_of_int !pairs);
        minimal = !minimal;
      }
