let is_acyclic cdg =
  let g = Cdg.graph cdg in
  let m = Graph.num_channels g in
  let indeg = Array.make m 0 in
  Cdg.iter_edges cdg (fun _ c2 _ -> indeg.(c2) <- indeg.(c2) + 1);
  let queue = Queue.create () in
  for c = 0 to m - 1 do
    if indeg.(c) = 0 then Queue.add c queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    incr seen;
    let lo, hi = Cdg.slot_range cdg c in
    for sl = lo to hi - 1 do
      let c2 = Cdg.slot_col cdg sl in
      indeg.(c2) <- indeg.(c2) - 1;
      if indeg.(c2) = 0 then Queue.add c2 queue
    done
  done;
  !seen = m

let layers_acyclic_store store ~layer_of_path ~num_layers =
  if Array.length layer_of_path <> Route_store.capacity store then
    invalid_arg "Acyclic_ref.layers_acyclic_store: length mismatch";
  let rec from vl =
    vl >= num_layers
    || (is_acyclic (Cdg.of_store ~filter:(fun pr -> layer_of_path.(pr) = vl) store) && from (vl + 1))
  in
  from 0

let deadlock_free ft =
  match Routing.Ftable.to_store ft with
  | Error _ -> false
  | Ok store ->
    let layer_of_path = Routing.Ftable.pair_layers ft in
    layers_acyclic_store store ~layer_of_path
      ~num_layers:(1 + Array.fold_left max 0 layer_of_path)
