let make ~switches ~switch_radix ~terminals ~inter_links ~rng =
  if switches < 2 then invalid_arg "Topo_random.make: switches < 2";
  if switch_radix < 1 then invalid_arg "Topo_random.make: switch_radix < 1";
  if terminals < 0 then invalid_arg "Topo_random.make: terminals < 0";
  Builder.check_nodes ~what:"Topo_random.make" (Builder.size_product [ switches ] + Builder.size_product [ terminals ]);
  if inter_links < switches - 1 then invalid_arg "Topo_random.make: too few links for connectivity";
  let ports_used = Array.make switches 0 in
  for t = 0 to terminals - 1 do
    let s = t mod switches in
    ports_used.(s) <- ports_used.(s) + 1
  done;
  let total_free = ref 0 in
  Array.iter
    (fun used ->
      if used > switch_radix then invalid_arg "Topo_random.make: terminals exceed radix";
      total_free := !total_free + (switch_radix - used))
    ports_used;
  if !total_free < 2 * inter_links then invalid_arg "Topo_random.make: port budget too small for links";
  let b = Builder.create () in
  let sw = Array.init switches (fun i -> Builder.add_switch b ~name:(Printf.sprintf "s%d" i)) in
  for t = 0 to terminals - 1 do
    let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "t%d" t) ~switch:sw.(t mod switches) in
    ()
  done;
  let free s = switch_radix - ports_used.(s) in
  let connect a bidx =
    let (_ : int * int) = Builder.add_link b sw.(a) sw.(bidx) in
    ports_used.(a) <- ports_used.(a) + 1;
    ports_used.(bidx) <- ports_used.(bidx) + 1
  in
  (* Random spanning tree: random permutation; attach each switch to a
     random already-placed switch with a free port. [placed] marks the
     positions of [order] already placed whose switch has a free port;
     the draw indexes them from the latest placed down. *)
  let order = Array.init switches (fun i -> i) in
  Rng.shuffle rng order;
  let placed = Fenwick.create switches in
  if free order.(0) > 0 then Fenwick.add placed 0 1;
  for i = 1 to switches - 1 do
    let n = Fenwick.prefix placed i in
    if n = 0 then invalid_arg "Topo_random.make: port budget exhausted during spanning tree";
    let j = Fenwick.select placed (n - 1 - Rng.int rng n) in
    connect order.(i) order.(j);
    if free order.(j) <= 0 then Fenwick.add placed j (-1);
    if free order.(i) > 0 then Fenwick.add placed i 1
  done;
  (* Extra links between uniformly random distinct switches with free
     ports, drawn from those switches in index order. *)
  let with_free = Fenwick.create switches in
  for s = 0 to switches - 1 do
    if free s > 0 then Fenwick.add with_free s 1
  done;
  let remaining = inter_links - (switches - 1) in
  for _ = 1 to remaining do
    let n = Fenwick.prefix with_free switches in
    if n < 2 then invalid_arg "Topo_random.make: port budget exhausted";
    let i = Rng.int rng n in
    let rec pick_other () =
      let k = Rng.int rng n in
      if k = i then pick_other () else k
    in
    let a = Fenwick.select with_free i and c = Fenwick.select with_free (pick_other ()) in
    connect a c;
    if free a <= 0 then Fenwick.add with_free a (-1);
    if free c <= 0 then Fenwick.add with_free c (-1)
  done;
  Builder.build b
