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
     random already-placed switch with a free port. *)
  let order = Array.init switches (fun i -> i) in
  Rng.shuffle rng order;
  for i = 1 to switches - 1 do
    let candidates = ref [] in
    for j = 0 to i - 1 do
      if free order.(j) > 0 then candidates := order.(j) :: !candidates
    done;
    (match !candidates with
    | [] -> invalid_arg "Topo_random.make: port budget exhausted during spanning tree"
    | l ->
      let arr = Array.of_list l in
      connect order.(i) (Rng.pick rng arr))
  done;
  (* Extra links between uniformly random distinct switches with free
     ports. *)
  let remaining = inter_links - (switches - 1) in
  for _ = 1 to remaining do
    let with_free = Array.of_list (List.filter (fun s -> free s > 0) (Array.to_list sw)) in
    if Array.length with_free < 2 then invalid_arg "Topo_random.make: port budget exhausted";
    let a = Rng.pick rng with_free in
    let rec pick_other () =
      let c = Rng.pick rng with_free in
      if c = a then pick_other () else c
    in
    connect a (pick_other ())
  done;
  Builder.build b
