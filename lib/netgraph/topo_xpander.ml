let make ~net_degree ~lift ?(terminals_per_switch = 1) ~rng () =
  if net_degree < 2 then invalid_arg "Topo_xpander.make: net_degree < 2";
  if lift < 1 then invalid_arg "Topo_xpander.make: lift < 1";
  if terminals_per_switch < 0 then invalid_arg "Topo_xpander.make: terminals_per_switch < 0";
  let meta = net_degree + 1 in
  let switches = Builder.size_product [ meta; lift ] in
  Builder.check_nodes ~what:"Topo_xpander.make" (switches + Builder.size_product [ switches; terminals_per_switch ]);
  (* switch (u, i) = copy i of meta-node u *)
  let id u i = (u * lift) + i in
  let edges = ref [] in
  for u = 0 to meta - 1 do
    for v = u + 1 to meta - 1 do
      (* one random perfect matching per meta-edge *)
      let pi = Array.init lift (fun i -> i) in
      Rng.shuffle rng pi;
      for i = 0 to lift - 1 do
        edges := (id u i, id v pi.(i)) :: !edges
      done
    done
  done;
  let edges = Rewire.connect_components ~switches ~edges:(List.rev !edges) ~rng in
  let b = Builder.create () in
  let sw = Array.init switches (fun i -> Builder.add_switch b ~name:(Printf.sprintf "s%d" i)) in
  for s = 0 to switches - 1 do
    for t = 0 to terminals_per_switch - 1 do
      let (_ : int) =
        Builder.add_terminal b ~name:(Printf.sprintf "t%d_%d" s t) ~switch:sw.(s)
      in
      ()
    done
  done;
  List.iter (fun (x, y) -> ignore (Builder.add_link b sw.(x) sw.(y))) edges;
  Builder.build b
